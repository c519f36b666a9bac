// Package par is the repo's one parallel runner: a range-partition +
// steal pool with a barrier. PHY lanes in an Exchange, links in a fleetd
// epoch, pod shards in a FleetSim phase and generators in an experiment
// run are each one Run call — a fixed budget of workers time-shared by
// many cheap tasks.
//
// Contract: a task writes only state owned by its index, and the caller
// merges results in index order after Run returns. Then the worker count
// and the steal pattern cannot change a result bit, only wall-clock
// balance — which is what the steal counter shows.
package par

import (
	"runtime"
	"sync/atomic"
	"time"
)

// spinBound is how long a goroutine stays on its P waiting for the other
// side of a round before it parks: a helper with no round to join spins,
// a caller waiting for its joined helpers yields. It covers fleetd's API
// phase between two step rounds (1–3 ms on the 2-vCPU guest DESIGN.md
// measures), so the step round's helper is running when it is published.
const spinBound = 3 * time.Millisecond

// The round word: round id in the high 32 bits, the open bit, and the
// count of helpers that joined the round in the rest. Every transition
// is one atomic store or CAS, so a helper's join and the caller's close
// are totally ordered.
const (
	open       = 1 << 31 // published: helpers may join; clear is closed
	joinedMask = open - 1
	idShift    = 32
)

// The helpers are one set per process, shared by every Pool, and none
// ever exits. board is the pool they should join next — the last to Wake
// or Run, put back by a nested Run when its round closes. helpers counts
// them in three 21-bit fields, high to low: every helper launched, the
// parked ones, and the idle ones — awake and working no round: spinning,
// or unparked or launched and not yet at the board. A helper busy in an
// outer round is not idle, so a Run nested in its task gets a helper of
// its own. unpark holds a token per helper unparked and not yet running:
// no send blocks while fewer helpers are parked than its size.
var (
	board   atomic.Pointer[Pool]
	helpers atomic.Uint64
	unpark  = make(chan struct{}, 1024)
)

const idleHelper, parkedHelper, liveHelper, countMask = 1, 1 << 21, 1 << 42, 1<<21 - 1
const parkIdle = parkedHelper - idleHelper // an idle helper parks

// Pool runs indexed tasks across a fixed number of workers. The caller
// of Run is worker 0; the process's helpers join a round as workers 1, 2,
// … up to the pool's size. One Run at a time per Pool, and Wake from the
// same goroutine; a task may Run on a different Pool (registry →
// experiment → phy.Exchange nests so).
type Pool struct {
	workers int

	// Lifetime tasks executed, tasks stolen from another worker's range,
	// barrier rounds run, rounds closed short of helpers, summed publish
	// to first join ns, and the size of the round in flight.
	tasks  atomic.Uint64
	steals atomic.Uint64
	rounds atomic.Uint64
	late   atomic.Uint64
	pickup atomic.Uint64
	depth  atomic.Int64

	round     atomic.Uint64 // the round word
	published time.Time     // when the round in flight opened
	done      chan struct{} // a token per joined helper done with its share; sized so no send blocks
	fn        func(i int)   // the round in flight
	prev      *Pool         // the announcement this pool's Wake or Run replaced on the board
	queues    []queue
}

// queue is one worker's share of a round: the half-open index range
// [next, hi) with an atomic cursor. The owner and thieves pop through
// the same cursor, so a task runs exactly once.
type queue struct {
	next atomic.Int64
	hi   int64
	_    [48]byte // keep cursors off each other's cache line
}

// New builds a pool. workers <= 0 means runtime.GOMAXPROCS; workers == 1
// runs every task inline on the caller.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, queues: make([]queue, workers), done: make(chan struct{}, workers)}
}

// Stats is a pool's telemetry snapshot.
type Stats struct {
	Workers  int    `json:"workers"`
	Tasks    uint64 `json:"tasks"`
	Steals   uint64 `json:"steals"`
	Rounds   uint64 `json:"rounds"`
	Late     uint64 `json:"late"`      // rounds that closed with fewer helpers joined than they could take
	PickupNs uint64 `json:"pickup_ns"` // publish to first join, summed over the rounds a helper joined
	Depth    int64  `json:"depth"`
}

// Stats reads the counters; safe while a Run is in flight.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:  p.workers,
		Tasks:    p.tasks.Load(),
		Steals:   p.steals.Load(),
		Rounds:   p.rounds.Load(),
		Late:     p.late.Load(),
		PickupNs: p.pickup.Load(),
		Depth:    p.depth.Load(),
	}
}

// Wake announces the pool's next round and wakes helpers ahead of Run,
// so their pickup overlaps the caller's serial work instead of the
// round; they spin up to spinBound for it. A nil Pool ignores it.
func (p *Pool) Wake() {
	if p == nil {
		return
	}
	p.announce()
	launch(p.workers - 1)
}

// announce puts p on the board, keeping what it replaced for the close
// of p's round to put back: the helpers an inner Run borrowed return to
// the outer round.
func (p *Pool) announce() {
	if old := board.Swap(p); old != p {
		p.prev = old
	}
}

// launch tops the process's idle helpers up to want: it unparks a parked
// helper while there is one and starts a goroutine only when none is.
func launch(want int) {
	for h := helpers.Load(); int(h&countMask) < want; h = helpers.Load() {
		if h/parkedHelper&countMask > 0 {
			if helpers.CompareAndSwap(h, h-parkIdle) {
				unpark <- struct{}{}
			}
		} else if helpers.CompareAndSwap(h, h+liveHelper+idleHelper) {
			go helper()
		}
	}
}

// Run executes fn(i) for every i in [0, n) and returns when all are done
// (a barrier). A nil Pool runs them inline and counts nothing. Run does
// not allocate: a caller passing an fn it already holds (not a fresh
// closure or method value) stays off the heap.
func (p *Pool) Run(n int, fn func(i int)) {
	if p == nil || n <= 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.rounds.Add(1)
	p.depth.Store(int64(n))
	p.fn = fn
	// Deal [0,n) into contiguous per-worker ranges, the first n%workers of
	// them one longer; with n < workers only n-1 helpers are wanted.
	per, extra := n/p.workers, n%p.workers
	for w := range p.queues {
		p.queues[w].next.Store(int64(w*per + min(w, extra)))
		p.queues[w].hi = int64((w+1)*per + min(w+1, extra))
	}
	// Launch before publishing: once the round is open, a helper that
	// joined it no longer counts as idle, and launch would replace it.
	want := min(p.workers, n) - 1
	p.announce()
	launch(want)
	p.published = time.Now()
	p.round.Store((p.round.Load()>>idShift+1)<<idShift | open)
	p.work(0)

	// Close (clear the open bit; a helper's join CAS on the open word now
	// fails, so the joined count is final) and hand the board back, then
	// wait for the joined helpers only: yield while they finish, park
	// once the bound passed.
	w := p.round.Add(^uint64(open - 1))
	board.CompareAndSwap(p, p.prev)
	p.prev = nil
	joined := int(w & joinedMask)
	if joined < want {
		p.late.Add(1)
	}
	for start := time.Now(); joined > 0; joined-- {
		for len(p.done) == 0 && time.Since(start) < spinBound {
			runtime.Gosched()
		}
		<-p.done
	}
	p.fn = nil
	p.depth.Store(0)
}

// helper is one of the process's helpers. It joins an open round on the
// board with one CAS while the round has fewer than min(workers, n) − 1
// helpers, works its share as worker 1, 2, … in join order, counts itself
// idle again and hands its token back (in that order, so the caller's
// next Run wakes no helper in place of one that is done). It reads a
// round's fn and ranges only once its CAS joined it, and never rejoins.
//
// Between rounds it spins, reading only the board and the round word and
// never yielding, so it is on a CPU when the next round opens; after
// spinBound it parks until a launch unparks it. A helper that finds
// GOMAXPROCS − 1 other helpers idle parks at once: spinners never hold
// every P, so a caller or request handler readied beside them has one.
func helper() {
	var last *Pool
	var lastID uint64
	for {
		spin, since := int(helpers.Load()&countMask) < runtime.GOMAXPROCS(0), time.Now()
		for i := 1; ; i++ {
			if p := board.Load(); p != nil {
				w := p.round.Load()
				if w&open != 0 && (p != last || w>>idShift != lastID) &&
					int64(w&joinedMask) < min(int64(p.workers), p.depth.Load())-1 &&
					p.round.CompareAndSwap(w, w+1) {
					helpers.Add(^uint64(idleHelper - 1)) // not idle
					if w&joinedMask == 0 {
						p.pickup.Add(uint64(time.Since(p.published)))
					}
					p.work(int(w&joinedMask) + 1)
					helpers.Add(idleHelper)
					p.done <- struct{}{}
					last, lastID = p, w>>idShift
					break
				}
			}
			if !spin || i%64 == 0 && time.Since(since) >= spinBound {
				helpers.Add(parkIdle)
				<-unpark // the launch that sent it counted this helper idle again
				break
			}
		}
	}
}

// work is one worker's share of a round: drain its own range front to
// back, then steal single tasks from the others' in scan order.
func (p *Pool) work(self int) {
	var ran, stole uint64
	for q := range p.queues {
		victim := (self + q) % p.workers
		vq := &p.queues[victim]
		for {
			i := vq.next.Add(1) - 1
			if i >= vq.hi {
				break
			}
			p.fn(int(i))
			ran++
			if victim != self {
				stole++
			}
		}
	}
	p.tasks.Add(ran)
	p.steals.Add(stole)
}
