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

// waitBound is how long a goroutine yields its P before giving up on the
// other side of a round: a helper waiting for a round to join exits, a
// caller waiting for its joined helpers parks. It is a constant so that
// a process owns no helpers half a millisecond after its last round or
// Wake, and long enough to cover an idle vCPU picking up a helper
// (70–90 µs on the 2-vCPU guest DESIGN.md measures) and most gaps
// between back-to-back rounds.
const waitBound = 500 * time.Microsecond

// The round word: round id in the high 32 bits, the open bit, the woken
// bit, and the count of helpers that joined the round in the rest. Every
// transition is one atomic store or CAS, so a helper's join and the
// caller's close are totally ordered.
const (
	open       = 1 << 31 // published: helpers may join; clear is closed
	woken      = 1 << 30 // set on a closed word by Wake, cleared by the next publish: a round is coming
	joinedMask = woken - 1
	idShift    = 32
)

// The helpers are one set per process, shared by every Pool. board is
// the pool they should join next — the last to Wake or Run, put back by
// a nested Run when its round closes — and helpers counts them: those
// launched and not yet gone in the high 32 bits (one liveHelper each),
// and those of them not working a round in the low 32. A helper busy in
// an outer round is not idle, so a Run nested in its task launches a
// helper of its own. One word, so a helper leaves both counts at once.
var (
	board   atomic.Pointer[Pool]
	helpers atomic.Uint64
)

const liveHelper = 1 << 32

// Pool runs indexed tasks across a fixed number of workers. The caller
// of Run is worker 0; the process's helpers join a round as workers 1, 2,
// … up to the pool's size. One Run at a time per Pool, and Wake from the
// same goroutine; a task may Run on a different Pool (registry →
// experiment → phy.Exchange nests so).
type Pool struct {
	workers int

	// Lifetime tasks executed, tasks stolen from another worker's range,
	// barrier rounds run, rounds that closed with fewer helpers joined
	// than they could take, and the size of the round in flight.
	tasks  atomic.Uint64
	steals atomic.Uint64
	rounds atomic.Uint64
	late   atomic.Uint64
	depth  atomic.Int64

	round  atomic.Uint64 // the round word
	done   chan struct{} // a token per joined helper done with its share; sized so no send blocks
	fn     func(i int)   // the round in flight
	prev   *Pool         // the announcement this pool's Wake or Run replaced on the board
	queues []queue
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
	Workers int    `json:"workers"`
	Tasks   uint64 `json:"tasks"`
	Steals  uint64 `json:"steals"`
	Rounds  uint64 `json:"rounds"`
	Late    uint64 `json:"late"` // rounds that closed with fewer helpers joined than they could take
	Depth   int64  `json:"depth"`
}

// Stats reads the counters; safe while a Run is in flight.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers: p.workers,
		Tasks:   p.tasks.Load(),
		Steals:  p.steals.Load(),
		Rounds:  p.rounds.Load(),
		Late:    p.late.Load(),
		Depth:   p.depth.Load(),
	}
}

// Wake announces the pool's next round and launches helpers ahead of
// Run, so the time an idle CPU takes to pick one up overlaps the
// caller's serial work instead of the round; helpers wait out up to
// waitBound of that work. A nil Pool ignores it.
func (p *Pool) Wake() {
	if p == nil {
		return
	}
	p.round.Store(p.round.Load() | woken) // a closed word has no other writer
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

// launch starts helpers until the process has want of them idle.
func launch(want int) {
	for h := helpers.Load(); int(uint32(h)) < want; h = helpers.Load() {
		if helpers.CompareAndSwap(h, h+liveHelper+1) {
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
		for len(p.done) == 0 && time.Since(start) < waitBound {
			runtime.Gosched()
		}
		<-p.done
	}
	p.fn = nil
	p.depth.Store(0)
}

// helper is one of the process's helpers. It yields its P while it waits
// for an open round on the board, joins it with one CAS while the round
// has fewer than min(workers, n) − 1 helpers, works its share as worker
// 1, 2, … in join order, counts itself idle again and hands its token
// back (in that order, so the caller's next Run launches no helper in
// place of one that is done). Then it waits again, for whichever pool is
// on the board next. It never reads a round's fn or ranges unless its
// CAS joined that round, and never rejoins a round it left.
//
// How long it waits: while the board shows a woken pool, up to
// waitBound; otherwise four times the share it just worked, capped at
// waitBound. A helper whose rounds are short lingers briefly, so it
// spins through no long serial stage, while one whose rounds take their
// time waits out the gap to the next. A helper that has worked no round,
// or whose share took waitBound or more, does not wait at all: it came
// too late for the round that launched it, or its round was long enough
// that a fresh helper's start (70–90 µs) is a small part of the next, and
// a spinning helper holds the global run queue, so the network poller
// of a process that serves requests between rounds goes unread.
func helper() {
	var last *Pool
	var lastID uint64
	since, bound := time.Now(), time.Duration(0)
	for {
		var w uint64
		if p := board.Load(); p != nil {
			w = p.round.Load()
			if w&open != 0 && (p != last || w>>idShift != lastID) &&
				int64(w&joinedMask) < min(int64(p.workers), p.depth.Load())-1 &&
				p.round.CompareAndSwap(w, w+1) {
				helpers.Add(^uint64(0)) // not idle
				joined := time.Now()
				p.work(int(w&joinedMask) + 1)
				helpers.Add(1)
				p.done <- struct{}{}
				last, lastID, since = p, w>>idShift, time.Now()
				if share := since.Sub(joined); share < waitBound {
					bound = min(4*share, waitBound)
				} else {
					bound = 0
				}
				continue
			}
		}
		if waited := time.Since(since); waited >= waitBound || waited >= bound && w&woken == 0 {
			helpers.Add(^uint64(liveHelper)) // neither live nor idle
			return
		}
		runtime.Gosched()
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
