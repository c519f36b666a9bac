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
// other side of a round: a helper waiting for its round to be published
// exits, a caller waiting for its joined helpers parks. It is a constant
// so that an idle Pool owns no goroutines half a millisecond after its
// last Wake, and long enough to cover an idle vCPU picking up a helper
// (70–90 µs on the 2-vCPU guest DESIGN.md measures).
const waitBound = 500 * time.Microsecond

// The round word: round id in the high 32 bits, the phase in the next
// two, and the count of helpers that joined the round in the rest. Every
// transition is one atomic store or CAS, so a helper's join and the
// caller's close are totally ordered.
const (
	pending    = 1 << 30 // Wake armed the round; Run has not published it
	open       = 2 << 30 // published: helpers may join
	phaseMask  = 3 << 30 // phase 0 is closed: nobody may join
	joinedMask = 1<<30 - 1
	idShift    = 32
)

// Pool runs indexed tasks across a fixed number of workers. The caller
// of Run is worker 0; helpers are launched by Wake or Run for one round
// and exit with it, so an idle Pool owns no goroutines. One Run at a time
// per Pool, and Wake from the same goroutine; a task may Run on a
// different Pool (registry → experiment → phy.Exchange nests so).
type Pool struct {
	workers int

	// Lifetime tasks executed, tasks stolen from another worker's range,
	// barrier rounds run, helpers that found their round already closed,
	// and the size of the round in flight.
	tasks  atomic.Uint64
	steals atomic.Uint64
	rounds atomic.Uint64
	late   atomic.Uint64
	depth  atomic.Int64

	round  atomic.Uint64 // the round word
	live   atomic.Int64  // helpers launched and not yet gone
	done   chan struct{} // a token per joined helper done with its share; sized so no send blocks
	help   func()        // the helper body, built once so `go` allocates nothing
	fn     func(i int)   // the round in flight
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
	p := &Pool{workers: workers, queues: make([]queue, workers), done: make(chan struct{}, workers)}
	p.help = p.helper
	return p
}

// Stats is a pool's telemetry snapshot.
type Stats struct {
	Workers int    `json:"workers"`
	Tasks   uint64 `json:"tasks"`
	Steals  uint64 `json:"steals"`
	Rounds  uint64 `json:"rounds"`
	Late    uint64 `json:"late"` // helpers that arrived after their round closed
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

// Wake launches the next round's helpers ahead of Run, so the time an
// idle CPU takes to pick one up overlaps the caller's serial work instead
// of the round. Helpers that see no Run within waitBound exit. A nil Pool
// ignores it.
func (p *Pool) Wake() {
	if p == nil {
		return
	}
	if w := p.round.Load(); w&phaseMask != pending {
		p.round.Store((w>>idShift+1)<<idShift | pending)
	}
	p.launch(p.workers - 1)
}

// launch starts helpers until want are alive.
func (p *Pool) launch(want int) {
	for p.live.Load() < int64(want) {
		p.live.Add(1)
		go p.help()
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
	// Publish: a Woken round keeps its id, a cold one takes the next.
	w := p.round.Load()
	id := w >> idShift
	if w&phaseMask != pending {
		id++
	}
	p.round.Store(id<<idShift | open)
	p.launch(min(p.workers, n) - 1)
	p.work(0)

	// Close (clear the open bit; a helper's join CAS on the open word now
	// fails, so the joined count is final), then wait for the joined
	// helpers only: yield while they finish, park once the bound passed.
	w = p.round.Add(^uint64(open - 1))
	for joined, start := w&joinedMask, time.Now(); joined > 0; joined-- {
		for len(p.done) == 0 && time.Since(start) < waitBound {
			runtime.Gosched()
		}
		<-p.done
	}
	p.fn = nil
	p.depth.Store(0)
}

// helper waits, yielding its P, for a round to be published and joins it
// with one CAS; it then works as worker 1, 2, … in join order and hands
// its token back. A helper that finds the round closed, or no round
// within waitBound, exits without reading fn or the ranges.
func (p *Pool) helper() {
	start := time.Now()
	for {
		w := p.round.Load()
		switch w & phaseMask {
		case open:
			if !p.round.CompareAndSwap(w, w+1) {
				continue
			}
			p.work(int(w&joinedMask) + 1)
			p.live.Add(-1) // before the token: the next Wake sees this one gone
			p.done <- struct{}{}
			return
		case pending:
			if time.Since(start) < waitBound {
				runtime.Gosched()
				continue
			}
		default:
			p.late.Add(1)
		}
		p.live.Add(-1)
		return
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
