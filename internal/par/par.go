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
	"sync"
	"sync/atomic"
)

// Pool runs indexed tasks across a fixed number of workers. The caller
// of Run is worker 0 and the helpers live only for that Run, so an idle
// Pool owns no goroutines. One Run at a time per Pool; a task may Run on
// a different Pool (registry → experiment → phy.Exchange nests so).
type Pool struct {
	workers int

	// Lifetime tasks executed, tasks stolen from another worker's range,
	// barrier rounds run, and the size of the round in flight.
	tasks  atomic.Uint64
	steals atomic.Uint64
	rounds atomic.Uint64
	depth  atomic.Int64

	fn      func(i int) // the round in flight
	wg      sync.WaitGroup
	queues  []queue
	helpers []func() // helpers[w-1] runs worker w; built once so `go` allocates nothing
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
	p := &Pool{workers: workers, queues: make([]queue, workers)}
	for w := 1; w < workers; w++ {
		p.helpers = append(p.helpers, func() {
			p.work(w)
			p.wg.Done()
		})
	}
	return p
}

// Stats is a pool's telemetry snapshot.
type Stats struct {
	Workers int    `json:"workers"`
	Tasks   uint64 `json:"tasks"`
	Steals  uint64 `json:"steals"`
	Rounds  uint64 `json:"rounds"`
	Depth   int64  `json:"depth"`
}

// Stats reads the counters; safe while a Run is in flight.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers: p.workers,
		Tasks:   p.tasks.Load(),
		Steals:  p.steals.Load(),
		Rounds:  p.rounds.Load(),
		Depth:   p.depth.Load(),
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
	// them one longer; with n < workers the first n workers get one task
	// each and only they are started.
	per, extra := n/p.workers, n%p.workers
	for w := range p.queues {
		p.queues[w].next.Store(int64(w*per + min(w, extra)))
		p.queues[w].hi = int64((w+1)*per + min(w+1, extra))
	}
	helpers := p.helpers[:min(p.workers, n)-1]
	p.wg.Add(len(helpers))
	for _, helper := range helpers {
		go helper()
	}
	p.work(0)
	p.wg.Wait()
	p.fn = nil
	p.depth.Store(0)
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
