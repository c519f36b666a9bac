package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every task must run exactly once, whatever the worker count or the
// steal pattern — including rounds smaller than the pool (n < workers)
// and the empty round.
func TestPoolRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)} {
		for _, n := range []int{0, 1, 2, 5, 6, 64, 1000} {
			p := New(workers)
			hits := make([]atomic.Int32, n)
			p.Run(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
			st := p.Stats()
			want := Stats{Workers: workers}
			if n > 0 {
				want.Tasks, want.Rounds = uint64(n), 1
			}
			st.Steals, st.Late = 0, 0 // schedule-dependent
			if st != want {
				t.Fatalf("workers=%d n=%d: stats %+v, want %+v", workers, n, st, want)
			}
		}
	}
}

// A nil pool is the inline loop (what a Workers: 1 phy.Link holds).
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	var order []int
	p.Run(4, func(i int) { order = append(order, i) })
	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Fatalf("nil pool ran %v, want 0..3 in order", order)
	}
}

// Skewed task costs force stealing: a pool where one range is much
// heavier than the rest must still finish everything, and the steal
// counter must see it (with more workers than its own queue's tasks,
// someone must steal).
func TestPoolStealsUnderSkew(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// Steals need real parallelism to be guaranteed; with one core the
		// first worker can drain every queue before the others wake.
		t.Skip("needs GOMAXPROCS >= 2 for guaranteed steals")
	}
	p := New(4)
	var total atomic.Int64
	p.Run(64, func(i int) {
		// The first range's tasks spin; the rest are instant, so those
		// workers run dry and steal.
		if i < 16 {
			for j := 0; j < 1<<16; j++ {
				total.Add(1)
			}
		}
		total.Add(1)
	})
	if p.Stats().Steals == 0 {
		t.Error("skewed round recorded no steals")
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if got := New(0).workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).workers = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(3).workers; got != 3 {
		t.Errorf("New(3).workers = %d", got)
	}
}

// The steady-state Exchange path holds its task func and calls Wake and
// Run once per superframe: neither may touch the heap.
func TestRunZeroAllocs(t *testing.T) {
	var sink [100]int
	held := func(i int) { sink[i]++ }
	for _, workers := range []int{2, 4} {
		p := New(workers)
		if avg := testing.AllocsPerRun(200, func() { p.Run(len(sink), held) }); avg != 0 {
			t.Errorf("workers=%d: Run allocates %.1f times per call, want 0", workers, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { p.Wake(); p.Run(len(sink), held) }); avg != 0 {
			t.Errorf("workers=%d: Wake+Run allocates %.1f times per call, want 0", workers, avg)
		}
	}
}

// A task of one pool running a Run on another pool (registry →
// experiment → phy.Exchange) must complete, oversubscribed or not: the
// caller always makes progress as worker 0, so nesting cannot deadlock.
func TestRunNested(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) + 3
	outer := New(workers)
	const outerN, innerN = 12, 50
	var hits [outerN][innerN]atomic.Int32
	outer.Wake()
	outer.Run(outerN, func(i int) {
		inner := New(workers)
		inner.Wake()
		inner.Run(innerN, func(j int) { hits[i][j].Add(1) })
	})
	for i := range hits {
		for j := range hits[i] {
			if got := hits[i][j].Load(); got != 1 {
				t.Fatalf("task (%d,%d) ran %d times", i, j, got)
			}
		}
	}
}

// Many independent pools driven at once (every fleetd link stepping its
// own stack, every registry generator building its own FleetSim) share
// nothing: each sees every one of its indices exactly once.
func TestRunManyPoolsConcurrently(t *testing.T) {
	const drivers, rounds, n = 64, 20, 37
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := New(1 + d%4)
			hits := make([]atomic.Int32, n)
			fn := func(i int) { hits[i].Add(1) }
			for r := 0; r < rounds; r++ {
				p.Run(n, fn)
			}
			for i := range hits {
				if got := hits[i].Load(); got != rounds {
					t.Errorf("driver %d: task %d ran %d times, want %d", d, i, got, rounds)
				}
			}
			if st := p.Stats(); st.Tasks != rounds*n || st.Rounds != rounds || st.Depth != 0 {
				t.Errorf("driver %d: stats %+v", d, st)
			}
		}()
	}
	wg.Wait()
}

// Back-to-back rounds of every size, Woken or cold, must each run every
// index exactly once with their own fn: a task tags its (round, index)
// into a slot only that round owns, so a helper that ran an index of a
// round it did not join — a late helper of round r running round r+1's
// ranges with round r's fn, or the reverse — shows up as a slot written
// twice or never.
func TestRoundProtocolStress(t *testing.T) {
	const rounds = 10000
	for _, workers := range []int{2, 4} {
		p := New(workers)
		sizes := []int{0, 1, workers - 1, workers, 100}
		slots := make([][]atomic.Uint64, rounds)
		var twice atomic.Int64
		wantTasks, wantRounds := 0, 0
		for r := range slots {
			n := sizes[r%len(sizes)]
			slots[r] = make([]atomic.Uint64, n)
			own := slots[r]
			if r%3 != 0 {
				p.Wake()
			}
			p.Run(n, func(i int) {
				if i == n-1 {
					runtime.Gosched() // the last range's owner is mid-task at the close
				}
				if !own[i].CompareAndSwap(0, uint64(r)<<32|uint64(i)+1) {
					twice.Add(1)
				}
			})
			for i := range own {
				if own[i].Load() != uint64(r)<<32|uint64(i)+1 {
					t.Fatalf("workers=%d round %d (n=%d): slot %d holds %#x after the barrier", workers, r, n, i, own[i].Load())
				}
			}
			if n > 0 {
				wantTasks, wantRounds = wantTasks+n, wantRounds+1
			}
		}
		// A straggler writing into a finished round would land after its
		// check above: look again once every helper is gone.
		for deadline := time.Now().Add(time.Second); p.live.Load() != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d helpers still live a second after the last round", workers, p.live.Load())
			}
			runtime.Gosched()
		}
		if n := twice.Load(); n != 0 {
			t.Fatalf("workers=%d: %d tasks ran twice", workers, n)
		}
		for r := range slots {
			for i := range slots[r] {
				if slots[r][i].Load() != uint64(r)<<32|uint64(i)+1 {
					t.Fatalf("workers=%d round %d: slot %d rewritten after its barrier", workers, r, i)
				}
			}
		}
		st := p.Stats()
		if st.Tasks != uint64(wantTasks) || st.Rounds != uint64(wantRounds) || st.Depth != 0 {
			t.Fatalf("workers=%d: stats %+v, want %d tasks in %d rounds", workers, st, wantTasks, wantRounds)
		}
	}
}

// A Wake that no Run follows leaves nothing behind: its helpers give up
// within the bound, so the goroutine count returns to where it was, and
// the Run that comes later still runs every task once.
func TestWakeWithoutRun(t *testing.T) {
	// A busy host can hold a spinning helper off its CPU past the bound,
	// so one clean attempt of five passes; every attempt must drain.
	const attempts = 5
	for a := 0; a < attempts; a++ {
		base := runtime.NumGoroutine()
		p := New(4)
		start := time.Now()
		p.Wake()
		for runtime.NumGoroutine() > base {
			if time.Since(start) > time.Second {
				t.Fatalf("Wake left %d goroutines behind for a second", runtime.NumGoroutine()-base)
			}
			time.Sleep(20 * time.Microsecond)
		}
		drained := time.Since(start)
		hits := make([]atomic.Int32, 100)
		p.Run(len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("Run after an unused Wake: task %d ran %d times", i, got)
			}
		}
		if drained <= 2*waitBound {
			return
		}
	}
	t.Fatalf("no attempt of %d returned to the baseline goroutine count within %v", attempts, 2*waitBound)
}
