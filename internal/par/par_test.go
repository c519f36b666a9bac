package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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
			st.Steals = 0 // schedule-dependent
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

// The steady-state Exchange path holds its task func and calls Run once
// per superframe: that must not touch the heap.
func TestRunZeroAllocs(t *testing.T) {
	var sink [100]int
	held := func(i int) { sink[i]++ }
	for _, workers := range []int{2, 4} {
		p := New(workers)
		if avg := testing.AllocsPerRun(200, func() { p.Run(len(sink), held) }); avg != 0 {
			t.Errorf("workers=%d: Run allocates %.1f times per call, want 0", workers, avg)
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
	outer.Run(outerN, func(i int) {
		New(workers).Run(innerN, func(j int) { hits[i][j].Add(1) })
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
