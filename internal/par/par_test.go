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
			st.Steals, st.Late, st.PickupNs = 0, 0, 0 // schedule-dependent
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
	// The close of an inner round hands the board back to the outer one,
	// and the outer close to what was there before its Wake (a one-task
	// outer round runs on this goroutine alone, so nothing else announces).
	before, one, inner := board.Load(), New(2), New(workers)
	one.Wake()
	one.Run(1, func(int) {
		inner.Run(innerN, func(int) {})
		if got := board.Load(); got != one {
			t.Errorf("board holds %p after the inner round, want the outer pool %p", got, one)
		}
	})
	if got := board.Load(); got != before {
		t.Errorf("board holds %p after the outer round, want %p from before it", got, before)
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
		// check above: look again once every helper is parked.
		waitForNoAwakeHelpers(t)
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

// A Wake that no Run follows leaves nothing awake: its helpers park
// within the bound, and the Run that comes later still runs every task
// once.
func TestWakeWithoutRun(t *testing.T) {
	// A busy host can hold a spinning helper off its CPU past the bound,
	// so one clean attempt of five passes; every attempt must park.
	const attempts = 5
	for a := 0; a < attempts; a++ {
		waitForNoAwakeHelpers(t)
		p := New(4)
		start := time.Now()
		p.Wake()
		waitForNoAwakeHelpers(t)
		parked := time.Since(start)
		hits := make([]atomic.Int32, 100)
		p.Run(len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("Run after an unused Wake: task %d ran %d times", i, got)
			}
		}
		if parked <= 2*spinBound {
			return
		}
	}
	t.Fatalf("no attempt of %d had every helper parked within %v of a Wake", attempts, 2*spinBound)
}

// Rounds that alternate between two pools — the storm's shape, the
// scenario round then FleetSim's shard phases — share the process's
// helpers: a helper that finished a round of one pool joins the next
// round of the other, but only as a worker that round has a range for
// (never past min(workers, n) − 1 joined, so never past the smaller
// pool's workers), and the set never grows past the larger pool's
// workers − 1 awake.
func TestRoundsAlternateBetweenPools(t *testing.T) {
	waitForNoAwakeHelpers(t)
	pools := [2]*Pool{New(4), New(2)}
	sizes := []int{0, 1, 2, 3, 100}
	const most = 3 // the 4-worker pool's helpers
	var over atomic.Int64
	for r := 0; r < 4000; r++ {
		p, n := pools[r%2], sizes[r/2%len(sizes)]
		hits := make([]atomic.Int32, n)
		p.Run(n, func(i int) {
			hits[i].Add(1)
			if h := awakeHelpers(); h > most {
				over.Store(h)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("round %d (workers=%d n=%d): task %d ran %d times", r, p.workers, n, i, got)
			}
		}
		// The closed word keeps its joined count until the pool's next round.
		if joined := int(p.round.Load() & joinedMask); n > 0 && joined > min(p.workers, n)-1 {
			t.Fatalf("round %d (workers=%d n=%d): %d helpers joined", r, p.workers, n, joined)
		}
		if h := max(awakeHelpers(), over.Load()); h > most {
			t.Fatalf("round %d: %d helpers awake, want at most %d", r, h, most)
		}
	}
}

// A Run nested in a task that a helper is working — the registry's
// helper running E24, whose FleetSim and link pools Run inside it — gets
// a helper of its own: a helper busy in the outer round does not count
// toward the inner round's shortfall.
func TestNestedRunOnHelperGetsHelper(t *testing.T) {
	// The outer caller holds index 0 until a helper has taken index 1; on
	// a busy host that can take past the deadline, and then the caller
	// runs index 1 itself. One attempt of five with the nested Run on a
	// helper decides.
	const attempts = 5
	for a := 0; a < attempts; a++ {
		waitForNoAwakeHelpers(t)
		outer, inner := New(2), New(2)
		var taken, onHelper, together atomic.Bool
		outer.Run(2, func(i int) {
			if i == 0 {
				for deadline := time.Now().Add(time.Second); !taken.Load() && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				onHelper.Store(taken.Load())
				return
			}
			taken.Store(true)
			var in atomic.Int32
			inner.Run(2, func(int) {
				// The second task starting while the first waits: someone
				// other than this helper and the parked outer caller joined.
				if in.Add(1) > 1 {
					return
				}
				for deadline := time.Now().Add(time.Second); in.Load() < 2 && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				together.Store(in.Load() == 2)
			})
		})
		if onHelper.Load() {
			if !together.Load() {
				t.Fatal("a Run nested on a busy helper got no helper: its two tasks never ran at once")
			}
			return
		}
	}
	t.Skipf("no attempt of %d had a helper take the outer round's second task", attempts)
}

// A process has no helper awake spinBound after its last round: the
// helpers a Run woke, joined or not, spin at most that long for another
// round and then park.
func TestHelpersParkAfterRun(t *testing.T) {
	// A busy host can hold a spinning helper off its CPU past the bound,
	// so one clean attempt of five passes; every attempt must park.
	const attempts = 5
	p := New(4)
	for a := 0; a < attempts; a++ {
		waitForNoAwakeHelpers(t)
		p.Run(100, func(i int) {
			// Hold the round until a helper joined: a helper still queued
			// behind this goroutine when the round closes would join none.
			for start := time.Now(); i == 0 && p.round.Load()&joinedMask == 0 && time.Since(start) < 100*time.Millisecond; {
				runtime.Gosched()
			}
			for start := time.Now(); time.Since(start) < 10*time.Microsecond; {
			}
		})
		start, joined := time.Now(), p.round.Load()&joinedMask > 0
		for awakeHelpers() != 0 {
			if time.Since(start) > time.Second {
				t.Fatalf("Run left %d helpers awake for a second", awakeHelpers())
			}
			runtime.Gosched() // a sleep here can overshoot by a millisecond
		}
		if joined && time.Since(start) <= 2*spinBound {
			return
		}
	}
	t.Fatalf("no attempt of %d had a helper join its Run and every helper park within %v", attempts, 2*spinBound)
}

// Parked helpers are reused: 1,000 Runs, each after a gap longer than
// spinBound in which every helper parked, start at most workers − 1
// goroutines in all, where helpers that exited would cost one per Run.
func TestParkedHelpersAreReused(t *testing.T) {
	const workers, rounds = 4, 1000
	p := New(workers)
	before := launched()
	var hits atomic.Int64
	fn := func(int) { hits.Add(1) }
	for r := 0; r < rounds; r++ {
		time.Sleep(spinBound)
		waitForNoAwakeHelpers(t)
		p.Run(100, fn)
	}
	if got := hits.Load(); got != rounds*100 {
		t.Fatalf("%d Runs of 100 tasks ran %d", rounds, got)
	}
	if n := launched() - before; n > workers-1 {
		t.Fatalf("%d Runs after parking gaps started %d helpers, want at most %d", rounds, n, workers-1)
	}
}

// Spinning helpers never take the P that a readied caller needs: 200
// Runs of a pool wider than the Ps, each right after a sleep (the caller
// is readied while the last round's helpers may spin), must average under
// spinBound a round, sleep included. A helper that spins past the cap
// holds the caller off its P until it parks, spinBound after its round.
func TestSpinnersLeaveTheCallerAP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var sink [64]uint64
	task := func(i int) {
		x := sink[i]
		for j := 0; j < 1000; j++ {
			x = x*6364136223846793005 + 1
		}
		sink[i] = x
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		waitForNoAwakeHelpers(t)
		const rounds = 200
		p, start := New(4), time.Now()
		for r := 0; r < rounds; r++ {
			time.Sleep(100 * time.Microsecond)
			p.Run(len(sink), task)
		}
		if avg := time.Since(start) / rounds; avg > spinBound {
			t.Errorf("GOMAXPROCS=%d: a sleep and a Run of New(4) took %v on average, want at most %v", procs, avg, spinBound)
		}
	}
}

// A round a helper joined adds its publish-to-join time to PickupNs; a
// round the caller runs alone adds nothing.
func TestPickupCountsJoinedRounds(t *testing.T) {
	p := New(2)
	p.Run(1, func(int) {})
	if got := p.Stats().PickupNs; got != 0 {
		t.Fatalf("a one-task round, which no helper may join, added %d ns of pickup", got)
	}
	// The caller holds the round until a helper joined, for up to a
	// second: on a busy host the unparked helper may come later than that.
	const attempts = 5
	for a := 0; a < attempts; a++ {
		waitForNoAwakeHelpers(t) // the helper is parked, so its pickup takes time
		before := p.Stats().PickupNs
		p.Run(2, func(i int) {
			for deadline := time.Now().Add(time.Second); i == 0 && p.round.Load()&joinedMask == 0 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		})
		if p.round.Load()&joinedMask == 0 {
			continue
		}
		if got := p.Stats().PickupNs; got <= before {
			t.Fatalf("a joined round left PickupNs at %d, want above %d", got, before)
		}
		return
	}
	t.Skipf("no attempt of %d had a helper join its round", attempts)
}

// launched is the process's count of helpers started; none exits.
func launched() uint64 { return helpers.Load() / liveHelper }

// awakeHelpers counts the helpers that are not parked: spinning, working
// a round, or unparked and not yet at the board.
func awakeHelpers() int64 {
	h := helpers.Load()
	return int64(h/liveHelper) - int64(h/parkedHelper&countMask)
}

// waitForNoAwakeHelpers waits for the helpers an earlier round woke to park.
func waitForNoAwakeHelpers(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); awakeHelpers() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still awake after a second", awakeHelpers())
		}
		time.Sleep(20 * time.Microsecond)
	}
}
