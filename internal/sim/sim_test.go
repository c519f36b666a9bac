package sim

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestAfterNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	e.After(1, func() {
		hits = append(hits, e.Now())
		e.After(2, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	cancel := e.Schedule(1, func() { fired = true })
	cancel()
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Canceling after run is a no-op.
	cancel()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 3 {
		t.Errorf("now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 10 {
		t.Errorf("now = %v, want 10 (deadline)", e.Now())
	}
}

func TestRunUntilWithCanceled(t *testing.T) {
	e := NewEngine(1)
	c := e.Schedule(1, func() { t.Error("canceled fired") })
	c()
	e.Schedule(2, func() {})
	e.RunUntil(5)
	if e.Now() != 5 {
		t.Errorf("now = %v", e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.RNG("flows").Int63() != b.RNG("flows").Int63() {
			t.Fatal("same seed, same stream name: sequences differ")
		}
	}
	// Different names are independent streams.
	c := NewEngine(42)
	d := NewEngine(42)
	_ = c.RNG("x").Int63()
	if c.RNG("y").Int63() != d.RNG("y").Int63() {
		t.Fatal("stream y perturbed by draws from stream x")
	}
}

func TestRNGDifferentSeeds(t *testing.T) {
	a := NewEngine(1)
	b := NewEngine(2)
	same := 0
	for i := 0; i < 20; i++ {
		if a.RNG("s").Int63() == b.RNG("s").Int63() {
			same++
		}
	}
	if same == 20 {
		t.Error("different seeds produced identical streams")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{2.5, "2.5s"},
		{3e-3, "3ms"},
		{4e-6, "4us"},
		{5e-9, "5ns"},
		{0, "0s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.t), got, c.want)
		}
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, func() {})
		e.Step()
	}
}
