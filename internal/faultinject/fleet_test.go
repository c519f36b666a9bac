package faultinject

import "testing"

func TestFleetAgingDeterministicAndMonotone(t *testing.T) {
	a, err := NewFleetAging(42, 200, 0.01, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFleetAging(42, 200, 0.01, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 200; l++ {
		if a.decays[l] != b.decays[l] {
			t.Fatalf("link %d: same seed drew different decays", l)
		}
		prev := 1.0
		for e := 0; e < 50; e++ {
			f := a.Fraction(l, e)
			if f != b.Fraction(l, e) {
				t.Fatalf("link %d epoch %d: fraction not reproducible", l, e)
			}
			if f < 0 || f > 1 {
				t.Fatalf("link %d epoch %d: fraction %v out of range", l, e, f)
			}
			if f > prev {
				t.Fatalf("link %d epoch %d: fraction rose %v -> %v", l, e, prev, f)
			}
			if f != 0 && f < 0.7 {
				t.Fatalf("link %d epoch %d: fraction %v below floor but not dead", l, e, f)
			}
			if f == 0 && prev != 0 && prev < 0.7 {
				t.Fatalf("link %d epoch %d: died from %v which was already below floor", l, e, prev)
			}
			prev = f
		}
	}
}

func TestFleetAgingDeadAt(t *testing.T) {
	a, err := NewFleetAging(7, 500, 0.02, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 40
	deaths := 0
	for l := 0; l < 500; l++ {
		d := a.DeadAt(l, horizon)
		if d < 0 {
			for e := 0; e < horizon; e++ {
				if a.Fraction(l, e) == 0 {
					t.Fatalf("link %d: DeadAt says alive but fraction 0 at epoch %d", l, e)
				}
			}
			continue
		}
		deaths++
		if a.Fraction(l, d) != 0 {
			t.Fatalf("link %d: DeadAt=%d but fraction %v", l, d, a.Fraction(l, d))
		}
		if d > 0 && a.Fraction(l, d-1) == 0 {
			t.Fatalf("link %d: dead before its DeadAt epoch %d", l, d)
		}
	}
	if deaths == 0 {
		t.Fatal("no deaths in 500 links over 40 epochs at 2%/epoch; scenario too weak")
	}
	if m := a.MeanFraction(horizon - 1); m <= 0 || m >= 1 {
		t.Fatalf("mean fraction %v out of (0,1)", m)
	}
}

func TestFleetAgingValidation(t *testing.T) {
	for _, c := range []struct {
		links        int
		decay, floor float64
	}{
		{0, 0.01, 0.7}, {10, 0, 0.7}, {10, 1.5, 0.7}, {10, 0.01, 0}, {10, 0.01, 1},
	} {
		if _, err := NewFleetAging(1, c.links, c.decay, c.floor); err == nil {
			t.Errorf("NewFleetAging(%d, %v, %v) accepted invalid config", c.links, c.decay, c.floor)
		}
	}
}
