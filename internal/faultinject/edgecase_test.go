package faultinject

import (
	"math"
	"strings"
	"testing"

	"mosaic/internal/eventlog"
)

// Degenerate event shapes must be rejected at validation, not limp
// through the supervisor: a zero-duration burst would save-and-restore the
// same BER in one step (a no-op that still logs an injection), and a
// zero-duration aging ramp divides by zero in the progress computation.
func TestValidateDegenerateEvents(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		want string // substring of the error, "" for valid
	}{
		{"zero-duration burst", Event{Kind: KindBurst, BER: 1e-4, Duration: 0}, "duration > 0"},
		{"negative-duration burst", Event{Kind: KindBurst, BER: 1e-4, Duration: -3}, "duration > 0"},
		{"zero-duration aging", Event{Kind: KindAging, BER: 1e-3, Duration: 0}, "duration > 0"},
		{"burst at BER ceiling", Event{Kind: KindBurst, BER: 0.5, Duration: 2}, ""},
		{"burst above BER ceiling", Event{Kind: KindBurst, BER: 0.5000001, Duration: 2}, "ber <= 0.5"},
		{"zero-span correlated", Event{Kind: KindCorrelated, Span: 0}, "span >= 1"},
		{"single-channel correlated", Event{Kind: KindCorrelated, Span: 1}, ""},
	}
	for _, tc := range cases {
		err := tc.e.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: validated", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}

	// The same rejection must hold at the JSON boundary.
	bad := `{"events":[{"at":0,"kind":"burst","channel":1,"ber":1e-4,"duration":0}]}`
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Fatal("zero-duration burst decoded")
	}
}

// Overlapping correlated windows kill the union of their spans exactly
// once each: re-killing a dead channel is idempotent, channels outside
// both spans stay alive, and every event still reports via OnInject.
func TestOverlappingCorrelatedWindows(t *testing.T) {
	link := soakLink(t, 2, 1)
	sched := Schedule{Events: []Event{
		{At: 0, Kind: KindCorrelated, Channel: 2, Span: 4}, // kills 2..5
		{At: 0, Kind: KindCorrelated, Channel: 4, Span: 4}, // kills 4..7 (2 overlap)
		{At: 1, Kind: KindCorrelated, Channel: 5, Span: 3}, // kills 5..7, fully inside
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	var log eventlog.Log
	a := Supervise(link, &log, nil)
	a.Load(sched, 0)
	var injected int
	a.OnInject = func(Event) { injected++ }
	a.Begin(0)
	a.Begin(1)
	if injected != 3 {
		t.Fatalf("injected %d events, want all 3 despite overlap", injected)
	}
	for ch := 0; ch < 12; ch++ {
		dead := ch >= 2 && ch <= 7
		if link.ChannelDead(ch) != dead {
			t.Errorf("channel %d dead=%v, want %v", ch, !dead, dead)
		}
	}

	// A full soak over the overlapping windows must stay well-formed:
	// with 2 spares against 6 unique kills the link degrades, and the
	// remap log never names a channel twice for the same failure.
	res := runSoak(t, soakLink(t, 2, 1), sched, 20, 0)
	if res.Remaps != 6 {
		t.Fatalf("remaps = %d, want 6 (union of overlapping spans)", res.Remaps)
	}
}

// A capacity fraction exactly at the sparing floor is alive: the dead
// test is strictly below the floor, and DeadAt must agree — it names
// the first epoch reported as 0, even when the closed-form seed epoch
// lands on the still-alive boundary.
func TestFleetAgingFloorExactlyAtThreshold(t *testing.T) {
	ref, err := NewFleetAging(7, 4, 0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := ref.decays[0]
	for e := 3; e <= 12; e++ {
		floor := math.Exp(-d * float64(e))
		fa, err := NewFleetAging(7, 4, 0.05, floor)
		if err != nil {
			t.Fatal(err)
		}
		if got := fa.Fraction(0, e); got != floor {
			t.Fatalf("e=%d: Fraction at exact floor = %v, want alive at %v", e, got, floor)
		}
		if got := fa.Fraction(0, e+1); got != 0 {
			t.Fatalf("e=%d: Fraction one epoch past the floor = %v, want 0", e, got)
		}
		dead := fa.DeadAt(0, 1000)
		if dead != e+1 {
			t.Fatalf("e=%d: DeadAt = %d, want %d (epoch at the floor is alive)", e, dead, e+1)
		}
		if fa.Fraction(0, dead) != 0 || fa.Fraction(0, dead-1) == 0 {
			t.Fatalf("e=%d: DeadAt=%d is not the first dead epoch", e, dead)
		}
	}
}

// DeadAt's two boundary contracts away from the exact-floor case: a
// horizon cutting the death epoch off reports survival, and the epoch
// before death is always alive.
func TestFleetAgingDeadAtHorizon(t *testing.T) {
	fa, err := NewFleetAging(3, 16, 0.2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < fa.Links; l++ {
		dead := fa.DeadAt(l, 1<<20)
		if dead < 0 {
			continue // effectively immortal at this horizon
		}
		if fa.Fraction(l, dead) != 0 {
			t.Fatalf("link %d: Fraction(DeadAt=%d) = %v, want 0", l, dead, fa.Fraction(l, dead))
		}
		if dead > 0 && fa.Fraction(l, dead-1) == 0 {
			t.Fatalf("link %d: dead before DeadAt=%d", l, dead)
		}
		if got := fa.DeadAt(l, dead); got != -1 {
			t.Fatalf("link %d: DeadAt with horizon=%d = %d, want -1 (death at the horizon is outside it)", l, dead, got)
		}
		if got := fa.DeadAt(l, dead+1); got != dead {
			t.Fatalf("link %d: DeadAt with horizon=%d = %d, want %d", l, dead+1, got, dead)
		}
	}
}
