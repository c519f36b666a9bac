package netsim

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/sim"
)

// Capacity-conservation and max-min properties of the fluid flow
// simulator, checked from inside the package so the test can read the
// solver's actual per-flow rates. At every checkpoint:
//
//  1. Conservation: on every link, the rates of the flows crossing it
//     sum to no more than the link's current capacity.
//  2. Bottleneck saturation (max-min): every active flow has at least
//     one saturated link on its path — otherwise the progressive-filling
//     allocation could raise it, which would not be max-min fair.
func TestFlowSimCapacityConservation(t *testing.T) {
	topo, err := NewFatTree(4, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(topo)
	rng := rand.New(rand.NewSource(43))
	hosts := topo.Hosts()

	check := func(when string) {
		t.Helper()
		sumRates := make([]float64, len(fs.g.capacity))
		for _, f := range fs.activeSlots() {
			for _, l := range f.links() {
				sumRates[l] += f.rate
			}
		}
		for l, sum := range sumRates {
			if cap := fs.g.capacity[l]; sum > cap*(1+1e-9)+1 {
				t.Fatalf("%s: link %d oversubscribed: %.3g bps allocated on %.3g bps capacity", when, l, sum, cap)
			}
		}
		for _, f := range fs.activeSlots() {
			saturated := false
			for _, l := range f.links() {
				if sumRates[l] >= fs.g.capacity[l]*(1-1e-9)-1 {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Fatalf("%s: flow %d (rate %.3g) has no saturated link on its path — allocation is not max-min",
					when, f.ID, f.rate)
			}
		}
	}

	// Phase 1: a burst of flows between random host pairs.
	for i := 0; i < 40; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		if _, err := fs.StartFlow(src, dst, 1e9+rng.Float64()*1e10, rng.Uint64()); err != nil {
			t.Fatal(err)
		}
		check("after arrival")
	}

	// Phase 2: let some flows complete, checking at each event.
	for i := 0; i < 30 && fs.fireNext(sim.Time(math.Inf(1))); i++ {
		check("after completion")
	}

	// Phase 3: degrade and restore random links (the MAC bridge's view of
	// PHY sparing), re-checking the invariants after each capacity change.
	for i := 0; i < 10; i++ {
		l := rng.Intn(len(fs.g.capacity))
		fs.SetLinkCapacityFraction(l, []float64{0.5, 0.96, 0}[rng.Intn(3)])
		check("after degrade")
		fs.SetLinkCapacityFraction(l, 1)
		check("after restore")
	}

	// Drain: every flow must eventually finish once capacity is restored,
	// and no record may show a negative completion time.
	fs.Run()
	if n := fs.active; n != 0 {
		t.Fatalf("%d flows still active after drain", n)
	}
	for _, r := range fs.Records() {
		if r.FCT() < 0 {
			t.Fatalf("flow %d has negative FCT %v", r.ID, r.FCT())
		}
	}
}
