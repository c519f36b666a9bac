package netsim

import (
	"math/rand"
	"testing"
)

// The fleet invariant checker must hold at every resolved point of a
// churning fleet run — arrivals, cross-pod flows, degrades, kills, and
// restores — and must actually detect a violated allocation.
func TestFleetSimCheckInvariants(t *testing.T) {
	topo, err := NewFleet(3, 4, 2, 4, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFleetSim(topo, 1)
	rng := rand.New(rand.NewSource(7))
	hosts := topo.Hosts()
	hostsPerPod := 4 * 4

	checks := 0
	fs.SetResolvedHook(func() {
		checks++
		if err := fs.CheckInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", checks, err)
		}
	})

	for e := 0; e < 20; e++ {
		// Degrade a rotating link; kill one mid-run; restore later.
		fs.SetLinkFraction(e%len(topo.Links), 0.5)
		if e == 8 {
			fs.SetLinkFraction(2, 0)
		}
		if e == 14 {
			fs.SetLinkFraction(2, 1)
		}
		for i := 0; i < 30; i++ {
			src := rng.Intn(len(hosts))
			dst := rng.Intn(len(hosts))
			if i%4 == 0 { // force cross-pod traffic so proxies participate
				dst = ((src/hostsPerPod+1)%3)*hostsPerPod + rng.Intn(hostsPerPod)
			}
			if src == dst {
				continue
			}
			_, _ = fs.Inject(hosts[src], hosts[dst], 5e9+5e10*rng.Float64(), rng.Uint64())
		}
		fs.Step(0.01)
	}
	if checks != 20 {
		t.Fatalf("resolved hook ran %d times, want 20", checks)
	}
	if fs.CrossFlows() == 0 && fs.ActiveFlows() == 0 {
		t.Fatal("run drained completely; invariants were never stressed")
	}

	// Sabotage: inflate one local flow's rate past its bottleneck and the
	// checker must report oversubscription (or a broken max-min if the
	// inflated rate still fits under capacity).
	for _, sh := range fs.shards {
		for _, f := range sh.activeSlots() {
			f.rate *= 1e6
			f.rate += 2 * 100e9
			if err := fs.CheckInvariants(); err == nil {
				t.Fatal("checker accepted an oversubscribed allocation")
			}
			return
		}
	}
	t.Fatal("no active local flow to sabotage")
}
