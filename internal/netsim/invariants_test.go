package netsim

import (
	"math/rand"
	"strings"
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

	// An arrival no phase A has admitted yet is outside the allocation the
	// checker is meant to see.
	if _, err := fs.Inject(hosts[0], hosts[1], 1e9, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "did not admit") {
		t.Fatalf("checker let a pending arrival through: %v", err)
	}
	fs.admitAll()

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

// TestCrossKeysAcrossReroutes drives every way a reroute changes the
// cross-key list phase B walks, and CheckInvariants (from the resolved
// hook) must find it holding exactly the live cross flows, once each, in
// ascending ID at every following barrier. The topology is one pod of
// two leaves whose spine A is pod 0's while spines B and C are numbered
// into pod 1, so a flow between the leaves is local over A and cross over
// B or C, and killing spine uplinks picks which.
func TestCrossKeysAcrossReroutes(t *testing.T) {
	topo := &Topology{}
	l0, l1 := topo.addNode(NodeEdge, 0), topo.addNode(NodeEdge, 0)
	a, b, c := topo.addNode(NodeAgg, 0), topo.addNode(NodeAgg, 1), topo.addNode(NodeAgg, 1)
	for _, leaf := range []int{l0, l0, l1, l1} {
		topo.addLink(topo.addNode(NodeHost, 0), leaf, TierHostToR, 100e9)
	}
	uplink := map[int]int{} // spine → its link to l0
	for _, s := range []int{a, b, c} {
		uplink[s] = len(topo.Links)
		topo.addLink(s, l0, TierToRAgg, 100e9)
		topo.addLink(s, l1, TierToRAgg, 100e9)
	}
	topo.index()
	h := topo.Hosts()

	fs := NewFleetSim(topo, 1)
	steps := 0
	fs.SetResolvedHook(func() {
		if err := fs.CheckInvariants(); err != nil {
			t.Fatalf("barrier %d: %v", steps, err)
		}
	})
	step := func() {
		t.Helper()
		fs.Step(0.1)
		steps++
	}
	inject := func(src, dst int, bits float64, hash uint64) int {
		t.Helper()
		id, err := fs.Inject(h[src], h[dst], bits, hash)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	wantCross := func(n int, when string) {
		t.Helper()
		if got := fs.CrossFlows(); got != n {
			t.Fatalf("%s: %d cross flows, want %d", when, got, n)
		}
	}

	// l0's uplinks in ECMP order are A, B, C and hash%3 picks one. The
	// reroute hash is the flow's hash + 1 and its retries step by a
	// multiple of 3, so a flow over A can only reroute over B, B over C
	// and C over A. The short cross flow completes at the first barrier,
	// so its proxies leave in the drain while the others run on.
	inject(0, 2, 1e15, 0) // flow 0: local over A
	inject(1, 3, 1e15, 2) // flow 1: cross over C
	inject(1, 2, 1e8, 1)  // flow 2: cross over B, done in the first epoch
	wantCross(2, "admitted")
	step()
	wantCross(1, "after the short flow completed")

	// local → cross: flow 0 loses A and comes back over B, an ID below the
	// largest appended.
	fs.SetLinkFraction(uplink[a], 0)
	wantCross(2, "after A died")
	if !fs.crossRepair {
		t.Fatal("a local flow re-admitted as cross below the newest ID did not mark the list for repair")
	}
	step()

	// cross → cross, the newest flow: flow 0 stalls (its reroute is B
	// again), then flow 3 leaves B for C with its own ID in its own slot,
	// so its key comes back beside its stale self — an ID equal to the
	// largest appended must still dedup.
	newest := inject(1, 2, 1e15, 1)
	step()
	fs.SetLinkFraction(uplink[b], 0)
	wantCross(2, "after B died")
	if !fs.crossRepair || len(fs.crossKeys) <= fs.CrossFlows()+1 {
		t.Fatalf("rerouting flow %d (the newest) left the list unmarked or without its stale key: %d keys, %d cross flows, repair %t",
			newest, len(fs.crossKeys), fs.CrossFlows(), fs.crossRepair)
	}
	step()

	// cross → local: with A back and C dead flow 1 turns around at A;
	// flow 3's reroute is C again, so it stalls.
	fs.SetLinkFraction(uplink[a], 1)
	fs.SetLinkFraction(uplink[c], 0)
	wantCross(0, "after C died")
	step()
	if len(fs.crossKeys) != 0 {
		t.Fatalf("%d cross keys left with no cross flow", len(fs.crossKeys))
	}
	if _, stalled := fs.FlowTotals(); steps != 5 || fs.ActiveFlows() != 1 || stalled != 2 {
		t.Fatalf("%d barriers, %d active and %d stalled flows: want 5, flow 1 and flows 0 and 3", steps, fs.ActiveFlows(), stalled)
	}

	// The check must see a key the list should not hold.
	fs.crossKeys = append(fs.crossKeys, flowKey(newest, 0))
	if err := fs.CheckInvariants(); err == nil {
		t.Fatal("checker accepted a key for a flow that is not cross")
	}
}
