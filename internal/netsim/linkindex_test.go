package netsim

import (
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/sim"
)

// checkIndices asserts the link-index invariants of one graph: every
// back-position names its own entry, live entries ascend by flow ID on
// every index whose unsorted bit is clear (after a flush: on every index,
// no bit may be left set), tombstones are counted right and never exceed
// the live entries by more than one.
func checkIndices(t *testing.T, g *flowGraph, flushed bool, when string) {
	t.Helper()
	for l := range g.linkFlows {
		idx := &g.linkFlows[l]
		if flushed && idx.unsorted {
			t.Fatalf("%s: link %d still marked unsorted after a flush", when, l)
		}
		dead, last := 0, -1
		for p, ref := range idx.refs {
			if ref.pi < 0 {
				dead++
				continue
			}
			f := &g.flows.v[ref.h]
			if !g.flows.used[ref.h] || int(f.path[ref.pi]) != l || int(f.pos[ref.pi]) != p {
				t.Fatalf("%s: link %d entry %d (slot %d, path index %d) is not its flow's back-position", when, l, p, ref.h, ref.pi)
			}
			if !idx.unsorted && f.ID <= last {
				t.Fatalf("%s: link %d index out of ID order at entry %d: %d after %d", when, l, p, f.ID, last)
			}
			last = f.ID
		}
		if live := len(idx.refs) - dead; dead != idx.dead || dead > live+1 {
			t.Fatalf("%s: link %d has %d tombstones (counted %d) on %d live entries", when, l, dead, idx.dead, live)
		}
	}
	for h := range g.flows.v {
		if f := &g.flows.v[h]; g.flows.used[h] {
			for i, l := range f.links() {
				if ref := g.linkFlows[l].refs[f.pos[i]]; ref.h != handle(h) || int(ref.pi) != i {
					t.Fatalf("%s: flow %d is not at its back-position on link %d", when, f.ID, l)
				}
			}
		}
	}
}

// checkRatesEqualReference asserts bitwise equality with the global
// reference for a set of active flows (id → path, rate).
func checkRatesEqualReference(t *testing.T, capacity []float64, flows []RefFlow, when string) {
	t.Helper()
	want := MaxMinRates(capacity, flows)
	for _, st := range flows {
		if st.Rate != want[st.ID] {
			t.Fatalf("%s: flow %d rate %.17g != reference %.17g", when, st.ID, st.Rate, want[st.ID])
		}
	}
}

// TestLinkIndexOrderedUnderChurn drives both drivers through seeded
// random admit / complete / kill-and-reroute / restore sequences and
// holds the link indices to their invariants after every flush, with the
// rates they feed bit-equal to MaxMinRates.
func TestLinkIndexOrderedUnderChurn(t *testing.T) {
	t.Run("FlowSim", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			topo, err := NewFleet(2, 3, 2, 2, 100e9)
			if err != nil {
				t.Fatal(err)
			}
			hosts := topo.Hosts()
			fs := NewFlowSim(topo)
			for step := 0; step < 300; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
					_, _ = fs.StartFlow(src, dst, (0.1+rng.Float64())*1e9, rng.Uint64())
				case op < 7:
					fs.RunUntil(fs.now + sim.Time(rng.Float64()*0.02))
				case op < 9:
					fs.FailLink(rng.Intn(len(topo.Links)))
				default:
					fs.SetLinkCapacityFraction(rng.Intn(len(topo.Links)), 1)
				}
				checkIndices(t, fs.g, true, "FlowSim")
				checkRatesEqualReference(t, fs.g.capacity, refFlows(fs.activeSlots()), "FlowSim")
			}
		}
	})
	// One pod: every flow is local, so the resolved rates are the global
	// max-min allocation. Three pods add proxies, retired from two shards
	// at once, to the index churn.
	for _, pods := range []int{1, 3} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			topo, err := NewFleet(pods, 3, 2, 2, 100e9)
			if err != nil {
				t.Fatal(err)
			}
			hosts := topo.Hosts()
			fs := NewFleetSim(topo, 1)
			check := func(flushed bool, when string) {
				t.Helper()
				for _, sh := range fs.shards {
					checkIndices(t, sh.g, flushed, when)
				}
			}
			fs.SetResolvedHook(func() {
				check(true, "FleetSim resolved")
				if pods > 1 {
					return
				}
				checkRatesEqualReference(t, fs.capacity, refFlows(fs.activeSlots(0)), "FleetSim resolved")
			})
			for epoch := 0; epoch < 60; epoch++ {
				for i := rng.Intn(12); i > 0; i-- {
					src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
					_, _ = fs.Inject(src, dst, (0.2+rng.Float64())*40e9, rng.Uint64())
				}
				if rng.Intn(3) == 0 {
					fs.SetLinkFraction(rng.Intn(len(topo.Links)), 0)
					check(false, "FleetSim after a kill")
				}
				if rng.Intn(3) == 0 {
					fs.SetLinkFraction(rng.Intn(len(topo.Links)), 1)
				}
				fs.Step(0.25)
				check(true, "FleetSim after Step")
			}
			if len(fs.Records()) == 0 {
				t.Fatal("nothing completed; the scenario is too weak")
			}
		}
	}
}

// A rerouted flow keeps its old ID, so it can land in the middle (by ID)
// of an index that already holds younger flows: the append breaks the
// order and sets the link's unsorted bit, and the next flush sorts that
// one index before walking it.
func TestReroutedFlowLandsMidIndex(t *testing.T) {
	topo, err := NewFleet(1, 2, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFleetSim(topo, 1)
	g := fs.shards[0].g
	h := topo.Hosts()
	uplinkOf := func(id int) int {
		t.Helper()
		for _, f := range fs.activeSlots(0) {
			if f.ID == id {
				return int(f.path[1])
			}
		}
		t.Fatalf("flow %d is not active", id)
		return -1
	}
	// Flow 0 climbs one spine; find hashes that put flow 1 on the other
	// and flows 2, 3 back beside flow 0.
	inject := func(src, dst int, beside int, same bool) int {
		t.Helper()
		for hash := uint64(0); hash < 64; hash++ {
			var buf [maxPath]int
			path, err := topo.Path(buf[:0], h[src], h[dst], hash)
			if err != nil {
				t.Fatal(err)
			}
			if beside < 0 || (path[1] == uplinkOf(beside)) == same {
				id, err := fs.Inject(h[src], h[dst], 1e15, hash)
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
		}
		t.Fatal("no hash picks the wanted spine")
		return -1
	}
	z := inject(0, 2, -1, false)
	a := inject(0, 3, z, false)
	inject(0, 2, z, true)
	inject(0, 3, z, true)
	fs.Step(1)
	shared, victim := uplinkOf(z), uplinkOf(a)
	if shared == victim {
		t.Fatal("flow 1 did not take its own spine")
	}

	fs.SetLinkFraction(victim, 0) // flow 1 reroutes onto the shared uplink
	if got := uplinkOf(a); got != shared {
		t.Fatalf("flow %d rerouted onto link %d, want the shared uplink %d", a, got, shared)
	}
	if !g.linkFlows[shared].unsorted {
		t.Fatal("an old ID appended past younger ones did not mark the index unsorted")
	}
	checkIndices(t, g, false, "after the reroute")

	fs.Step(1)
	checkIndices(t, g, true, "after the flush")
	var ids []int
	for _, f := range g.indexed(shared) {
		ids = append(ids, f.ID)
		if f.rate != 25e9 {
			t.Errorf("flow %d rate %g on the shared uplink, want a quarter of 100G", f.ID, f.rate)
		}
	}
	if !slices.Equal(ids, []int{0, 1, 2, 3}) {
		t.Fatalf("shared uplink index holds %v after the flush, want [0 1 2 3]", ids)
	}
}
