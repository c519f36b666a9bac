package netsim

import (
	"slices"
	"testing"
)

// Regression: a link kill that strands several flows must append their
// Stalled records in ascending flow-ID order. The pre-fix code iterated
// the active map directly, so with four stranded flows the record order
// was whatever the runtime's map hashing produced; 50 fresh simulations
// make a map-order leak essentially certain to surface.
func TestRerouteStalledRecordOrderDeterministic(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		topo, err := NewLeafSpine(2, 1, 4, 100e9)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFlowSim(topo)
		hosts := topo.Hosts()
		// Four flows into h0; its single access link is their only route.
		for _, src := range []int{hosts[4], hosts[5], hosts[6], hosts[1]} {
			if _, err := fs.StartFlow(src, hosts[0], 1e9, 7); err != nil {
				t.Fatal(err)
			}
		}
		fs.FailLink(0) // h0's access link: all four flows stall
		recs := fs.Records()
		if len(recs) != 4 {
			t.Fatalf("iter %d: want 4 stalled records, got %d", iter, len(recs))
		}
		for i, r := range recs {
			if !r.Stalled {
				t.Fatalf("iter %d: record %d not stalled", iter, i)
			}
			if r.ID != i {
				t.Fatalf("iter %d: stalled records out of ID order: got %d at position %d", iter, r.ID, i)
			}
		}
	}
}

// Regression: two identical flows on disjoint paths finish at the same
// instant and must be recorded in flow-ID order, not completion-scan map
// order. Pre-fix, reschedule's `at < nextAt` comparison let whichever
// flow the map yielded first win the tie.
func TestCompletionTieBreakDeterministic(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		topo, err := NewLeafSpine(2, 1, 2, 100e9)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFlowSim(topo)
		hosts := topo.Hosts()
		// h0→h1 stays on leaf 0, h2→h3 on leaf 1: fully disjoint links,
		// identical sizes, identical completion times.
		if _, err := fs.StartFlow(hosts[0], hosts[1], 1e9, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.StartFlow(hosts[2], hosts[3], 1e9, 3); err != nil {
			t.Fatal(err)
		}
		fs.Run()
		recs := fs.Records()
		if len(recs) != 2 {
			t.Fatalf("iter %d: want 2 records, got %d", iter, len(recs))
		}
		if recs[0].End != recs[1].End {
			t.Fatalf("iter %d: expected an exact completion tie, got %v vs %v", iter, recs[0].End, recs[1].End)
		}
		if recs[0].ID != 0 || recs[1].ID != 1 {
			t.Fatalf("iter %d: tie recorded out of ID order: [%d, %d]", iter, recs[0].ID, recs[1].ID)
		}
	}
}

// Regression (perf): capacity writes that change nothing — repeated
// restores to 1, a Bridge re-sync publishing the fraction the link already
// has, a second FailLink — must not waterfill anything, and neither must
// a real change on a link no flow crosses.
func TestSetLinkCapacityFractionNoOpSkipsRecompute(t *testing.T) {
	topo, err := NewLeafSpine(2, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(topo)
	hosts := topo.Hosts()
	if _, err := fs.StartFlow(hosts[0], hosts[2], 1e12, 5); err != nil {
		t.Fatal(err)
	}
	path := refFlows(fs.activeSlots())[0].Path
	used := path[1] // the leaf uplink the flow crosses
	idle := -1      // a link it does not
	for l := range topo.Links {
		if !slices.Contains(path, l) {
			idle = l
			break
		}
	}

	base := fs.g.waterfills
	fs.SetLinkCapacityFraction(used, 1) // already at full capacity
	fs.SetLinkCapacityFraction(used, 1)
	if got := fs.g.waterfills; got != base {
		t.Fatalf("no-op restore to 1 recomputed: %d -> %d", base, got)
	}

	fs.SetLinkCapacityFraction(used, 0.5)
	if got := fs.g.waterfills; got != base+1 {
		t.Fatalf("real change should recompute once: %d -> %d", base, got)
	}
	fs.SetLinkCapacityFraction(used, 0.5) // same fraction again
	if got := fs.g.waterfills; got != base+1 {
		t.Fatalf("repeated fraction recomputed: %d", got)
	}

	// A real change on a flow-less link has no component to re-fill.
	fs.SetLinkCapacityFraction(idle, 0.5)
	if got := fs.g.capacity[idle]; got != topo.Links[idle].RateBps*0.5 {
		t.Fatalf("flow-less link capacity = %g, want half of nominal", got)
	}
	if got := fs.g.waterfills; got != base+1 {
		t.Fatalf("capacity change on a flow-less link waterfilled: %d -> %d", base+1, got)
	}

	// A second kill of a dead link is a no-op too.
	fs.FailLink(used)
	n := fs.g.waterfills
	if n == base+1 {
		t.Fatal("killing the flow's link should reroute and recompute")
	}
	fs.FailLink(used)
	if got := fs.g.waterfills; got != n {
		t.Fatalf("second FailLink recomputed: %d -> %d", n, got)
	}
}
