package netsim

import (
	"testing"
)

func TestLinksByTier(t *testing.T) {
	topo := mustTree(t, 4)
	byTier := topo.LinksByTier()
	if len(byTier[TierHostToR]) != 16 {
		t.Errorf("host links = %d", len(byTier[TierHostToR]))
	}
	if len(byTier[TierToRAgg]) != 16 || len(byTier[TierAggCore]) != 16 {
		t.Errorf("fabric links = %d/%d", len(byTier[TierToRAgg]), len(byTier[TierAggCore]))
	}
	total := 0
	for _, ids := range byTier {
		total += len(ids)
	}
	if total != len(topo.Links) {
		t.Error("partition incomplete")
	}
}

func TestNeighbors(t *testing.T) {
	topo := mustTree(t, 4)
	h := topo.Hosts()[0]
	if n := topo.adj[h]; len(n) != 1 {
		t.Errorf("host neighbors = %d, want 1", len(n))
	}
}

func TestActiveFlows(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	h := topo.Hosts()
	if fs.active != 0 {
		t.Error("fresh sim has flows")
	}
	if _, err := fs.StartFlow(h[0], h[1], 1e9, 0); err != nil {
		t.Fatal(err)
	}
	if fs.active != 1 {
		t.Errorf("active = %d", fs.active)
	}
	fs.Run()
	if fs.active != 0 {
		t.Error("flows remain after completion")
	}
}

// slotView is the tests' view of one slot: both halves, in place, so a
// test reads f.ID and f.rate alike and may write through either.
type slotView struct {
	*flowHot
	*flowSlot
}

func (g *flowGraph) view(h handle) slotView { return slotView{&g.flows.hot[h], &g.flows.v[h]} }

// activeSlots is the tests' view of a shard's live non-proxy flows (what
// the active map used to hold), in slot order.
func (s *shard) activeSlots() []slotView {
	var out []slotView
	for i := range s.g.flows.hot {
		if s.g.flows.used[i] && !s.g.flows.hot[i].proxy {
			out = append(out, s.g.view(handle(i)))
		}
	}
	return out
}

// activeSlots is the tests' view of fleet shard s's live local flows, in
// slot order: the barrier's pending arrivals are admitted first, as the
// next capacity change or Step would, so a test may read the slab
// between Inject and Step.
func (fs *FleetSim) activeSlots(s int) []slotView {
	fs.admitAll()
	return fs.shards[s].activeSlots()
}

// admitAll admits every shard's pending arrivals on the caller.
func (fs *FleetSim) admitAll() {
	for _, sh := range fs.shards {
		fs.admitPending(sh)
	}
}

// indexed is the tests' view of a link's flow index: its live entries, in
// index order (tombstones skipped).
func (g *flowGraph) indexed(l int) []slotView {
	var out []slotView
	for _, ref := range g.linkFlows[l].refs {
		if ref.pi >= 0 {
			out = append(out, g.view(ref.h))
		}
	}
	return out
}
