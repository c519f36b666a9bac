package netsim

import (
	"testing"
)

func TestLeafSpineShape(t *testing.T) {
	topo, err := NewLeafSpine(8, 4, 16, 800e9)
	if err != nil {
		t.Fatal(err)
	}
	counts := countNodes(topo)
	if counts[NodeHost] != 128 || counts[NodeEdge] != 8 || counts[NodeAgg] != 4 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[NodeCore] != 0 {
		t.Error("leaf-spine has no core tier")
	}
	// Links: 128 host + 8*4 uplinks.
	if len(topo.Links) != 128+32 {
		t.Errorf("links = %d", len(topo.Links))
	}
}

func TestLeafSpineValidation(t *testing.T) {
	if _, err := NewLeafSpine(0, 4, 16, 1e9); err == nil {
		t.Error("zero leaves accepted")
	}
	if _, err := NewLeafSpine(8, 4, 16, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestLeafSpinePaths(t *testing.T) {
	topo, err := NewLeafSpine(4, 3, 8, 800e9)
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Hosts()
	// Same leaf: 2 hops.
	p, err := topo.Path(nil, h[0], h[1], 0)
	if err != nil || len(p) != 2 {
		t.Errorf("same-leaf path = %v, %v", p, err)
	}
	// Cross-leaf: 4 hops through a spine.
	p, err = topo.Path(nil, h[0], h[20], 0)
	if err != nil || len(p) != 4 {
		t.Errorf("cross-leaf path = %v, %v", p, err)
	}
	// Walk it for connectivity.
	at := h[0]
	for _, lid := range p {
		l := topo.Links[lid]
		if l.A != at && l.B != at {
			t.Fatalf("disconnected at %d", at)
		}
		at = topo.peer(l, at)
	}
	if at != h[20] {
		t.Fatal("path does not reach destination")
	}
}

func TestLeafSpineECMPAcrossSpines(t *testing.T) {
	topo, _ := NewLeafSpine(4, 4, 8, 800e9)
	h := topo.Hosts()
	spines := map[int]bool{}
	for hash := uint64(0); hash < 32; hash++ {
		p, err := topo.Path(nil, h[0], h[20], hash)
		if err != nil {
			t.Fatal(err)
		}
		spines[p[1]] = true
	}
	if len(spines) < 3 {
		t.Errorf("ECMP used only %d of 4 spines", len(spines))
	}
}

func TestLeafSpineFlowsAndFailover(t *testing.T) {
	topo, err := NewLeafSpine(4, 2, 4, 800e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(topo)
	h := topo.Hosts()
	if _, err := fs.StartFlow(h[0], h[12], 800e9*0.5, 0); err != nil {
		t.Fatal(err)
	}
	// Kill the spine uplink the flow is on; it must reroute to the other
	// spine and complete.
	used := int(fs.activeSlots()[0].path[1])
	fs.RunUntil(0.1)
	fs.FailLink(used)
	fs.Run()
	recs := fs.Records()
	if len(recs) != 1 || recs[0].Stalled {
		t.Fatalf("flow did not survive spine failure: %+v", recs)
	}
}

func TestLeafSpineAnalyze(t *testing.T) {
	topo, _ := NewLeafSpine(8, 4, 16, 800e9)
	for _, plan := range Plans() {
		rep, err := Analyze(topo, plan, 800e9)
		if err != nil {
			t.Fatalf("%s: %v", plan.Name, err)
		}
		if rep.PowerW <= 0 {
			t.Errorf("%s: no power", plan.Name)
		}
	}
}
