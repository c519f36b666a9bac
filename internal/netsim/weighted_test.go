package netsim

import (
	"math"
	"testing"
)

// Two same-path flows with weights 2:1 must split the bottleneck 2:1
// and finish at the exact fluid-model instants: the heavy flow at
// 1.5·S/C, the light one (promoted to full rate afterwards) at 2·S/C.
func TestWeightedMaxMinSharing(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	h := topo.Hosts()

	const C = 800e9
	S := C // one second of bottleneck capacity
	heavy, err := fs.StartFlowWeighted(h[0], h[1], S, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	light, err := fs.StartFlowWeighted(h[0], h[1], S, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs.Run()

	fct := map[int]float64{}
	for _, r := range fs.Records() {
		if r.Stalled {
			t.Fatalf("flow %d stalled", r.ID)
		}
		fct[r.ID] = float64(r.FCT())
	}
	if got, want := fct[heavy], 1.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("weight-2 flow FCT = %v, want %v", got, want)
	}
	if got, want := fct[light], 2.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("weight-1 flow FCT = %v, want %v", got, want)
	}
}

// With equal weights the weighted waterfill must reduce exactly to
// classic max-min: both flows finish together at 2·S/C.
func TestWeightedReducesToClassicMaxMin(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	h := topo.Hosts()

	const C = 800e9
	if _, err := fs.StartFlow(h[0], h[1], C, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartFlowWeighted(h[0], h[1], C, 0, 1); err != nil {
		t.Fatal(err)
	}
	fs.Run()
	for _, r := range fs.Records() {
		if got := float64(r.FCT()); math.Abs(got-2.0) > 1e-9 {
			t.Errorf("flow %d FCT = %v, want 2.0", r.ID, got)
		}
	}
}

// Nonsense weights (zero, negative, NaN) must behave like weight 1
// rather than starving or monopolizing the link.
func TestWeightSanitized(t *testing.T) {
	for _, w := range []float64{0, -3, math.NaN()} {
		topo := mustTree(t, 4)
		fs := NewFlowSim(topo)
		h := topo.Hosts()
		const C = 800e9
		if _, err := fs.StartFlowWeighted(h[0], h[1], C, 0, w); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.StartFlowWeighted(h[0], h[1], C, 0, 1); err != nil {
			t.Fatal(err)
		}
		fs.Run()
		for _, r := range fs.Records() {
			if got := float64(r.FCT()); math.Abs(got-2.0) > 1e-9 {
				t.Errorf("weight %v: flow %d FCT = %v, want 2.0 (even split)", w, r.ID, got)
			}
		}
	}
}
