package netsim

import (
	"errors"
	"math"
	"testing"

	"mosaic/internal/netsim/workload"
	"mosaic/internal/power"
	"mosaic/internal/sim"
)

func mustTree(t *testing.T, k int) *Topology {
	t.Helper()
	topo, err := NewFatTree(k, 800e9)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// countNodes returns node counts by kind.
func countNodes(t *Topology) map[NodeKind]int {
	out := make(map[NodeKind]int)
	for _, n := range t.Nodes {
		out[n.Kind]++
	}
	return out
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{4, 8} {
		topo := mustTree(t, k)
		counts := countNodes(topo)
		if counts[NodeHost] != k*k*k/4 {
			t.Errorf("k=%d: hosts = %d, want %d", k, counts[NodeHost], k*k*k/4)
		}
		if counts[NodeCore] != k*k/4 {
			t.Errorf("k=%d: cores = %d, want %d", k, counts[NodeCore], k*k/4)
		}
		if counts[NodeEdge] != k*k/2 || counts[NodeAgg] != k*k/2 {
			t.Errorf("k=%d: edge/agg = %d/%d, want %d", k, counts[NodeEdge], counts[NodeAgg], k*k/2)
		}
		// Link count: hosts + edge-agg (k pods × (k/2)²) + agg-core (k pods × (k/2)²).
		want := k*k*k/4 + k*(k/2)*(k/2)*2
		if len(topo.Links) != want {
			t.Errorf("k=%d: links = %d, want %d", k, len(topo.Links), want)
		}
		if topo.NumHosts() != k*k*k/4 {
			t.Errorf("NumHosts mismatch")
		}
	}
}

func TestFatTreeRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 5} {
		if _, err := NewFatTree(k, 1e9); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	if _, err := NewFatTree(4, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestPathsValid(t *testing.T) {
	topo := mustTree(t, 4)
	hosts := topo.Hosts()
	for hash := uint64(0); hash < 8; hash++ {
		for _, dst := range []int{1, 5, 15} {
			path, err := topo.Path(nil, hosts[0], hosts[dst], hash)
			if err != nil {
				t.Fatalf("path to host %d: %v", dst, err)
			}
			// Path must be connected: walk it.
			at := hosts[0]
			for _, lid := range path {
				l := topo.Links[lid]
				if l.A != at && l.B != at {
					t.Fatalf("disconnected path at node %d, link %v", at, l)
				}
				at = topo.peer(l, at)
			}
			if at != hosts[dst] {
				t.Fatalf("path ends at %d, want %d", at, hosts[dst])
			}
		}
	}
}

func TestPathLengths(t *testing.T) {
	topo := mustTree(t, 4)
	h := topo.Hosts()
	// Same edge switch: 2 hops.
	p, err := topo.Path(nil, h[0], h[1], 0)
	if err != nil || len(p) != 2 {
		t.Errorf("same-edge path = %v, %v", p, err)
	}
	// Same pod, different edge: 4 hops.
	p, err = topo.Path(nil, h[0], h[2], 0)
	if err != nil || len(p) != 4 {
		t.Errorf("same-pod path = %v, %v", p, err)
	}
	// Cross-pod: 6 hops.
	p, err = topo.Path(nil, h[0], h[15], 0)
	if err != nil || len(p) != 6 {
		t.Errorf("cross-pod path = %v, %v", p, err)
	}
	// Same host: empty.
	p, err = topo.Path(nil, h[0], h[0], 0)
	if err != nil || len(p) != 0 {
		t.Errorf("self path = %v, %v", p, err)
	}
}

func TestPathErrors(t *testing.T) {
	topo := mustTree(t, 4)
	if _, err := topo.Path(nil, -1, 0, 0); err == nil {
		t.Error("negative node accepted")
	}
	// Node 0 is a core switch, not a host.
	if _, err := topo.Path(nil, 0, topo.Hosts()[0], 0); err == nil {
		t.Error("non-host endpoint accepted")
	}
}

func TestECMPSpreads(t *testing.T) {
	topo := mustTree(t, 8)
	h := topo.Hosts()
	seen := map[int]bool{}
	for hash := uint64(0); hash < 64; hash++ {
		p, err := topo.Path(nil, h[0], h[len(h)-1], hash)
		if err != nil {
			t.Fatal(err)
		}
		seen[p[1]] = true // the chosen edge->agg link
	}
	if len(seen) < 2 {
		t.Error("ECMP hashing never spread across agg uplinks")
	}
}

func TestTechPlansValid(t *testing.T) {
	for _, p := range Plans() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestInfeasiblePlanRejected(t *testing.T) {
	bad := TechPlan{
		Name: "copper-everywhere",
		ByTier: map[Tier]power.Tech{
			TierHostToR: power.DAC,
			TierToRAgg:  power.DAC, // 2 m copper cannot span 20 m
			TierAggCore: power.DR,
		},
	}
	if err := bad.Validate(); err == nil {
		t.Error("copper at tor-agg should be infeasible")
	}
	missing := TechPlan{Name: "partial", ByTier: map[Tier]power.Tech{}}
	if err := missing.Validate(); err == nil {
		t.Error("plan with missing tiers accepted")
	}
}

func TestAnalyzePowerOrdering(t *testing.T) {
	topo := mustTree(t, 8)
	baseline, err := Analyze(topo, CopperOpticsBaseline(), 800e9)
	if err != nil {
		t.Fatal(err)
	}
	allOpt, err := Analyze(topo, AllOptics(), 800e9)
	if err != nil {
		t.Fatal(err)
	}
	mosaic, err := Analyze(topo, MosaicPlan(), 800e9)
	if err != nil {
		t.Fatal(err)
	}
	// All-optics burns the most; Mosaic must beat it decisively and also
	// beat the DAC+optics mix (it replaces the AOC/DR tiers).
	if !(mosaic.PowerW < allOpt.PowerW) {
		t.Errorf("mosaic %v should beat all-optics %v", mosaic.PowerW, allOpt.PowerW)
	}
	if !(mosaic.PowerW < baseline.PowerW) {
		t.Errorf("mosaic %v should beat DAC+optics %v", mosaic.PowerW, baseline.PowerW)
	}
	// Failures: Mosaic plan should have far fewer expected failures than
	// all-optics (laser-dominated).
	if !(mosaic.FailuresPerYear < allOpt.FailuresPerYear) {
		t.Errorf("mosaic failures %v should beat all-optics %v",
			mosaic.FailuresPerYear, allOpt.FailuresPerYear)
	}
	if mosaic.Links != len(topo.Links) {
		t.Error("link count mismatch")
	}
}

func TestAnalyzeTCO(t *testing.T) {
	topo := mustTree(t, 8)
	rep, err := Analyze(topo, MosaicPlan(), 800e9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CapexUSD <= 0 {
		t.Error("no capex accumulated")
	}
	if rep.OpexUSDPerYear() <= 0 {
		t.Error("no opex")
	}
	// TCO grows with years and exceeds capex alone.
	if !(rep.TCOUSD(5) > rep.TCOUSD(1) && rep.TCOUSD(1) > rep.CapexUSD) {
		t.Error("TCO not monotone in years")
	}
	// Opex sanity: power × PUE × hours × price.
	want := rep.PowerW * 1.5 / 1000 * 8766 * USDPerKWh
	if got := rep.OpexUSDPerYear(); got != want {
		t.Errorf("opex = %v, want %v", got, want)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	topo := mustTree(t, 4)
	if _, err := Analyze(nil, MosaicPlan(), 800e9); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Analyze(topo, MosaicPlan(), 5e9); err == nil {
		t.Error("unsupported rate accepted")
	}
	bad := TechPlan{Name: "x", ByTier: map[Tier]power.Tech{}}
	if _, err := Analyze(topo, bad, 800e9); err == nil {
		t.Error("invalid plan accepted")
	}
}

// --- flow simulator ---

func TestSingleFlowGetsLineRate(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	h := topo.Hosts()
	size := 800e9 * 0.5 // half a second at line rate
	if _, err := fs.StartFlow(h[0], h[15], size, 0); err != nil {
		t.Fatal(err)
	}
	fs.Run()
	recs := fs.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if got := float64(recs[0].FCT()); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("FCT = %v, want 0.5s", got)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	h := topo.Hosts()
	// Two flows into the same destination host: its access link is the
	// bottleneck; each gets half.
	size := 800e9 * 0.5
	if _, err := fs.StartFlow(h[0], h[15], size, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StartFlow(h[1], h[15], size, 1); err != nil {
		t.Fatal(err)
	}
	fs.Run()
	recs := fs.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	// Both share fairly throughout, so both finish at ~1.0 s.
	for _, r := range recs {
		if math.Abs(float64(r.FCT())-1.0) > 1e-6 {
			t.Errorf("FCT = %v, want 1s", r.FCT())
		}
	}
}

func TestFlowCompletionFreesCapacity(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	h := topo.Hosts()
	// A short and a long flow to the same host: after the short one ends,
	// the long one speeds up. Long = 1s of line rate, short = 0.25s.
	fs.StartFlow(h[0], h[15], 800e9*1.0, 0)
	fs.StartFlow(h[1], h[15], 800e9*0.25, 1)
	fs.Run()
	recs := fs.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	var short, long FlowRecord
	for _, r := range recs {
		if r.SizeBits < 800e9*0.5 {
			short = r
		} else {
			long = r
		}
	}
	// Short: shares until done: needs 0.25 at half rate -> 0.5s.
	if math.Abs(float64(short.FCT())-0.5) > 1e-6 {
		t.Errorf("short FCT = %v, want 0.5", short.FCT())
	}
	// Long: 0.5s at half rate (0.25 done) + 0.75 remaining at full = 1.25s.
	if math.Abs(float64(long.FCT())-1.25) > 1e-6 {
		t.Errorf("long FCT = %v, want 1.25", long.FCT())
	}
}

func TestGracefulDegradationVsLinkDown(t *testing.T) {
	// E12's core contrast on one access link: degrade to 96% vs kill.
	topoA := mustTree(t, 4)
	fsA := NewFlowSim(topoA)
	h := topoA.Hosts()
	accessLink := topoA.adj[h[0]][0]
	fsA.StartFlow(h[0], h[15], 800e9*1.0, 0)
	// Degrade the access link to 96% shortly after start.
	fsA.RunUntil(0.1)
	fsA.SetLinkCapacityFraction(accessLink, 0.96)
	fsA.Run()
	recA := fsA.Records()[0]

	topoB := mustTree(t, 4)
	fsB := NewFlowSim(topoB)
	fsB.StartFlow(h[0], h[15], 800e9*1.0, 0)
	fsB.RunUntil(0.1)
	fsB.FailLink(accessLink)
	fsB.Run()
	recB := fsB.Records()[0]

	if recA.Stalled {
		t.Fatal("degraded flow stalled")
	}
	// Degraded: tiny FCT hit (~3.75%).
	if got := float64(recA.FCT()); got < 1.0 || got > 1.1 {
		t.Errorf("degraded FCT = %v, want ~1.04", got)
	}
	// Killed access link: host is disconnected -> flow stalls.
	if !recB.Stalled {
		t.Errorf("flow over killed access link should stall, FCT=%v", recB.FCT())
	}
}

func TestRerouteAroundFailedCoreLink(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	h := topo.Hosts()
	fs.StartFlow(h[0], h[15], 800e9*1.0, 0)
	// Kill the agg uplink the flow is using (path index 1) mid-flight:
	// ECMP has alternatives, so the flow must reroute and finish.
	usedLink := int(fs.activeSlots()[0].path[1])
	fs.RunUntil(0.1)
	fs.FailLink(usedLink)
	fs.Run()
	recs := fs.Records()
	if len(recs) != 1 || recs[0].Stalled {
		t.Fatalf("flow did not survive core-link failure: %+v", recs)
	}
	if float64(recs[0].FCT()) < 1.0 {
		t.Error("FCT below ideal is impossible")
	}
}

func TestRestoreLink(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	lid := 0
	fs.SetLinkCapacityFraction(lid, 0.5)
	if fs.g.capacity[lid] != topo.Links[lid].RateBps*0.5 {
		t.Error("capacity not scaled")
	}
	fs.SetLinkCapacityFraction(lid, 1)
	if fs.g.capacity[lid] != topo.Links[lid].RateBps {
		t.Error("capacity not restored")
	}
	fs.SetLinkCapacityFraction(-1, 0.5) // must not panic
	fs.SetLinkCapacityFraction(lid, -2)
	if fs.g.capacity[lid] != 0 {
		t.Error("negative fraction should clamp to dead")
	}
}

// The fraction is clamped to [0, 1]: a renegotiation can never push a
// link above its nominal rate, and garbage inputs degrade to link-down
// rather than corrupting the waterfill.
func TestSetLinkCapacityFractionBounds(t *testing.T) {
	topo := mustTree(t, 4)
	nominal := topo.Links[0].RateBps
	cases := []struct {
		name string
		frac float64
		want float64
	}{
		{"zero", 0, 0},
		{"half", 0.5, nominal * 0.5},
		{"full", 1, nominal},
		{"above-one", 1.5, nominal},
		{"huge", 1e12, nominal},
		{"negative", -0.25, 0},
		{"neg-inf", math.Inf(-1), 0},
		{"pos-inf", math.Inf(1), nominal},
		{"nan", math.NaN(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFlowSim(topo)
			fs.SetLinkCapacityFraction(0, tc.frac)
			if got := fs.g.capacity[0]; got != tc.want {
				t.Errorf("frac=%v: capacity = %g, want %g", tc.frac, got, tc.want)
			}
		})
	}
}

// Both drivers reject a bad flow request in the one shared admission
// check. At the parent of this test a self flow panicked the fleet
// engine's next Step (a cross flow with zero proxies) and leaked a
// never-completing flow in the event-driven one, and NaN/+Inf sizes
// passed the `sizeBits <= 0` guard.
func TestStartFlowValidation(t *testing.T) {
	topo, err := NewFleet(2, 2, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Hosts()
	cases := []struct {
		name     string
		src, dst int
		size     float64
		want     error
	}{
		{"zero-size", h[0], h[1], 0, errFlowSize},
		{"negative-size", h[0], h[1], -1, errFlowSize},
		{"nan-size", h[0], h[1], math.NaN(), errFlowSize},
		{"inf-size", h[0], h[1], math.Inf(1), errFlowSize},
		{"self-flow", h[0], h[0], 1e9, errSelfFlow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFlowSim(topo)
			if _, err := fs.StartFlow(tc.src, tc.dst, tc.size, 0); !errors.Is(err, tc.want) {
				t.Errorf("FlowSim.StartFlow: err = %v, want %v", err, tc.want)
			}
			fs.Run()
			if n := fs.active; n != 0 {
				t.Errorf("FlowSim leaked %d active flows", n)
			}

			fleet := NewFleetSim(topo, 1)
			if _, err := fleet.Inject(tc.src, tc.dst, tc.size, 0); !errors.Is(err, tc.want) {
				t.Errorf("FleetSim.Inject: err = %v, want %v", err, tc.want)
			}
			fleet.Step(1)
			if n := fleet.ActiveFlows(); n != 0 {
				t.Errorf("FleetSim holds %d active flows", n)
			}
		})
	}
}

func TestStatsComputation(t *testing.T) {
	recs := []FlowRecord{
		{Start: 0, End: 1},
		{Start: 0, End: 2},
		{Start: 0, End: 3},
		{Start: 0, End: 10, Stalled: true},
	}
	st := Stats(recs)
	if st.Count != 3 || st.Stalled != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(float64(st.Mean)-2) > 1e-9 || st.Max != 3 || st.P50 != 2 {
		t.Errorf("stats = %+v", st)
	}
	if Stats(nil).Count != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestTierStrings(t *testing.T) {
	for _, tier := range Tiers() {
		if tier.String() == "" || tier.TypicalLengthM() <= 0 {
			t.Error("tier metadata broken")
		}
	}
	if Tier(9).String() != "tier(9)" || Tier(9).TypicalLengthM() != 0 {
		t.Error("unknown tier handling")
	}
	for _, k := range []NodeKind{NodeHost, NodeEdge, NodeAgg, NodeCore, NodeKind(9)} {
		if k.String() == "" {
			t.Error("empty node kind")
		}
	}
}

// OfferPoisson accounts for every arrival: it either starts a flow or is
// counted unroutable (here, hosts stranded behind a dead access link).
func TestOfferPoissonCountsUnroutableArrivals(t *testing.T) {
	topo := mustTree(t, 4)
	fs := NewFlowSim(topo)
	fs.FailLink(topo.adj[topo.Hosts()[0]][0])
	dist := workload.Fixed{Bits: 1e6}
	arr := workload.NewPoissonForLoad(0.3, topo.NumHosts(), 800e9, dist.MeanBits())
	const n = 400
	unroutable := fs.OfferPoisson(n, dist, arr, sim.RNG(1, "workload"))
	fs.Run()
	if *unroutable == 0 || *unroutable+len(fs.Records()) != n {
		t.Fatalf("%d unroutable + %d recorded, want %d arrivals with some stranded",
			*unroutable, len(fs.Records()), n)
	}
}
