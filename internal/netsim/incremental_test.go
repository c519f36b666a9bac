package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mosaic/internal/eventlog"
	"mosaic/internal/sim"
)

// incTraceCase drives FlowSim through one randomized trace of
// arrivals, kills, restores, degrades and time advances, closed by a
// kill → restore → kill on one link, verifying after every mutation:
//
//  1. Conservation: per-link allocated rate ≤ capacity.
//  2. Max-min saturation: every positive-rate flow crosses a saturated
//     link.
//  3. Bitwise equivalence with MaxMinRates, the always-global
//     progressive-filling twin (maxmin_test.go). Exact equality, not an
//     epsilon: the component-restricted waterfill performs the same float
//     operations in the same order as a global fill restricted to that
//     component, so any difference is a real bug, not rounding.
func incTraceCase(t *testing.T, seed int64, size int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		topo *Topology
		err  error
	)
	if seed%2 == 0 {
		topo, err = NewLeafSpine(2+rng.Intn(size), 1+rng.Intn(3), 1+rng.Intn(3), 100e9)
	} else {
		topo, err = NewFleet(2+rng.Intn(2), 1+rng.Intn(size), 1+rng.Intn(3), 1+rng.Intn(3), 100e9)
	}
	if err != nil {
		t.Fatal(err)
	}
	hosts := topo.Hosts()
	fs := NewFlowSim(topo)

	check := func(step int) {
		t.Helper()
		// Conservation + saturation from the engine's internal state.
		sumRates := make([]float64, len(fs.g.capacity))
		for _, f := range fs.activeSlots() {
			for _, l := range f.links() {
				sumRates[l] += f.rate
			}
		}
		for l, sum := range sumRates {
			if cap := fs.g.capacity[l]; sum > cap*(1+1e-9)+1 {
				t.Fatalf("step %d: link %d oversubscribed: %.6g on %.6g", step, l, sum, cap)
			}
		}
		for _, f := range fs.activeSlots() {
			if f.rate <= 0 {
				continue
			}
			saturated := false
			for _, l := range f.links() {
				if sumRates[l] >= fs.g.capacity[l]*(1-1e-9)-1 {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Fatalf("step %d: flow %d (rate %.6g) has no saturated link — not max-min", step, f.ID, f.rate)
			}
		}
		// Bitwise equivalence with the global reference.
		checkRatesEqualReference(t, fs.g.capacity, refFlows(fs.activeSlots()), fmt.Sprintf("step %d", step))
	}

	steps := 8 * size
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(100); {
		case op < 45:
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			_, _ = fs.StartFlow(src, dst, (0.1+rng.Float64())*1e9, rng.Uint64())
		case op < 62:
			fs.RunUntil(fs.now + sim.Time(rng.Float64()*0.02))
		case op < 74:
			fs.FailLink(rng.Intn(len(topo.Links)))
		case op < 86:
			fs.SetLinkCapacityFraction(rng.Intn(len(topo.Links)), 1)
		default:
			fs.SetLinkCapacityFraction(rng.Intn(len(topo.Links)), rng.Float64())
		}
		check(s)
	}

	// Kill → restore → kill on one link: each kill re-admits old IDs onto
	// links whose indices already hold younger flows, and the restore lets
	// new arrivals back onto the victim before it dies again.
	victim := rng.Intn(len(topo.Links))
	for i, frac := range []float64{0, 1, 0} {
		fs.SetLinkCapacityFraction(victim, frac)
		check(steps + 2*i)
		for range size {
			_, _ = fs.StartFlow(hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))], (0.1+rng.Float64())*1e9, rng.Uint64())
		}
		check(steps + 2*i + 1)
	}

	// Restore everything and drain: all flows must finish.
	for l := range topo.Links {
		fs.SetLinkCapacityFraction(l, 1)
	}
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

// TestIncFlowSimProperties is the tier-1 slice of the flow-engine
// property suite. (The name predates the engine merge; the test floor
// pins it and its twelve subtests by ID, so it stays.)
func TestIncFlowSimProperties(t *testing.T) {
	for c := 0; c < 12; c++ {
		c := c
		t.Run(fmt.Sprintf("case%d", c), func(t *testing.T) {
			incTraceCase(t, 0x11C0+int64(c)*0x9E3779B1, 4+c%5)
		})
	}
}

// TestFlowSimDeepProperties is the verify-deep slice: many more
// randomized traces at larger sizes (MOSAIC_VERIFY_DEEP=1, run under
// -race by make verify-deep).
func TestFlowSimDeepProperties(t *testing.T) {
	if os.Getenv("MOSAIC_VERIFY_DEEP") == "" {
		t.Skip("set MOSAIC_VERIFY_DEEP=1 to run the deep incremental property suite")
	}
	for c := 0; c < 120; c++ {
		c := c
		t.Run(fmt.Sprintf("case%d", c), func(t *testing.T) {
			t.Parallel()
			incTraceCase(t, 0xDEE9+int64(c)*0x9E3779B1, 5+c%8)
		})
	}
}

// runFleetScenario drives a deterministic fleet workload — seeded
// arrivals, continuous per-link aging, scripted kills — at the given
// worker count and returns the event log and final records.
func runFleetScenario(workers int) ([]string, []FlowRecord) {
	topo, err := NewFleet(3, 3, 2, 2, 100e9)
	if err != nil {
		panic(err)
	}
	fs := NewFleetSim(topo, workers)
	rng := rand.New(rand.NewSource(99))
	hosts := topo.Hosts()
	for epoch := 0; epoch < 12; epoch++ {
		// Continuous aging on a deterministic link subset.
		for l := 0; l < len(topo.Links); l += 5 {
			frac := 1 - 0.02*float64(epoch)*float64(1+l%3)
			if frac < 0 {
				frac = 0
			}
			fs.SetLinkFraction(l, frac)
		}
		if epoch == 6 {
			fs.SetLinkFraction(1, 0) // hard kill mid-run
		}
		for i := 0; i < 30; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			_, _ = fs.Inject(src, dst, (0.5+rng.Float64())*25e9, rng.Uint64())
		}
		fs.Step(1)
	}
	return fs.EventLog(), fs.Records()
}

// The epoch log is bounded: mosaicfleetd steps one FleetSim for as long
// as it lives and never reads this log, so it must stop retaining lines
// at the eventlog cap rather than grow by one per epoch forever. Runs of
// ordinary length (E24 is 24 epochs) keep every line.
func TestFleetSimEventLogIsBounded(t *testing.T) {
	topo, err := NewFleet(1, 1, 1, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFleetSim(topo, 1)
	for e := 0; e < 24; e++ {
		fs.Step(1)
	}
	day := slices.Clone(fs.EventLog())
	if len(day) != 24 {
		t.Fatalf("24 epochs logged %d lines", len(day))
	}
	for e := 24; e < eventlog.DefaultMax+10; e++ {
		fs.Step(1)
	}
	log := fs.EventLog()
	if len(log) != eventlog.DefaultMax {
		t.Fatalf("idle FleetSim holds %d log lines after %d epochs, want the cap %d",
			len(log), eventlog.DefaultMax+10, eventlog.DefaultMax)
	}
	if !slices.Equal(log[:24], day) {
		t.Error("the first day's lines changed once the log hit its cap")
	}
}

// Regression: a local flow rerouted inside its own shard must not be
// completed by the completion entry queued for its old path. The
// re-admitted flow used to restart its entry version at zero, so after
// as many re-rates as the old flow had seen, the stale entry (same ID,
// same version) read as live and finished the flow at the old path's
// time.
func TestFleetRerouteKeepsStaleCompletionsStale(t *testing.T) {
	topo, err := NewFleet(1, 2, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFleetSim(topo, 1)
	h := topo.Hosts()
	// A crosses the pod alone: 1000 Gb at 100G, entry queued for t=10.
	a, err := fs.Inject(h[0], h[2], 1000e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs.Step(1)
	uplink := int(fs.activeSlots(0)[0].path[1])
	// Kill A's leaf uplink and start B, which never finishes: both now
	// share the surviving spine, so A's 900 Gb drain at 50G until t=19.
	fs.SetLinkFraction(uplink, 0)
	if _, err := fs.Inject(h[1], h[3], 1e15, 0); err != nil {
		t.Fatal(err)
	}
	for fs.now < 25 {
		fs.Step(1)
	}
	for _, r := range fs.Records() {
		if r.ID == a && math.Abs(float64(r.End)-19) > 1e-6 {
			t.Fatalf("rerouted flow finished at t=%v, want 19 (t=10 is the dead path's stale entry)", r.End)
		}
	}
	if n := len(fs.Records()); n != 1 {
		t.Fatalf("want exactly flow A recorded, got %d records", n)
	}
}

// TestFleetSimWorkerInvariance pins the sharded engine's determinism
// barrier: the event log and every record must be identical at 1, 3 and
// GOMAXPROCS workers.
func TestFleetSimWorkerInvariance(t *testing.T) {
	refLog, refRecs := runFleetScenario(1)
	if len(refLog) != 12 {
		t.Fatalf("want 12 epoch log lines, got %d", len(refLog))
	}
	if len(refRecs) == 0 {
		t.Fatal("scenario completed no flows; it exercises nothing")
	}
	for _, w := range []int{3, 0} {
		log, recs := runFleetScenario(w)
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("workers=%d: event log diverged from workers=1", w)
		}
		if !reflect.DeepEqual(recs, refRecs) {
			t.Fatalf("workers=%d: records diverged from workers=1", w)
		}
	}
}

// TestFleetSimConservation checks capacity conservation after every
// epoch: on each link, the frozen rates of the flows indexed on it
// (locals plus pinned cross proxies) sum to at most its capacity.
func TestFleetSimConservation(t *testing.T) {
	topo, err := NewFleet(3, 3, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFleetSim(topo, 0)
	rng := rand.New(rand.NewSource(7))
	hosts := topo.Hosts()
	for epoch := 0; epoch < 10; epoch++ {
		for l := 0; l < len(topo.Links); l += 4 {
			fs.SetLinkFraction(l, 1-0.03*float64(epoch))
		}
		for i := 0; i < 40; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			_, _ = fs.Inject(src, dst, (0.5+rng.Float64())*30e9, rng.Uint64())
		}
		fs.Step(1)
		for l := range topo.Links {
			sh := fs.shards[fs.shardOf[l]]
			var sum float64
			for _, f := range sh.g.indexed(l - sh.g.base) {
				sum += f.rate
			}
			if cap := fs.capacity[l]; sum > cap*(1+1e-9)+1 {
				t.Fatalf("epoch %d: link %d oversubscribed: %.6g on %.6g", epoch, l, sum, cap)
			}
		}
	}
	if fs.ActiveFlows() == 0 {
		t.Fatal("no active flows at end; scenario too weak")
	}
}

// A fleet shard's graph covers exactly its pod's links — one run of IDs,
// pod after pod, in both topology builders — so its per-link arrays are
// pod-sized, and its capacity window aliases the fleet's vector (a
// barrier write is seen by the shard). Interleaved pods are refused.
func TestShardLinkRanges(t *testing.T) {
	fleet, err := NewFleet(5, 4, 2, 8, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := NewFatTree(6, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*Topology{fleet, fat} {
		fs := NewFleetSim(topo, 1)
		covered := 0
		for s, sh := range fs.shards {
			g := sh.g
			for l := range g.capacity {
				if got := fs.shardOf[g.base+l]; got != s {
					t.Fatalf("shard %d's local link %d is link %d of shard %d", s, l, g.base+l, got)
				}
			}
			if len(g.linkFlows) != len(g.capacity) || len(g.linkMark) != len(g.capacity) {
				t.Fatalf("shard %d: %d index headers and %d marks for %d links",
					s, len(g.linkFlows), len(g.linkMark), len(g.capacity))
			}
			covered += len(g.capacity)
		}
		if covered != len(topo.Links) {
			t.Fatalf("shards cover %d of %d links", covered, len(topo.Links))
		}
		last := len(topo.Links) - 1
		fs.SetLinkFraction(last, 0.5)
		if sh := fs.shards[fs.shardOf[last]]; sh.g.capacity[last-sh.g.base] != topo.Links[last].RateBps*0.5 {
			t.Fatal("a barrier capacity write is not seen through the shard's window")
		}
	}
	// Pod 0's second link numbered after pod 1's.
	mixed := &Topology{}
	e0, e1 := mixed.addNode(NodeEdge, 0), mixed.addNode(NodeEdge, 1)
	mixed.addLink(mixed.addNode(NodeHost, 0), e0, TierHostToR, 1)
	mixed.addLink(mixed.addNode(NodeHost, 1), e1, TierHostToR, 1)
	mixed.addLink(mixed.addNode(NodeHost, 0), e0, TierHostToR, 1)
	mixed.index()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "pod after pod") {
			t.Fatalf("interleaved pods: recovered %q, want the link-order panic", msg)
		}
	}()
	NewFleetSim(mixed, 1)
}
