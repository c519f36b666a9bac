package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mosaic/internal/eventlog"
	"mosaic/internal/netsim/workload"
	"mosaic/internal/sim"
)

// runDrainScenario is a 50-epoch fleet run over three pods with cross-pod
// traffic, aging, kills and restores, at an epoch length that is not a
// binary fraction. It returns a digest of every record's bits and the
// epoch-log sha.
func runDrainScenario() (records, log string) {
	topo, err := NewFleet(3, 3, 2, 3, 100e9)
	if err != nil {
		panic(err)
	}
	fs := NewFleetSim(topo, 0)
	rng := rand.New(rand.NewSource(2025))
	hosts := topo.Hosts()
	for epoch := 0; epoch < 50; epoch++ {
		for l := epoch % 7; l < len(topo.Links); l += 7 {
			fs.SetLinkFraction(l, 1-0.01*float64(epoch%23))
		}
		switch epoch % 10 {
		case 3:
			fs.SetLinkFraction(rng.Intn(len(topo.Links)), 0)
		case 8:
			for l := range topo.Links {
				fs.SetLinkFraction(l, 1)
			}
		}
		for i := 0; i < 60; i++ {
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			bits := (0.05 + rng.Float64()) * 4e9
			if i%4 == 0 {
				bits *= 25 // a few flows that outlive many epochs
			}
			_, _ = fs.Inject(src, dst, bits, rng.Uint64())
		}
		fs.Step(0.3)
	}
	return recordsDigest(fs), eventlog.Digest(fs.EventLog())
}

// recordsDigest hashes every record's bits, in Records order.
func recordsDigest(fs *FleetSim) string {
	var lines []string
	for _, r := range fs.Records() {
		lines = append(lines, fmt.Sprintf("%d %x %x %x %t", r.ID,
			math.Float64bits(r.SizeBits), math.Float64bits(float64(r.Start)), math.Float64bits(float64(r.End)), r.Stalled))
	}
	return eventlog.Digest(lines, fmt.Sprint(len(lines)))
}

// runSameBarrierKillScenario is runDrainScenario with its capacity
// changes landing between two halves of an epoch's arrivals: every epoch
// injects 30 flows, kills a link on the last one's route (or degrades
// one, or restores every link), then injects 30 more. The kill reroutes
// or stalls flows that arrived at the same barrier, and the arrivals
// after it route around the dead link.
func runSameBarrierKillScenario() (records, log string) {
	topo, err := NewFleet(3, 3, 2, 3, 100e9)
	if err != nil {
		panic(err)
	}
	fs := NewFleetSim(topo, 0)
	rng := rand.New(rand.NewSource(2031))
	hosts := topo.Hosts()
	var last []int // the route the last arrival was offered first
	inject := func(n int) {
		for i := 0; i < n; i++ {
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			bits := (0.05 + rng.Float64()) * 4e9
			if i%4 == 0 {
				bits *= 25
			}
			hash := rng.Uint64()
			if _, err := fs.Inject(src, dst, bits, hash); err == nil {
				last, _ = topo.Path(last[:0], src, dst, hash)
			}
		}
	}
	for epoch := 0; epoch < 50; epoch++ {
		for l := epoch % 7; l < len(topo.Links); l += 7 {
			fs.SetLinkFraction(l, 1-0.01*float64(epoch%23))
		}
		inject(30)
		switch epoch % 5 {
		case 1, 3:
			fs.SetLinkFraction(last[rng.Intn(len(last))], 0)
		case 2:
			fs.SetLinkFraction(last[0], 0.5)
		case 4:
			for l := range topo.Links {
				fs.SetLinkFraction(l, 1)
			}
		}
		inject(30)
		fs.Step(0.3)
	}
	return recordsDigest(fs), eventlog.Digest(fs.EventLog())
}

// TestFleetDrainMatchesQueuedFinish pins the epoch drain, which reads
// finish times off the slab at every barrier, to what the completion
// queue it replaced produced.
func TestFleetDrainMatchesQueuedFinish(t *testing.T) {
	topo, err := NewFleet(1, 2, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFleetSim(topo, 1)
	h := topo.Hosts()
	const epochLen = sim.Time(0.3)
	inject := func(src, dst int, bits float64) int {
		t.Helper()
		id, err := fs.Inject(h[src], h[dst], bits, 0)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	recordOf := func(id int) FlowRecord {
		t.Helper()
		for _, r := range fs.shards[0].records {
			if r.ID == id {
				return r
			}
		}
		t.Fatalf("flow %d has no record", id)
		return FlowRecord{}
	}

	// Two flows that finish inside the first epoch free slots 0 and 1;
	// the LIFO free list then hands slot 1 to the older of the next two.
	inject(0, 1, 1e9)
	inject(2, 3, 1e9)
	fs.Step(epochLen)
	fs.Step(epochLen)
	fs.Step(epochLen) // now = 0.3+0.3+0.3, not 0.9

	// c and d: same size, same instant, disjoint paths — one finish time,
	// with the higher ID in the lower slot. Rated once, at this barrier.
	c, d := inject(0, 1, 777e9), inject(2, 3, 777e9)
	admitted := fs.now
	fs.Step(epochLen)
	slots := fs.activeSlots(0)
	if len(slots) != 2 || slots[0].ID != d || slots[1].ID != c {
		t.Fatalf("want flow %d in the lower slot and flow %d in the higher", d, c)
	}
	want := admitted + sim.Time(777e9/100e9)
	for _, f := range slots {
		if got := f.lastTouch + sim.Time(f.remaining/f.rate); got != want {
			t.Fatalf("flow %d: finish time on the slab %v, want %v", f.ID, got, want)
		}
	}
	rated := fs.RatedFlows()
	epochs := 0
	for fs.ActiveFlows() > 0 {
		fs.Step(epochLen)
		if epochs++; epochs > 100 {
			t.Fatal("the flows never finished")
		}
	}
	if epochs < 20 || fs.RatedFlows() != rated {
		t.Fatalf("flows were to sit untouched for 20+ epochs: %d epochs, %d re-ratings", epochs, fs.RatedFlows()-rated)
	}
	if rc, rd := recordOf(c), recordOf(d); rc.End != want || rd.End != want {
		t.Fatalf("End = %v and %v, want the finish time computed at admission, %v, bit for bit", rc.End, rd.End, want)
	}
	recs := fs.shards[0].records
	if i := slices.IndexFunc(recs, func(r FlowRecord) bool { return r.ID == c }); recs[i+1].ID != d {
		t.Fatalf("flows due at one instant completed out of ID order: %d then %d", recs[i].ID, recs[i+1].ID)
	}

	// Values computed once on the parent tree, whose FleetSim drained a
	// completion heap.
	const wantRecords, wantLog = "cee43c7aab663fb6", "d60176f3eb71de0e"
	records, log := runDrainScenario()
	if records != wantRecords || log != wantLog {
		t.Fatalf("50-epoch fleet run: records digest %s, epoch-log sha %s; the queued drain gave %s, %s", records, log, wantRecords, wantLog)
	}
}

// TestKillBetweenInjectsMatchesImmediateAdmission pins a barrier whose
// link kill falls between two of its arrivals to what FleetSim produced
// when Inject admitted every flow into its shard on the spot: a kill
// must see the arrivals before it as admitted flows, reroute or stall
// them in ID order, and leave the arrivals after it their own routes.
func TestKillBetweenInjectsMatchesImmediateAdmission(t *testing.T) {
	// Computed once on the parent tree, whose Inject admitted at once.
	const wantRecords, wantLog = "b62550d9c845f7fb", "7d3c0fa26ec9a531"
	records, log := runSameBarrierKillScenario()
	if records != wantRecords || log != wantLog {
		t.Fatalf("50-epoch same-barrier kill run: records digest %s, epoch-log sha %s; immediate admission gave %s, %s", records, log, wantRecords, wantLog)
	}
}

// TestFlowSimRecordsMatchHeapDrain is FlowSim's twin of the test above:
// E12's 3,000-flow websearch run on a k=8 fat-tree at load 0.4, with one
// ToR-aggregation link killed (its flows reroute) and one aggregation-core
// link degraded to 0.96 mid-run. Every record's ID, End bits and stall
// flag must equal what FlowSim produced when it drained a completion heap.
func TestFlowSimRecordsMatchHeapDrain(t *testing.T) {
	topo, err := NewFatTree(8, 800e9)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFlowSim(topo)
	dist := workload.WebSearch()
	arr := workload.NewPoissonForLoad(0.4, topo.NumHosts(), 800e9, dist.MeanBits())
	const nflows = 3000
	unroutable := fs.OfferPoisson(nflows, dist, arr, sim.RNG(1, "workload"))
	tiers := topo.LinksByTier()
	fs.RunUntil(sim.Time(0.15 * nflows / arr.RatePerSec))
	fs.FailLink(tiers[TierToRAgg][0])
	fs.RunUntil(sim.Time(0.4 * nflows / arr.RatePerSec))
	fs.SetLinkCapacityFraction(tiers[TierAggCore][0], 0.96)
	fs.Run()

	recs := fs.Records()
	if len(recs)+*unroutable != nflows || fs.active != 0 {
		t.Fatalf("%d records, %d unroutable, %d active: want all %d flows accounted for", len(recs), *unroutable, fs.active, nflows)
	}
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = fmt.Sprintf("%d %x %t", r.ID, math.Float64bits(float64(r.End)), r.Stalled)
	}
	// Computed once on the parent tree, whose FlowSim drained a
	// completion heap.
	const want = "61bd0e3aed4f90c1"
	if got := eventlog.Digest(lines); got != want {
		t.Fatalf("records digest %s; the heap drain gave %s", got, want)
	}
}
