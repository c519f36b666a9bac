package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mosaic/internal/sim"
)

// Slot reuse: a freed slot is reused LIFO — by the next flow admitted, or
// by the same flow coming back on a new path. Flow 1 leaves its slot
// mid-transfer, flow 2 takes the slot and finishes there, and flow 1 is
// rerouted back into it before its old path's finish time. Each flow must
// complete at the finish time of the path it is on: flow 2 never at flow
// 1's, flow 1 never at its old path's. At each reuse the slot's hot and
// cold halves describe the one flow that holds it.
func TestCompletionStaleAfterSlotReuse(t *testing.T) {
	topo, err := NewLeafSpine(2, 2, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	s := NewFlowSim(topo)
	h := topo.Hosts()
	admit := func(fl flow, hash uint64) handle {
		t.Helper()
		route, err := topo.Path(nil, fl.Src, fl.Dst, hash)
		if err != nil {
			t.Fatal(err)
		}
		fl.lastTouch = s.now
		hd := s.admit(fl, route)
		s.flush()
		checkIndices(t, s.g, true, fmt.Sprintf("flow %d admitted", fl.ID))
		f, want := s.g.view(hd), flowHot{}
		want.setPath(route, s.g)
		if f.ident != fl.ident || f.remaining != fl.remaining || !slices.Equal(f.links(), want.links()) {
			t.Fatalf("slot %d holds flow %d with %g bits left on %v; admitted flow %d with %g on %v",
				hd, f.ID, f.remaining, f.links(), fl.ID, fl.remaining, route)
		}
		return hd
	}

	// Alone at 100G, flow 1's 1 Gb would finish at t=10 ms.
	ha := admit(flow{ident: ident{ID: 1, Src: h[0], Dst: h[2], SizeBits: 1e9}, remaining: 1e9}, 0)
	oldPath := slices.Clone(s.g.flows.hot[ha].links())

	// At 2 ms it leaves with 0.8 Gb to go, as a reroute takes it off.
	s.RunUntil(0.002)
	s.g.now = s.now
	s.g.settle(&s.g.flows.hot[ha])
	one := s.remove(ha)
	s.flush()
	if one.ID != 1 || one.remaining != 0.8e9 {
		t.Fatalf("removal returned flow %d with %g bits left, want flow 1 with 0.8e9", one.ID, one.remaining)
	}

	// Flow 2 reuses the slot and finishes there, 2 ms later.
	if hb := admit(flow{ident: ident{ID: 2, Src: h[1], Dst: h[3], SizeBits: 0.2e9, start: s.now}, remaining: 0.2e9}, 0); hb != ha {
		t.Fatalf("free list is not LIFO: flow 2 got slot %d, want %d", hb, ha)
	}
	s.RunUntil(0.005)

	// Flow 1 comes back into the same slot on the other spine at 5 ms and
	// finishes its 0.8 Gb at 13 ms.
	if hr := admit(one, 1); hr != ha {
		t.Fatalf("free list is not LIFO: rerouted flow 1 got slot %d, want %d", hr, ha)
	}
	if slices.Equal(s.g.flows.hot[ha].links(), oldPath) {
		t.Fatal("hash 1 did not move flow 1 to a new path")
	}
	s.Run()

	want := map[int]float64{1: 0.013, 2: 0.004}
	recs := s.Records()
	if len(recs) != 2 {
		t.Fatalf("want flows 1 and 2 recorded, got %+v", recs)
	}
	for _, r := range recs {
		if r.Stalled || math.Abs(float64(r.End)-want[r.ID]) > 1e-12 {
			t.Errorf("flow %d ended at %v (stalled %t), want %v", r.ID, r.End, r.Stalled, want[r.ID])
		}
	}
}

// The waterfill's half of a slot is one cache line, and neither half holds
// a pointer, so the GC never scans the slab: a field added to flowHot that
// spills the line, or a pointer in either half, fails here.
func TestFlowSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(flowHot{}); size != 64 {
		t.Errorf("flowHot is %d bytes, want one 64-byte cache line", size)
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[flowHot](), reflect.TypeFor[flowSlot]()} {
		if p := pointerField(typ); p != "" {
			t.Errorf("%s holds a pointer in %s", typ, p)
		}
	}
}

// pointerField names the first field of typ, at any depth, whose type
// holds a pointer; "" if there is none.
func pointerField(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			if p := pointerField(typ.Field(i).Type); p != "" {
				return typ.Field(i).Name + "/" + p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return ""
	}
	return typ.Kind().String()
}

// A route that does not fit the slot's inline path is refused loudly,
// never truncated.
func TestSetPathRejectsOverlongRoute(t *testing.T) {
	var slot flowHot
	g := newFlowGraph(make([]float64, 8), 0)
	slot.setPath([]int{1, 2, 3, 4, 5, 6}, g)
	if got := slot.links(); !slices.Equal(got, []int32{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("six-link route stored as %v", got)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "inline path") {
			t.Fatalf("seven-link route: recovered %q, want the inline-path panic", msg)
		}
	}()
	slot.setPath([]int{1, 2, 3, 4, 5, 6, 7}, g)
}

// Flow IDs up to the sort key's 32 bits order correctly; the first ID
// past them is refused by both drivers rather than wrapped into the key
// (a key built from a truncated ID would sort flow 2^32 as flow 0).
func TestFlowIDBeyondSortKeyRejected(t *testing.T) {
	if flowKey(maxFlowID, 0) <= flowKey(maxFlowID-1, ^handle(0)) {
		t.Fatal("flowKey does not order the two largest IDs")
	}
	topo, err := NewFleet(2, 2, 1, 2, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Hosts()

	fleet := NewFleetSim(topo, 1)
	fleet.nextID = maxFlowID
	if id, err := fleet.Inject(h[0], h[1], 1e9, 0); err != nil || id != maxFlowID {
		t.Fatalf("last representable ID: got (%d, %v)", id, err)
	}
	if _, err := fleet.Inject(h[0], h[1], 1e9, 0); !errors.Is(err, errFlowIDs) {
		t.Fatalf("FleetSim admitted flow ID %d: err = %v", maxFlowID+1, err)
	}
	fleet.Step(1)
	if recs := fleet.Records(); len(recs) != 1 || recs[0].ID != maxFlowID {
		t.Fatalf("the last representable flow did not complete under its own ID: %+v", recs)
	}

	fs := NewFlowSim(topo)
	fs.nextID = maxFlowID + 1
	if _, err := fs.StartFlow(h[0], h[1], 1e9, 0); !errors.Is(err, errFlowIDs) {
		t.Fatalf("FlowSim admitted flow ID %d: err = %v", maxFlowID+1, err)
	}
	if fs.active != 0 || fs.nextID != maxFlowID+1 {
		t.Fatal("a refused flow left state behind")
	}
}

// The k-way merge is the old full (End, ID) sort: on randomized shard
// lists with exact End ties across lists, barrier stalls sharing one
// instant, an empty list, and a fleet list in flow-ID rather than End
// order.
func TestRecordsMergeEqualsSort(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var lists [][]FlowRecord
		var all []FlowRecord
		id := 0
		next := func(end sim.Time, stalled bool) FlowRecord {
			id++
			return FlowRecord{ID: id, SizeBits: 1, End: end, Stalled: stalled}
		}
		// Fleet list: stalls at a few barrier instants and cross
		// completions at arbitrary times, appended in flow-ID order.
		var fleet []FlowRecord
		for i := rng.Intn(40); i > 0; i-- {
			if rng.Intn(2) == 0 {
				fleet = append(fleet, next(sim.Time(rng.Intn(4)), true))
			} else {
				fleet = append(fleet, next(sim.Time(rng.Intn(16))/4, false))
			}
		}
		lists = append(lists, fleet, nil)
		// Shard lists: (End, ID)-ordered, End drawn from a small grid so
		// ties across lists are the rule.
		for s := 1 + rng.Intn(5); s > 0; s-- {
			var l []FlowRecord
			for i := rng.Intn(60); i > 0; i-- {
				l = append(l, next(sim.Time(rng.Intn(16))/4, false))
			}
			slices.SortFunc(l, compareRecords)
			lists = append(lists, l)
		}
		for _, l := range lists {
			all = append(all, l...)
		}
		want := slices.Clone(all)
		slices.SortFunc(want, compareRecords)
		if got := mergeRecords(lists); !slices.Equal(got, want) {
			t.Fatalf("seed %d: merge of %d lists differs from the full sort", seed, len(lists))
		}
	}
}

// steadyFleet is a two-pod fleet holding `locals` long-lived local flows,
// warmed with the churn that epoch() repeats: k short flows in (a few of
// them cross-pod), about k out.
func steadyFleet(t *testing.T, locals int) (fs *FleetSim, epoch func()) {
	t.Helper()
	topo, err := NewFleet(2, 4, 2, 8, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	fs = NewFleetSim(topo, 1)
	h := topo.Hosts()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < locals; i++ {
		src := rng.Intn(32)
		if _, err := fs.Inject(h[src], h[(src+1+rng.Intn(31))%32], 1e18, rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	epoch = func() {
		for i := 0; i < 16; i++ {
			src, dst := rng.Intn(32), 32+rng.Intn(32)
			if i%4 != 0 {
				dst = (src + 1 + rng.Intn(31)) % 32
			}
			if _, err := fs.Inject(h[src], h[dst], 1e6, rng.Uint64()); err != nil {
				t.Fatal(err)
			}
		}
		fs.Step(1)
	}
	for i := 0; i < 50; i++ {
		epoch()
	}
	fs.DropRecords()
	return fs, epoch
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// A warmed constant-population epoch allocates only what its log line
// costs (the rendered string and its boxed arguments; the phases and the
// pool task are bound once in NewFleetSim): nothing per injected flow,
// nothing per completion, and nothing that scales with the local flows
// being re-rated — the slab, the link indices, the due lists and the
// scratch buffers (the log line's per_shard list among them) have all
// reached their working size.
func TestFleetSimSteadyEpochAllocs(t *testing.T) {
	var allocs [2]float64
	for i, locals := range []int{200, 4000} {
		fs, epoch := steadyFleet(t, locals)
		allocs[i] = testing.AllocsPerRun(40, func() {
			epoch()
			fs.DropRecords()
		})
		if fs.ActiveFlows() < locals || fs.ActiveFlows() > locals+64 {
			t.Fatalf("%d locals: population drifted to %d, the epoch is not steady", locals, fs.ActiveFlows())
		}
		if rated := fs.RatedFlows(); rated < uint64(40*locals) {
			t.Fatalf("%d locals: only %d rate assignments; the epochs re-rated nothing", locals, rated)
		}
	}
	t.Logf("allocs per steady epoch: %.1f at 200 locals, %.1f at 4000", allocs[0], allocs[1])
	if allocs[0] > 4 && !raceEnabled {
		t.Errorf("steady epoch allocates %.1f times, want at most the log line (4)", allocs[0])
	}
	if allocs[1] > allocs[0]+4 {
		t.Errorf("allocations grow with the local population: %.1f at 200 flows, %.1f at 4000", allocs[0], allocs[1])
	}
}

// FlowTotals counts exactly what counting Records() would — at every
// instant, a stall between two barriers included — and DropRecords leaves
// nothing behind, so a FleetSim stepped forever by a caller that only
// counts retains no more than an epoch's records. (The name predates
// DrainRecords' removal; the test floor pins it.)
func TestFleetSimDrainRecords(t *testing.T) {
	fs, epoch := steadyFleet(t, 50)
	retained := func() int {
		n := len(fs.records)
		for _, sh := range fs.shards {
			n += len(sh.records)
		}
		return n
	}
	// steadyFleet dropped its warm-up records: count from here.
	wantDone, wantStalled := fs.FlowTotals()
	countRecords := func() {
		t.Helper()
		for _, r := range fs.Records() {
			if r.Stalled {
				wantStalled++
			} else {
				wantDone++
			}
		}
		if done, stalled := fs.FlowTotals(); done != wantDone || stalled != wantStalled {
			t.Fatalf("FlowTotals = %d completed, %d stalled; counting Records gives %d, %d", done, stalled, wantDone, wantStalled)
		}
	}
	base := wantDone
	epoch()
	epoch()
	countRecords()
	if wantDone == base {
		t.Fatal("two epochs completed nothing; the scenario is too weak")
	}
	fs.DropRecords()
	if n := retained(); n != 0 || len(fs.Records()) != 0 {
		t.Fatalf("%d records retained after a drop", n)
	}
	if done, stalled := fs.FlowTotals(); done != wantDone || stalled != wantStalled {
		t.Fatalf("dropping the records moved the totals to %d, %d", done, stalled)
	}
	peak := 0
	for e := 0; e < 5000; e++ {
		epoch()
		peak = max(peak, retained())
		countRecords()
		fs.DropRecords()
	}
	if peak == 0 || peak > 64 {
		t.Fatalf("a dropped FleetSim held up to %d records across 5000 epochs, want (0, 64]", peak)
	}

	// Killing a host's access link strands its long-lived flows: the
	// stalls count at once, and again the same after the barrier.
	fs.SetLinkFraction(fs.Topo.LinksByTier()[TierHostToR][0], 0)
	countRecords()
	if wantStalled == 0 {
		t.Fatal("the access-link kill stalled nothing; the scenario is too weak")
	}
	fs.DropRecords()
	fs.Step(1)
	countRecords()
}
