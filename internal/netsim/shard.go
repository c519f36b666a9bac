package netsim

import (
	"slices"

	"mosaic/internal/eventlog"
	"mosaic/internal/par"
	"mosaic/internal/sim"
)

// FleetSim is the sharded, epoch-driven driver of the flow-engine core
// for fleet-scale simulation: one shard per pod, rates frozen between
// epoch barriers, and all cross-shard coupling resolved at the barrier
// so the parallel phases touch only shard-local state.
//
// An epoch proceeds:
//
//	barrier (sequential)  — capacity changes, kills/reroutes, arrivals
//	                        routed and left pending on their shards
//	phase A (parallel)    — each shard admits its arrivals and
//	                        re-waterfills its dirty components; proxies
//	                        participate unpinned and their resulting rate
//	                        is the shard's offer for that flow
//	phase B (sequential)  — each cross flow's rate = min of its shard
//	                        offers, walked in ID order off a key list kept
//	                        across epochs; proxies are pinned at that rate
//	                        and shards whose allocation changed are
//	                        re-dirtied
//	phase C (parallel)    — affected components re-waterfill with the
//	                        pinned proxies as fixed demand, returning the
//	                        slack to local flows
//	epoch run (parallel)  — each shard unindexes the proxies of the cross
//	                        flows that completed at the barrier, then scans
//	                        its slab for the flows that finish by the epoch
//	                        end at the frozen rates and completes them in
//	                        (time, ID) order
//
// Every sequential step iterates in ascending flow-ID / link-ID / shard
// order and every parallel step is shard-pure (a cross flow's two
// proxies are each owned by exactly one shard), so the records, event
// log, and every rate are byte-identical at any worker count — the same
// discipline the PHY/MAC pipelines obey.
//
// The fleet model is deliberately weaker than FlowSim's: rates are
// exact max-min within a shard given the pinned cross rates,
// but cross flows advance at the min of per-shard offers (a bounded-
// staleness approximation refreshed whenever either side's component is
// dirtied) and a completion only frees capacity at the next barrier.
type FleetSim struct {
	Topo    *Topology
	shardOf []int
	pool    *par.Pool

	now      sim.Time
	capacity []float64 // shared; written only at barriers
	nextID   int

	shards []*fleetShard
	cross  slab[crossFlow]
	// The cross flows as flowKeys, kept across epochs: admission appends,
	// and phase B drops the keys of retired flows and, when a reroute
	// re-admitted an ID <= crossMax (the largest appended), sorts and
	// dedups before walking them in ascending ID.
	crossKeys   []uint64
	crossMax    int
	crossRepair bool

	records  []FlowRecord // stalls + cross completions (shard records merged on demand)
	sorted   int          // records[:sorted] is in (End, ID) order: each barrier sorts its own segment
	log      eventlog.Log // one line per epoch, capped at eventlog.DefaultMax
	perShard []int        // Step scratch: the epoch record's per_shard list

	// The record merge's inputs (recordLists) and DrainRecords' merge
	// buffer, both reused.
	lists   [][]FlowRecord
	drained []FlowRecord

	// Arrivals Inject left pending since the last admission.
	queued int

	// Flows that left the simulator in finished epochs (FlowTotals).
	completed, stalled uint64

	// Per-epoch counters (reset each Step).
	epochIdx      int
	arrivals      int
	stalls        int
	crossArrivals int

	// onResolved, when set, runs at the sequential point of Step where
	// the epoch's rates are fully resolved (after phase C, before cross
	// completions) — see SetResolvedHook.
	onResolved func()

	// The parallel phase in flight, the pool task that runs it on shard i
	// (bound once in NewFleetSim) and the end of the epoch being stepped.
	phase     func(*FleetSim, *fleetShard)
	shardTask func(i int)
	epochEnd  sim.Time
}

// fleetShard is one pod's slice of the fleet: a shard over the pod's link
// range (its window of the shared capacity vector, so every per-link array
// is pod-sized) holding the pod's local flows, plus the barrier's pending
// arrivals, the epoch's completions and the proxies of the cross flows that
// completed at its barrier, in cross-ID order, still to be unindexed.
type fleetShard struct {
	shard
	pending []arrival
	due     []completion
	gone    []handle
}

// arrival is a routed flow awaiting admission: its inputs and its path in
// the shard's local link numbers, 64 bytes to a slot's 64 hot and 88
// cold. side < 0 marks a local flow, else the arrival is cross flow
// master's proxy[side].
type arrival struct {
	sizeBits float64
	hash     uint64
	id       uint32
	src, dst int32
	master   handle
	side     int8
	n        uint8
	path     [maxPath]int32
}

// crossFlow is the fleet-level master record of a two-shard flow, a
// pointer-free slot of FleetSim.cross; each of its two shards holds a
// proxy restricted to its own links.
type crossFlow struct {
	flow
	shard [2]int    // ascending
	proxy [2]handle // proxy[i] is a slot of shard[i]'s graph
}

// NewFleetSim builds the sharded engine over a fleet topology.
// workers <= 0 runs the parallel phases on GOMAXPROCS goroutines;
// workers == 1 is fully sequential. Results are identical either way.
func NewFleetSim(t *Topology, workers int) *FleetSim {
	fs := &FleetSim{
		Topo:     t,
		shardOf:  LinkShards(t),
		pool:     par.New(workers),
		capacity: nominalCapacity(t),
		crossMax: -1,
	}
	// NewFleet and NewFatTree add the pods' links pod after pod, so pod s
	// owns the one run of IDs [lo, hi) where shardOf steps to s and past it.
	if !slices.IsSorted(fs.shardOf) {
		panic("netsim: the topology does not number its links pod after pod")
	}
	for s := range NumPods(t) {
		lo, _ := slices.BinarySearch(fs.shardOf, s)
		hi, _ := slices.BinarySearch(fs.shardOf, s+1)
		fs.shards = append(fs.shards, &fleetShard{shard: newShard(fs.capacity[lo:hi:hi], lo)})
	}
	fs.shardTask = func(i int) { fs.phase(fs, fs.shards[i]) }
	return fs
}

// ActiveFlows returns the number of in-flight flows (local + cross).
func (fs *FleetSim) ActiveFlows() int {
	n := fs.cross.live()
	for _, s := range fs.shards {
		n += s.active
	}
	return n
}

// CrossFlows returns the number of in-flight cross-shard flows.
func (fs *FleetSim) CrossFlows() int { return fs.cross.live() }

// Waterfills sums component waterfill passes across shards.
func (fs *FleetSim) Waterfills() uint64 {
	var n uint64
	for _, s := range fs.shards {
		n += s.g.waterfills
	}
	return n
}

// RatedFlows sums per-flow rate assignments across shards — the work
// actually done.
func (fs *FleetSim) RatedFlows() uint64 {
	var n uint64
	for _, s := range fs.shards {
		n += s.g.rated
	}
	return n
}

// recEpoch is the one record a FleetSim logs, once per epoch.
var recEpoch = eventlog.NewKind(
	"epoch=%d t=%.3f arrivals=%d cross_arrivals=%d stalls=%d done=%d cross_done=%d per_shard=[%s] active=%d cross=%d cap_sum=%.6e",
	eventlog.Int, eventlog.Float, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Ints,
	eventlog.Int, eventlog.Int, eventlog.Float)

// EventLog returns the per-epoch log lines (the determinism witness:
// its sha must match at any worker count), capped so that the FleetSim
// inside a long-lived mosaicfleetd does not grow by a line per epoch.
func (fs *FleetSim) EventLog() []string { return fs.log.Lines() }

// LogDigest is eventlog.Digest(fs.EventLog()), streamed from the records.
func (fs *FleetSim) LogDigest() string { return fs.log.Digest() }

// Records merges all shard-local and fleet-level records not yet
// drained, ordered by (End, ID) — a deterministic global completion order.
func (fs *FleetSim) Records() []FlowRecord {
	return mergeRecords(nil, fs.recordLists())
}

// recordLists gathers the fleet list and every shard's list into a reused
// slice for mergeRecords, which keeps its heap in it.
func (fs *FleetSim) recordLists() [][]FlowRecord {
	fs.lists = append(fs.lists[:0], fs.records)
	for _, s := range fs.shards {
		fs.lists = append(fs.lists, s.records)
	}
	return fs.lists
}

// FlowTotals returns how many flows have completed and how many have
// stalled since the simulator was built: what counting every record gives,
// drained or not.
func (fs *FleetSim) FlowTotals() (completed, stalled uint64) {
	return fs.completed, fs.stalled + uint64(fs.stalls)
}

// DrainRecords hands fn every record not yet drained, in the (End, ID)
// order Records gives, then forgets them and keeps their buffers. A
// caller that reads records as they are produced (scenario.Run, E24)
// drains at each barrier and so retains one epoch's records, not a run's;
// one that only counts (mosaicfleetd reads FlowTotals) passes a nil fn,
// which truncates and allocates nothing. Drained after a barrier's kills,
// the drains concatenate to what one Records call at the end would give:
// a Step's completions end after the barrier it starts from (unless a
// flow's remaining bits round to zero there), and that barrier's stalls
// are in the same drain as the completions ending at its instant. fn
// must not step the simulator.
func (fs *FleetSim) DrainRecords(fn func(FlowRecord)) {
	if fn != nil {
		fs.drained = mergeRecords(fs.drained[:0], fs.recordLists())
		for _, r := range fs.drained {
			fn(r)
		}
	}
	fs.records, fs.sorted = fs.records[:0], 0
	for _, s := range fs.shards {
		s.records = s.records[:0]
	}
}

// compareRecords orders records by (End, ID). An End is a barrier instant
// or a finish time read off a positive rate, never NaN, so two float
// compares decide it; the function is small enough to inline into the
// merge's heap.
func compareRecords(a, b FlowRecord) int {
	switch {
	case a.End < b.End:
		return -1
	case a.End > b.End:
		return 1
	}
	return a.ID - b.ID
}

// mergeRecords k-way merges the lists onto out, grown once to fit, in
// (End, ID) order. A shard's list arrives ordered (each epoch completes in
// (time, ID) order and epochs ascend), and so does the fleet list (stalls,
// cross completions: each barrier sorts its own segment), so no record is
// sorted again; a list still found out of order — stalls from a kill after
// the last Step, or a tie at a barrier instant — is sorted in place first.
// The next record is the head of the list on top of a binary min-heap of
// the non-empty lists, kept in lists' own backing array and ordered by
// their heads: O(log k) compares a record where a scan of the heads took
// k (DESIGN.md). Heads never compare equal — a flow ID leaves one record —
// so the heap's order is the only one.
func mergeRecords(out []FlowRecord, lists [][]FlowRecord) []FlowRecord {
	total := 0
	heads := lists[:0]
	for _, l := range lists {
		if !slices.IsSortedFunc(l, compareRecords) {
			slices.SortFunc(l, compareRecords)
		}
		if len(l) > 0 {
			heads = append(heads, l)
			total += len(l)
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	out = slices.Grow(out, total)
	for len(heads) > 1 {
		out = append(out, heads[0][0])
		if heads[0] = heads[0][1:]; len(heads[0]) == 0 {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		siftDown(heads, 0)
	}
	if len(heads) == 1 {
		out = append(out, heads[0]...)
	}
	return out
}

// siftDown moves the list at i down mergeRecords' heap until no child's
// head precedes its own.
func siftDown(h [][]FlowRecord, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && compareRecords(h[c+1][0], h[c][0]) < 0 {
			c++
		}
		if compareRecords(h[c][0], h[i][0]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Inject starts a flow at the current barrier on the live ECMP route as
// the capacity stands, so an unroutable flow fails here. A flow whose
// links sit in one pod is local to that shard, one spanning two pods a
// cross flow with a proxy per shard. Inject takes the ID (and a cross
// slot and key) and leaves the flow pending on its shards for phase A.
func (fs *FleetSim) Inject(src, dst int, sizeBits float64, hash uint64) (int, error) {
	var buf [maxPath]int
	path, err := routeFlow(fs.Topo, fs.capacity, buf[:0], fs.nextID, src, dst, sizeBits, hash)
	if err != nil {
		return 0, err
	}
	id := fs.nextID
	fs.nextID++
	fs.arrivals++
	fs.queued++
	a := arrival{sizeBits: sizeBits, hash: hash, id: uint32(id), src: int32(src), dst: int32(dst), side: -1}
	lo, hi := fs.span(path)
	if lo == hi {
		fs.shards[lo].active++
		fs.shards[lo].enqueue(a, path)
		return id, nil
	}
	fl := flow{ident: ident{ID: id, Src: src, Dst: dst, SizeBits: sizeBits, Hash: hash, start: fs.now},
		remaining: sizeBits, lastTouch: fs.now}
	a.master = fs.takeCross(fl, lo, hi)
	for i, s := range [2]int{lo, hi} {
		a.side = int8(i)
		fs.shards[s].enqueue(a, path)
	}
	return id, nil
}

func (s *fleetShard) enqueue(a arrival, route []int) {
	a.n = s.g.localPath(&a.path, route)
	s.pending = append(s.pending, a)
}

// admitPending admits the shard's pending arrivals in ID order, as Inject
// once did on the spot: slab put, index appends and dirty marks, and a
// proxy's handle into its side of its cross flow — shard-pure, so the
// shards run it in parallel.
func (fs *FleetSim) admitPending(sh *fleetShard) {
	for i := range sh.pending {
		a := &sh.pending[i]
		id := ident{ID: int(a.id), Src: int(a.src), Dst: int(a.dst), SizeBits: a.sizeBits, Hash: a.hash, start: fs.now}
		h := sh.g.addFlow(flowHot{remaining: a.sizeBits, lastTouch: fs.now, n: a.n, path: a.path, proxy: a.side >= 0},
			flowSlot{ident: id, master: a.master})
		if a.side >= 0 {
			fs.cross.v[a.master].proxy[a.side] = h
		}
	}
	sh.pending = sh.pending[:0]
}

// span returns the lowest and highest shard of route's links.
func (fs *FleetSim) span(route []int) (lo, hi int) {
	lo, hi = fs.shardOf[route[0]], fs.shardOf[route[0]]
	for _, l := range route[1:] {
		lo, hi = min(lo, fs.shardOf[l]), max(hi, fs.shardOf[l])
	}
	for _, l := range route {
		if s := fs.shardOf[l]; s != lo && s != hi {
			panic("netsim: route spans more than two shards")
		}
	}
	return lo, hi
}

// takeCross takes a cross slot and key; the proxy handles come at admission.
func (fs *FleetSim) takeCross(fl flow, lo, hi int) handle {
	ch := fs.cross.put(crossFlow{flow: fl, shard: [2]int{lo, hi}})
	if fl.ID <= fs.crossMax {
		fs.crossRepair = true // a reroute: out of order, or beside its own stale key
	} else {
		fs.crossMax = fl.ID
	}
	fs.crossKeys = append(fs.crossKeys, flowKey(fl.ID, ch))
	fs.crossArrivals++
	return ch
}

// admit places a rerouted flow into the shard(s) of its new route at once.
func (fs *FleetSim) admit(fl flow, route []int) {
	fl.rate, fl.lastTouch = 0, fs.now
	lo, hi := fs.span(route)
	if lo == hi {
		fs.shards[lo].admit(fl, route)
		return
	}
	ch := fs.takeCross(fl, lo, hi)
	for i, s := range [2]int{lo, hi} {
		g := fs.shards[s].g
		p := flowHot{remaining: fl.remaining, lastTouch: fl.lastTouch, proxy: true}
		p.setPath(route, g)
		fs.cross.v[ch].proxy[i] = g.addFlow(p, flowSlot{ident: fl.ident, master: ch})
	}
}

// retire unindexes a cross flow's proxies, frees its slot and returns
// the flow value.
func (fs *FleetSim) retire(ch handle) flow {
	cf := &fs.cross.v[ch]
	for i, h := range cf.proxy {
		fs.shards[cf.shard[i]].g.removeFlow(h)
	}
	fs.cross.drop(ch)
	return cf.flow
}

// SetLinkFraction scales a link to frac of nominal at the barrier, with
// setLinkFraction's clamp and no-op semantics. frac=0 kills the link:
// crossing flows reroute (in ascending flow-ID order) or stall. A change
// first admits the barrier's pending arrivals, if any, as if at their
// Inject.
func (fs *FleetSim) SetLinkFraction(linkID int, frac float64) {
	changed, dead := setLinkFraction(fs.Topo, fs.capacity, linkID, frac)
	if !changed {
		return
	}
	if fs.queued > 0 {
		for _, sh := range fs.shards {
			fs.admitPending(sh)
		}
		fs.queued = 0
	}
	sh := fs.shards[fs.shardOf[linkID]]
	sh.g.markDirty(linkID - sh.g.base)
	if !dead {
		return
	}
	// Re-admit (possibly changing local/cross classification) or stall
	// every flow crossing the dead link.
	sh.g.now = fs.now
	for _, h := range sh.crossing(linkID) {
		var fl flow
		if f := &sh.g.flows.hot[h]; f.proxy {
			fl = fs.retire(sh.g.flows.v[h].master)
		} else {
			sh.g.settle(f)
			fl = sh.remove(h)
		}
		var buf [maxPath]int
		path, err := routeAvoidingDead(fs.Topo, fs.capacity, buf[:0], fl.Src, fl.Dst, fl.Hash+1)
		if err != nil {
			fs.records = append(fs.records, fl.record(fs.now, true))
			fs.stalls++
			continue
		}
		fs.admit(fl, path)
	}
}

// Step advances the fleet by one epoch: resolve rates (phases A–C),
// complete cross flows at the barrier, then run every shard's local
// completions at frozen rates in parallel.
func (fs *FleetSim) Step(epochLen sim.Time) {
	epochEnd := fs.now + epochLen
	fs.epochEnd = epochEnd

	// Phase A: each shard admits its pending arrivals, then waterfills its
	// dirty components; proxies bid.
	fs.runShards(func(fs *FleetSim, sh *fleetShard) {
		fs.admitPending(sh)
		sh.g.now = fs.now
		sh.g.flush(true)
	})
	fs.queued = 0

	// Phase B: pin every cross flow at the min of its shards' offers. A
	// key is live while its slot holds its flow; a retired slot is free or
	// holds a younger ID.
	live := fs.crossKeys[:0]
	for _, k := range fs.crossKeys {
		if h := handle(k); fs.cross.used[h] && fs.cross.v[h].ID == int(k>>32) {
			live = append(live, k)
		}
	}
	fs.crossKeys = live
	if fs.crossRepair {
		slices.Sort(fs.crossKeys)
		fs.crossKeys = slices.Compact(fs.crossKeys)
		fs.crossRepair = false
	}
	for _, k := range fs.crossKeys {
		cf := &fs.cross.v[handle(k)]
		g := [2]*flowGraph{fs.shards[cf.shard[0]].g, fs.shards[cf.shard[1]].g}
		cf.rate = min(g[0].flows.v[cf.proxy[0]].offer, g[1].flows.v[cf.proxy[1]].offer)
		for i, h := range cf.proxy {
			p := &g[i].flows.hot[h]
			p.pinned = true
			if p.rate != cf.rate {
				p.rate = cf.rate
				for _, l := range p.links() {
					g[i].markDirty(int(l))
				}
			}
		}
	}

	// Phase C: re-waterfill around the pinned proxies (slack to locals).
	fs.runShards(func(_ *FleetSim, sh *fleetShard) { sh.g.flush(false) })

	// Rates are now globally consistent: every dirty component has been
	// re-filled and the pinned proxies carry their barrier rates.
	if fs.onResolved != nil {
		fs.onResolved()
	}

	// Cross completions resolve at the barrier: a cross flow finishing
	// inside this epoch is recorded at its exact finish time and frees its
	// slot; its proxies leave their shards at the start of the epoch run
	// (capacity returns at the next barrier).
	crossDone := 0
	for _, k := range fs.crossKeys {
		cf := &fs.cross.v[handle(k)]
		if cf.rate <= 0 {
			continue
		}
		at := fs.now + sim.Time(cf.remaining/cf.rate)
		if at <= epochEnd {
			fs.records = append(fs.records, cf.record(at, false))
			for i, h := range cf.proxy {
				sh := fs.shards[cf.shard[i]]
				sh.gone = append(sh.gone, h)
			}
			fs.cross.drop(handle(k))
			crossDone++
			continue
		}
		cf.remaining -= float64(cf.rate * float64(epochLen)) // rounded, as in settle
	}
	// This barrier's stalls and cross completions, in (End, ID) order, so
	// Records merges lists that are already ordered.
	slices.SortFunc(fs.records[fs.sorted:], compareRecords)
	fs.sorted = len(fs.records)

	// Epoch run: the barrier's completed proxies leave in the order the
	// barrier retired them, so slot reuse is as if it had removed them.
	// Rates are frozen until the next barrier, so one scan of the finish
	// times on the slab finds the flows due by the epoch end, and only
	// those are sorted, by (time, ID).
	fs.runShards(func(fs *FleetSim, sh *fleetShard) {
		for _, h := range sh.gone {
			sh.g.removeFlow(h)
		}
		sh.gone = sh.gone[:0]
		sh.due = sh.due[:0]
		for h := range sh.g.flows.hot {
			if at, ok := sh.g.finish(handle(h)); ok && at <= fs.epochEnd {
				sh.due = append(sh.due, completion{at, sh.g.flows.v[h].ID, handle(h)})
			}
		}
		slices.SortFunc(sh.due, completion.compare)
		for _, c := range sh.due {
			sh.complete(c.h, c.at)
		}
	})

	// Epilogue: one deterministic log line per epoch.
	done := 0
	fs.perShard = fs.perShard[:0]
	for _, sh := range fs.shards {
		done += len(sh.due)
		fs.perShard = append(fs.perShard, len(sh.due))
	}
	var capSum float64
	for _, c := range fs.capacity {
		capSum += c
	}
	fs.log.Add(recEpoch).Int(fs.epochIdx).Float(float64(fs.now)).Int(fs.arrivals).Int(fs.crossArrivals).Int(fs.stalls).
		Int(done).Int(crossDone).Ints(fs.perShard).Int(fs.ActiveFlows()).Int(fs.cross.live()).Float(capSum)
	fs.epochIdx++
	fs.completed += uint64(done + crossDone)
	fs.stalled += uint64(fs.stalls)
	fs.arrivals, fs.crossArrivals, fs.stalls = 0, 0, 0
	fs.now = epochEnd
}

// runShards executes phase once per shard on the fleet's pool. Shards
// share no mutable state during a phase, so the schedule cannot affect the
// result. A phase is handed the FleetSim rather than capturing it, so the
// literals in Step close over nothing and an epoch allocates no closure.
func (fs *FleetSim) runShards(phase func(*FleetSim, *fleetShard)) {
	fs.phase = phase
	fs.pool.Run(len(fs.shards), fs.shardTask)
}
