package netsim

import (
	"cmp"
	"slices"
	"strconv"

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
//	phase A (parallel)    — each shard re-waterfills its dirty
//	                        components; cross-shard proxies participate
//	                        unpinned and their resulting rate is the
//	                        shard's offer for that flow
//	phase B (sequential)  — each cross flow's rate = min of its shard
//	                        offers; proxies are pinned at that rate and
//	                        shards whose allocation changed are re-dirtied
//	phase C (parallel)    — affected components re-waterfill with the
//	                        pinned proxies as fixed demand, returning the
//	                        slack to local flows
//	epoch run (parallel)  — each shard scans its slab for the flows that
//	                        finish by the epoch end at the frozen rates
//	                        and completes them in (time, ID) order; cross
//	                        completions were resolved at the barrier
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

	shards    []*fleetShard
	cross     slab[crossFlow]
	crossKeys []uint64 // Step scratch: the live cross flows as flowKeys, ascending ID

	records  []FlowRecord // stalls + cross completions (shard records merged on demand)
	log      eventlog.Log // one line per epoch, capped at eventlog.DefaultMax
	perShard []byte       // Step scratch: the log line's per_shard list

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

// fleetShard is one pod's slice of the fleet: a shard over the shared
// capacity vector (only its pod's links are ever indexed) holding the
// pod's local flows, plus the completions of the epoch in progress.
type fleetShard struct {
	shard
	due []completion
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
	}
	for range NumPods(t) {
		fs.shards = append(fs.shards, &fleetShard{shard: newShard(t, fs.capacity)})
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

// EventLog returns the per-epoch log lines (the determinism witness:
// its sha must match at any worker count), capped so that the FleetSim
// inside a long-lived mosaicfleetd does not grow by a line per epoch.
func (fs *FleetSim) EventLog() []string { return fs.log.Lines() }

// Records merges all shard-local and fleet-level records, ordered by
// (End, ID) — a deterministic global completion order.
func (fs *FleetSim) Records() []FlowRecord {
	lists := make([][]FlowRecord, 0, 1+len(fs.shards))
	lists = append(lists, fs.records)
	for _, s := range fs.shards {
		lists = append(lists, s.records)
	}
	return mergeRecords(lists)
}

// FlowTotals returns how many flows have completed and how many have
// stalled since the simulator was built: what counting Records() gives
// when no record was ever dropped.
func (fs *FleetSim) FlowTotals() (completed, stalled uint64) {
	return fs.completed, fs.stalled + uint64(fs.stalls)
}

// DropRecords forgets the records, keeping their buffers for reuse: a
// caller that steps one FleetSim for as long as it lives and only counts
// outcomes (mosaicfleetd) drops every epoch and so retains nothing.
func (fs *FleetSim) DropRecords() {
	fs.records = fs.records[:0]
	for _, s := range fs.shards {
		s.records = s.records[:0]
	}
}

func compareRecords(a, b FlowRecord) int { return cmp.Or(cmp.Compare(a.End, b.End), a.ID-b.ID) }

// mergeRecords k-way merges the lists into one pre-sized (End, ID)-ordered
// list. A shard's list arrives ordered (each epoch completes in (time, ID)
// order and epochs ascend), so local completions — nine records in ten —
// are never sorted again; the fleet list (stalls, cross completions) is in
// flow-ID order, and any list found out of order is sorted in place first.
// The minimum is a scan over the list heads, measured at the 12 pods of a
// fleet day; past ~18 lists a full sort compares less (DESIGN.md).
func mergeRecords(lists [][]FlowRecord) []FlowRecord {
	total := 0
	for _, l := range lists {
		if !slices.IsSortedFunc(l, compareRecords) {
			slices.SortFunc(l, compareRecords)
		}
		total += len(l)
	}
	out := make([]FlowRecord, 0, total)
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || compareRecords(l[0], lists[best][0]) < 0) {
				best = i
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}

// Inject starts a flow at the current barrier. The path is the live
// ECMP route; flows whose links all sit in one pod are local to that
// shard, flows spanning two pods become a cross flow with one proxy per
// shard.
func (fs *FleetSim) Inject(src, dst int, sizeBits float64, hash uint64) (int, error) {
	var buf [maxPath]int
	path, err := routeFlow(fs.Topo, fs.capacity, buf[:0], fs.nextID, src, dst, sizeBits, hash)
	if err != nil {
		return 0, err
	}
	id := fs.nextID
	fs.nextID++
	fs.admit(flow{
		ID: id, Src: src, Dst: dst, SizeBits: sizeBits, Hash: hash,
		remaining: sizeBits, start: fs.now,
	}, path)
	fs.arrivals++
	return id, nil
}

// admit places a flow (new or rerouted) into the shard(s) of its route.
func (fs *FleetSim) admit(fl flow, route []int) {
	fl.rate, fl.lastTouch = 0, fs.now
	lo, hi := fs.shardOf[route[0]], fs.shardOf[route[0]]
	for _, l := range route[1:] {
		lo, hi = min(lo, fs.shardOf[l]), max(hi, fs.shardOf[l])
	}
	if lo == hi {
		fs.shards[lo].admit(fl, route)
		return
	}

	ch := fs.cross.put(crossFlow{flow: fl, shard: [2]int{lo, hi}})
	links := 0
	for i, s := range [2]int{lo, hi} {
		p := flowSlot{flow: fl, proxy: true, master: ch}
		p.setPath(route, fs.shardOf, s)
		links += int(p.n)
		fs.cross.v[ch].proxy[i] = fs.shards[s].g.addFlow(p)
	}
	if links != len(route) {
		panic("netsim: route spans more than two shards")
	}
	fs.crossArrivals++
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
// crossing flows reroute (in ascending flow-ID order) or stall.
func (fs *FleetSim) SetLinkFraction(linkID int, frac float64) {
	changed, dead := setLinkFraction(fs.Topo, fs.capacity, linkID, frac)
	if !changed {
		return
	}
	sh := fs.shards[fs.shardOf[linkID]]
	sh.g.markDirty(linkID)
	if !dead {
		return
	}
	// Re-admit (possibly changing local/cross classification) or stall
	// every flow crossing the dead link.
	sh.g.now = fs.now
	for _, h := range sh.crossing(linkID) {
		var fl flow
		if f := &sh.g.flows.v[h]; f.proxy {
			fl = fs.retire(f.master)
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

	// Phase A: shard-local waterfill of dirty components; proxies bid.
	fs.runShards(func(fs *FleetSim, sh *fleetShard) {
		sh.g.now = fs.now
		sh.g.flush(true)
	})

	// Phase B: pin every cross flow at the min of its shards' offers.
	fs.crossKeys = fs.crossKeys[:0]
	for ch := range fs.cross.v {
		if fs.cross.used[ch] {
			fs.crossKeys = append(fs.crossKeys, flowKey(fs.cross.v[ch].ID, handle(ch)))
		}
	}
	slices.Sort(fs.crossKeys)
	for _, k := range fs.crossKeys {
		cf := &fs.cross.v[handle(k)]
		g := [2]*flowGraph{fs.shards[cf.shard[0]].g, fs.shards[cf.shard[1]].g}
		cf.rate = min(g[0].flows.v[cf.proxy[0]].offer, g[1].flows.v[cf.proxy[1]].offer)
		for i, h := range cf.proxy {
			p := &g[i].flows.v[h]
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
	// inside this epoch is recorded at its exact finish time and its
	// proxies leave their shards (capacity returns at the next barrier).
	crossDone := 0
	for _, k := range fs.crossKeys {
		cf := &fs.cross.v[handle(k)]
		if cf.rate <= 0 {
			continue
		}
		at := fs.now + sim.Time(cf.remaining/cf.rate)
		if at <= epochEnd {
			fs.records = append(fs.records, cf.record(at, false))
			fs.retire(handle(k))
			crossDone++
			continue
		}
		cf.remaining -= cf.rate * float64(epochLen)
	}

	// Epoch run: rates are frozen until the next barrier, so one scan of
	// the finish times on the slab finds the flows due by the epoch end,
	// and only those are sorted, by (time, ID).
	fs.runShards(func(fs *FleetSim, sh *fleetShard) {
		sh.due = sh.due[:0]
		for h := range sh.g.flows.v {
			if c, ok := sh.g.completion(handle(h)); ok && c.at <= fs.epochEnd {
				sh.due = append(sh.due, c)
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
	for i, sh := range fs.shards {
		done += len(sh.due)
		if i > 0 {
			fs.perShard = append(fs.perShard, ',')
		}
		fs.perShard = strconv.AppendInt(fs.perShard, int64(len(sh.due)), 10)
	}
	var capSum float64
	for _, c := range fs.capacity {
		capSum += c
	}
	fs.log.Addf(
		"epoch=%d t=%.3f arrivals=%d cross_arrivals=%d stalls=%d done=%d cross_done=%d per_shard=[%s] active=%d cross=%d cap_sum=%.6e",
		fs.epochIdx, float64(fs.now), fs.arrivals, fs.crossArrivals, fs.stalls,
		done, crossDone, fs.perShard, fs.ActiveFlows(), fs.cross.live(), capSum)
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
