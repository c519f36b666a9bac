package netsim

import (
	"fmt"
	"slices"
	"strings"

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
//	epoch run (parallel)  — each shard drains its completion heap up to
//	                        the epoch end at the frozen rates; cross
//	                        completions were resolved at the barrier
//
// Every sequential step iterates in ascending flow-ID / link-ID / shard
// order and every parallel step is shard-pure (a cross flow's two
// proxies are each owned by exactly one shard), so the records, event
// log, and every rate are byte-identical at any worker count — the same
// discipline the PHY/MAC pipelines obey.
//
// The fleet model is deliberately weaker than FlowSim's: rates are
// exact weighted max-min within a shard given the pinned cross rates,
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
	cross  map[int]*crossFlow

	records []FlowRecord // stalls + cross completions (shard records merged on demand)
	log     eventlog.Log // one line per epoch, capped at eventlog.DefaultMax

	// Per-epoch counters (reset each Step).
	epochIdx      int
	arrivals      int
	stalls        int
	crossArrivals int

	// onResolved, when set, runs at the sequential point of Step where
	// the epoch's rates are fully resolved (after phase C, before cross
	// completions) — see SetResolvedHook.
	onResolved func()
}

// fleetShard is one pod's slice of the fleet: a shard over the shared
// capacity vector (only its pod's links are ever indexed) holding the
// pod's local flows, plus the per-epoch re-rate bookkeeping.
type fleetShard struct {
	shard
	reRated []*incFlow // flows re-rated this epoch (phase A ∪ phase C)
	seenGen uint64
	done    int // completions this epoch
}

// crossFlow is the fleet-level master record of a two-shard flow (Path
// is the full route); each involved shard holds a proxy restricted to
// its own links.
type crossFlow struct {
	Flow
	proxies []*incFlow // ascending shard order
	shards  []int
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
		cross:    make(map[int]*crossFlow),
	}
	for range NumPods(t) {
		fs.shards = append(fs.shards, &fleetShard{shard: newShard(t, fs.capacity)})
	}
	return fs
}

// Now returns the current barrier time.
func (fs *FleetSim) Now() sim.Time { return fs.now }

// ActiveFlows returns the number of in-flight flows (local + cross).
func (fs *FleetSim) ActiveFlows() int {
	n := len(fs.cross)
	for _, s := range fs.shards {
		n += len(s.active)
	}
	return n
}

// CrossFlows returns the number of in-flight cross-shard flows.
func (fs *FleetSim) CrossFlows() int { return len(fs.cross) }

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
	var out []FlowRecord
	out = append(out, fs.records...)
	for _, s := range fs.shards {
		out = append(out, s.records...)
	}
	slices.SortFunc(out, func(a, b FlowRecord) int {
		if a.End != b.End {
			if a.End < b.End {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	return out
}

// Inject starts a flow at the current barrier. The path is the live
// ECMP route; flows whose links all sit in one pod are local to that
// shard, flows spanning two pods become a cross flow with one proxy per
// shard. Weight is 1 (fleet traffic is best-effort).
func (fs *FleetSim) Inject(src, dst int, sizeBits float64, hash uint64) (int, error) {
	path, err := routeFlow(fs.Topo, fs.capacity, src, dst, sizeBits, hash)
	if err != nil {
		return 0, err
	}
	id := fs.nextID
	fs.nextID++
	fs.admit(Flow{
		ID: id, Src: src, Dst: dst, SizeBits: sizeBits,
		Path: path, Hash: hash, Weight: 1,
		remaining: sizeBits, start: fs.now,
	})
	fs.arrivals++
	return id, nil
}

// admit places a routed flow (new or rerouted) into its shard(s).
func (fs *FleetSim) admit(fl Flow) {
	fl.rate, fl.lastTouch = 0, fs.now
	var shardSet []int
	for _, l := range fl.Path {
		if s := fs.shardOf[l]; !slices.Contains(shardSet, s) {
			shardSet = append(shardSet, s)
		}
	}
	slices.Sort(shardSet)

	if len(shardSet) == 1 {
		fs.shards[shardSet[0]].admit(&incFlow{Flow: fl})
		return
	}

	cf := &crossFlow{Flow: fl, shards: shardSet}
	for _, s := range shardSet {
		p := &incFlow{Flow: fl, proxy: true}
		p.Path = make([]int, 0, len(fl.Path))
		for _, l := range fl.Path {
			if fs.shardOf[l] == s {
				p.Path = append(p.Path, l)
			}
		}
		fs.shards[s].g.addFlow(p)
		cf.proxies = append(cf.proxies, p)
	}
	fs.cross[fl.ID] = cf
	fs.crossArrivals++
}

// retire unindexes a cross flow's proxies and forgets it.
func (fs *FleetSim) retire(cf *crossFlow) {
	for i, s := range cf.shards {
		fs.shards[s].g.removeFlow(cf.proxies[i])
	}
	delete(fs.cross, cf.ID)
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
	for _, f := range sh.crossing(linkID) {
		fl := &f.Flow
		if f.proxy {
			cf := fs.cross[f.ID]
			fs.retire(cf)
			fl = &cf.Flow
		} else {
			sh.g.settle(f)
			sh.remove(f)
		}
		path, err := routeAvoidingDead(fs.Topo, fs.capacity, fl.Src, fl.Dst, fl.Hash+1)
		if err != nil {
			fs.records = append(fs.records, fl.record(fs.now, true))
			fs.stalls++
			continue
		}
		fl.Path = path
		fs.admit(*fl)
	}
}

// Step advances the fleet by one epoch: resolve rates (phases A–C),
// complete cross flows at the barrier, then run every shard's local
// completions at frozen rates in parallel.
func (fs *FleetSim) Step(epochLen sim.Time) {
	epochEnd := fs.now + epochLen

	// Phase A: shard-local waterfill of dirty components; proxies bid.
	fs.runShards(func(sh *fleetShard) {
		sh.seenGen++
		sh.g.now = fs.now
		sh.noteReRated(sh.g.flush(true))
	})

	// Phase B: pin every cross flow at the min of its shards' offers.
	crossIDs := make([]int, 0, len(fs.cross))
	for id := range fs.cross {
		crossIDs = append(crossIDs, id)
	}
	slices.Sort(crossIDs)
	for _, id := range crossIDs {
		cf := fs.cross[id]
		final := cf.proxies[0].offer
		for _, p := range cf.proxies[1:] {
			if p.offer < final {
				final = p.offer
			}
		}
		cf.rate = final
		for i, p := range cf.proxies {
			p.pinned = true
			if p.rate != final {
				p.rate = final
				for _, l := range p.Path {
					fs.shards[cf.shards[i]].g.markDirty(l)
				}
			}
		}
	}

	// Phase C: re-waterfill around the pinned proxies (slack to locals).
	fs.runShards(func(sh *fleetShard) {
		sh.g.now = fs.now
		sh.noteReRated(sh.g.flush(false))
	})

	// Rates are now globally consistent: every dirty component has been
	// re-filled and the pinned proxies carry their barrier rates.
	if fs.onResolved != nil {
		fs.onResolved()
	}

	// Cross completions resolve at the barrier: a cross flow finishing
	// inside this epoch is recorded at its exact finish time and its
	// proxies leave their shards (capacity returns at the next barrier).
	crossDone := 0
	for _, id := range crossIDs {
		cf, ok := fs.cross[id]
		if !ok || cf.rate <= 0 {
			continue
		}
		at := fs.now + sim.Time(cf.remaining/cf.rate)
		if at <= epochEnd {
			fs.records = append(fs.records, cf.record(at, false))
			fs.retire(cf)
			crossDone++
			continue
		}
		cf.remaining -= cf.rate * float64(epochLen)
	}

	// Epoch run: refresh completion entries for re-rated local flows,
	// then drain each shard's heap to the epoch end at frozen rates.
	fs.runShards(func(sh *fleetShard) {
		sh.refresh(sh.reRated, fs.now)
		sh.reRated = sh.reRated[:0]
		sh.done = 0
		for f, at := sh.popDue(epochEnd); f != nil; f, at = sh.popDue(epochEnd) {
			sh.complete(f, at)
			sh.done++
		}
	})

	// Epilogue: one deterministic log line per epoch.
	done := 0
	var perShard []string
	for _, sh := range fs.shards {
		done += sh.done
		perShard = append(perShard, fmt.Sprintf("%d", sh.done))
	}
	var capSum float64
	for _, c := range fs.capacity {
		capSum += c
	}
	fs.log.Addf(
		"epoch=%d t=%.3f arrivals=%d cross_arrivals=%d stalls=%d done=%d cross_done=%d per_shard=[%s] active=%d cross=%d cap_sum=%.6e",
		fs.epochIdx, float64(fs.now), fs.arrivals, fs.crossArrivals, fs.stalls,
		done, crossDone, strings.Join(perShard, ","), fs.ActiveFlows(), len(fs.cross), capSum)
	fs.epochIdx++
	fs.arrivals, fs.crossArrivals, fs.stalls = 0, 0, 0
	fs.now = epochEnd
}

// noteReRated merges a flush's touched flows into the epoch's refresh
// set exactly once per flow (seen markers survive across phases A/C).
func (sh *fleetShard) noteReRated(touched []*incFlow) {
	for _, f := range touched {
		if f.proxy || f.seen == sh.seenGen {
			continue
		}
		f.seen = sh.seenGen
		sh.reRated = append(sh.reRated, f)
	}
}

// runShards executes fn once per shard on the fleet's pool. Shards share
// no mutable state during a phase, so the schedule cannot affect the result.
func (fs *FleetSim) runShards(fn func(*fleetShard)) {
	fs.pool.Run(len(fs.shards), func(i int) { fn(fs.shards[i]) })
}
