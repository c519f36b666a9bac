package netsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mosaic/internal/sim"
)

// flow is one transfer in the fluid flow model: the value that is
// admitted into a slab slot, and that travels on when a reroute removes
// it from one slot and re-admits it into another.
type flow struct {
	ID       int
	Src, Dst int
	SizeBits float64
	Hash     uint64

	remaining float64
	rate      float64
	start     sim.Time
	lastTouch sim.Time
}

// record closes the flow out at end, completed or stalled.
func (f *flow) record(end sim.Time, stalled bool) FlowRecord {
	return FlowRecord{ID: f.ID, SizeBits: f.SizeBits, Start: f.start, End: end, Stalled: stalled}
}

// FlowRecord is a completed (or abandoned) flow.
type FlowRecord struct {
	ID       int
	SizeBits float64
	Start    sim.Time
	End      sim.Time
	Stalled  bool // true if the flow could never finish (no route)
}

// FCT returns the flow completion time.
func (r FlowRecord) FCT() sim.Time { return r.End - r.Start }

var (
	// errFlowSize rejects flow sizes that are not positive and finite.
	errFlowSize = errors.New("netsim: flow size must be positive and finite")
	// errSelfFlow rejects a flow from a host to itself: it has no path
	// and would never complete.
	errSelfFlow = errors.New("netsim: flow source and destination are the same host")
	// errDeadPath is routeAvoidingDead's verdict on one ECMP attempt; a
	// sentinel, so up to 64 discarded retries format nothing.
	errDeadPath = errors.New("netsim: path through dead link")
	// errFlowIDs refuses the flow whose ID would not fit a flowKey.
	errFlowIDs = errors.New("netsim: flow IDs exhausted")
)

// routeFlow is the one admission check both drivers share: it validates
// a flow request (id is the ID it would get) and returns its live ECMP
// path, appended to buf.
func routeFlow(t *Topology, capacity []float64, buf []int, id, src, dst int, sizeBits float64, hash uint64) ([]int, error) {
	if !(sizeBits > 0) || math.IsInf(sizeBits, 1) {
		return nil, errFlowSize
	}
	if src == dst {
		return nil, errSelfFlow
	}
	if uint64(id) > maxFlowID {
		return nil, errFlowIDs
	}
	return routeAvoidingDead(t, capacity, buf, src, dst, hash)
}

// routeAvoidingDead retries ECMP hashes until the path (appended to buf)
// avoids dead links.
func routeAvoidingDead(t *Topology, capacity []float64, buf []int, src, dst int, hash uint64) ([]int, error) {
	var lastErr error
	for attempt := uint64(0); attempt < 64; attempt++ {
		path, err := t.Path(buf, src, dst, hash+attempt*0x9e3779b9)
		if err != nil {
			lastErr = err
			continue
		}
		ok := true
		for _, l := range path {
			if capacity[l] <= 0 {
				ok = false
				break
			}
		}
		if ok {
			return path, nil
		}
		lastErr = errDeadPath
	}
	return nil, fmt.Errorf("netsim: no live path from %d to %d: %w", src, dst, lastErr)
}

// setLinkFraction is the one capacity write both drivers share. It
// scales a link to frac of its nominal rate, clamped to [0, 1]: a
// degraded link can never exceed nominal, and NaN is link-down rather
// than poison for the waterfill. changed is false for an unknown link
// and for a write that leaves the capacity as it was (a repeated
// restore to 1, a Bridge re-sync republishing its fraction, a second
// FailLink) — nothing about the allocation can change, so the caller
// does no work at all. dead reports that the link just went to zero and
// its crossing flows must be rerouted; no flow is routed over a dead
// link afterwards, so a repeated kill has nothing to reroute.
func setLinkFraction(t *Topology, capacity []float64, linkID int, frac float64) (changed, dead bool) {
	if linkID < 0 || linkID >= len(capacity) {
		return false, false
	}
	if frac < 0 || frac != frac {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	newCap := t.Links[linkID].RateBps * frac
	if newCap == capacity[linkID] {
		return false, false
	}
	capacity[linkID] = newCap
	return true, newCap == 0
}

// FlowSim is an exactly max-min fair fluid flow simulator over a
// Topology: one shard that owns its clock. Its whole pending state is the
// finish times on its slab plus one arrival cursor; RunUntil and Run fire
// them in time order, and each arrival, completion or capacity change
// re-waterfills only the affected component. The caller holds the clock:
// whatever else happens at time t (a fault, a link's superframe boundary)
// is a plain call between RunUntil(t) and the next advance. Its shard
// spans every link from 0, so its local link numbers are global IDs.
type FlowSim struct {
	Topo *Topology

	shard
	now    sim.Time
	nextID int
	src    *poissonSource // the one open-loop source; nil until OfferPoisson
}

// NewFlowSim builds a simulator over the topology with each link at its
// nominal rate and the clock at zero.
func NewFlowSim(t *Topology) *FlowSim {
	return &FlowSim{Topo: t, shard: newShard(nominalCapacity(t), 0)}
}

func nominalCapacity(t *Topology) []float64 {
	capacity := make([]float64, len(t.Links))
	for i, l := range t.Links {
		capacity[i] = l.RateBps
	}
	return capacity
}

// Records returns completed/stalled flow records.
func (fs *FlowSim) Records() []FlowRecord { return fs.records }

// StartFlow injects a flow now. It picks the ECMP path from the hash and
// returns the flow ID.
func (fs *FlowSim) StartFlow(src, dst int, sizeBits float64, hash uint64) (int, error) {
	var buf [maxPath]int
	path, err := routeFlow(fs.Topo, fs.g.capacity, buf[:0], fs.nextID, src, dst, sizeBits, hash)
	if err != nil {
		return 0, err
	}
	id, now := fs.nextID, fs.now
	fs.nextID++
	fs.admit(flow{
		ID: id, Src: src, Dst: dst, SizeBits: sizeBits, Hash: hash,
		remaining: sizeBits, start: now, lastTouch: now,
	}, path)
	fs.flush()
	return id, nil
}

// SetLinkCapacityFraction scales a link to frac of its nominal rate
// (graceful degradation: a Mosaic link that lost channels), with
// setLinkFraction's clamp and no-op semantics. frac=0 kills the link and
// reroutes affected flows.
func (fs *FlowSim) SetLinkCapacityFraction(linkID int, frac float64) {
	changed, dead := setLinkFraction(fs.Topo, fs.g.capacity, linkID, frac)
	if !changed {
		return
	}
	fs.g.markDirty(linkID)
	if dead {
		fs.rerouteThrough(linkID)
	}
	fs.flush()
}

// FailLink kills a link entirely (optics-style link-down) and reroutes.
func (fs *FlowSim) FailLink(linkID int) { fs.SetLinkCapacityFraction(linkID, 0) }

// rerouteThrough re-paths all active flows crossing the (now dead) link.
// Flows with no remaining live path are recorded as stalled and dropped.
func (fs *FlowSim) rerouteThrough(linkID int) {
	now := fs.now
	fs.g.now = now
	for _, h := range fs.crossing(linkID) {
		fs.g.settle(&fs.g.flows.v[h])
		fl := fs.remove(h)
		var buf [maxPath]int
		path, err := routeAvoidingDead(fs.Topo, fs.g.capacity, buf[:0], fl.Src, fl.Dst, fl.Hash+1)
		if err != nil {
			fs.records = append(fs.records, fl.record(now, true))
			continue
		}
		fs.admit(fl, path)
	}
}

// flush recomputes the dirty components at the current instant.
func (fs *FlowSim) flush() {
	fs.g.now = fs.now
	fs.g.flush(false)
}

// RunUntil fires every arrival and completion due at t <= deadline, in
// time order, then sets the clock to the deadline (unless it is already
// past it). Inclusive, so that what the caller does at the deadline — a
// fault, a session step — sees everything that happened up to and at that
// instant.
func (fs *FlowSim) RunUntil(deadline sim.Time) {
	for fs.fireNext(deadline) {
	}
	fs.now = max(fs.now, deadline)
}

// Run fires events until none is pending; the clock stays at the last one.
func (fs *FlowSim) Run() {
	for fs.fireNext(sim.Time(math.Inf(1))) {
	}
}

// fireNext fires the earlier of the next arrival and the first completion
// if it is due by limit, and reports whether it did. At one instant a
// completion goes before an arrival (the arriving flow sees the capacity
// the finished one freed), and two completions go in flow-ID order.
func (fs *FlowSim) fireNext(limit sim.Time) bool {
	c, due := fs.nextDue()
	if s := fs.src; s != nil && s.left > 0 && !(due && c.at <= s.at) {
		if s.at > limit {
			return false
		}
		fs.now = s.at
		fs.arrive()
		return true
	}
	if !due || c.at > limit {
		return false
	}
	fs.now = c.at
	fs.complete(c.h, c.at)
	fs.flush()
	return true
}

// nextDue scans the slab for the earliest completion; false when no flow
// is moving.
func (fs *FlowSim) nextDue() (first completion, due bool) {
	for h := range fs.g.flows.v {
		if c, ok := fs.g.completion(handle(h)); ok && (!due || c.compare(first) < 0) {
			first, due = c, true
		}
	}
	return first, due
}

// FCTStats summarises completion times.
type FCTStats struct {
	Count   int
	Stalled int
	Mean    sim.Time
	P50     sim.Time
	P99     sim.Time
	Max     sim.Time
}

// Stats computes FCT statistics over completed (non-stalled) records.
func Stats(records []FlowRecord) FCTStats {
	var st FCTStats
	var fcts []float64
	var sum float64
	for _, r := range records {
		if r.Stalled {
			st.Stalled++
			continue
		}
		f := float64(r.FCT())
		fcts = append(fcts, f)
		sum += f
	}
	st.Count = len(fcts)
	if st.Count == 0 {
		return st
	}
	slices.Sort(fcts)
	st.Mean = sim.Time(sum / float64(st.Count))
	st.P50 = sim.Time(fcts[st.Count/2])
	st.P99 = sim.Time(fcts[min(st.Count-1, st.Count*99/100)])
	st.Max = sim.Time(fcts[st.Count-1])
	return st
}
