package netsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mosaic/internal/sim"
)

// This file is the one flow-engine core: the dirty-set max-min allocator
// (flowGraph, its flows pointer-free records in a slab addressed by
// uint32 handles, each link's flows an ID-ordered index), the finish time
// FlowSim and FleetSim read off the slab, and the shard built on it
// (active count, records). The two simulators — the exact FlowSim in
// flowsim.go, which fires the earliest completion, and the epoch-barrier
// FleetSim in shard.go, which fires those due by the epoch end — own no
// allocation logic of their own. An arrival, completion or capacity
// change re-waterfills only the connected component of links/flows it can
// have affected, never the whole network.
//
// Exactness: max-min by progressive filling decomposes over connected
// components of the flow/link sharing graph — flows in disjoint
// components never contend for a link, so re-filling only the dirtied
// component yields the same allocation as a global fill. The one float
// accumulator is per link (remaining capacity; the unfrozen flows on a
// link are an integer count), and it sees its flows in ascending ID order
// on both sides — here by walking the link's index, in the reference by
// walking the sorted flow list — while the bottleneck is the
// lowest-numbered link at the minimum fair share on both sides, so the
// floating-point operation sequence per accumulator is identical and the
// incremental rates equal the global reference fill bit for bit (pinned
// against MaxMinRates in maxmin_test.go by the trace property suite,
// TestIncFlowSimProperties and, deeper, TestFlowSimDeepProperties).

// handle addresses one slot of a slab. Slots never move, so a handle
// stays valid until its slot is dropped; dropped slots are reused LIFO.
type handle = uint32

// slab is a free-list arena of pointer-free records: the GC never scans
// it, and steady-state churn (drop, then put) allocates nothing. used is
// the one place that knows which slots hold a record.
type slab[T any] struct {
	v    []T
	used []bool // used[h]: set by put, cleared by drop
	free []handle
}

func (s *slab[T]) put(x T) handle {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		s.v[h], s.used[h] = x, true
		return h
	}
	s.v, s.used = append(s.v, x), append(s.used, true)
	return handle(len(s.v) - 1)
}

func (s *slab[T]) drop(h handle) {
	s.used[h] = false
	s.free = append(s.free, h)
}

// live returns the number of slots in use.
func (s *slab[T]) live() int { return len(s.v) - len(s.free) }

// maxPath is the inline capacity of a flow's path: the longest route any
// topology here produces (host-edge-agg-core-agg-edge-host).
const maxPath = 6

// maxFlowID is the largest flow ID an (ID, handle) sort key can carry;
// routeFlow refuses to admit past it.
const maxFlowID = math.MaxUint32

// flowKey packs a flow's ID and slot into one integer, so that sorting
// keys is sorting by ascending ID (IDs are unique within a graph) without
// a comparator that dereferences flows.
func flowKey(id int, h handle) uint64 { return uint64(id)<<32 | uint64(h) }

// linkRef is one entry in a link's flow index: the flow's slot plus the
// index of this link within the flow's path, so a squeeze can repair the
// moved entry's back-position in O(1). pi < 0 marks a tombstone.
type linkRef struct {
	h  handle
	pi int32
}

// linkIndex lists the flows crossing one link in ascending flow-ID order.
// IDs are handed out in admission order, so an arrival appends; a removal
// leaves a tombstone, squeezed out once tombstones outnumber live entries.
// Only a re-admitted old ID (a reroute) can land out of order: that sets
// unsorted, and the next walk that needs the order (gatherComponent,
// shard.crossing) repairs it first.
type linkIndex struct {
	refs     []linkRef
	dead     int // tombstones in refs
	maxID    int // largest flow ID ever appended
	unsorted bool
}

// flowSlot is a flow in a graph's slab: the flow value plus the engine's
// bookkeeping, which starts from zero at every admission. It holds no
// pointer — path and back-positions are inline.
type flowSlot struct {
	flow
	n    uint8          // links in path
	path [maxPath]int32 // link IDs
	pos  [maxPath]int32 // pos[i] = index of this flow in linkFlows[path[i]]
	mark uint64         // component-gather epoch marker

	// Fleet-shard fields: a cross-shard flow is represented inside each
	// shard by a proxy restricted to that shard's sub-path (master is its
	// slot in FleetSim.cross). A pinned proxy's rate is fixed by the epoch
	// barrier (the min of the shard offers); the waterfill subtracts it
	// from capacity instead of assigning it. offer is the rate the last
	// unpinned waterfill gave the proxy — the shard's current bid for the
	// cross flow.
	proxy  bool
	pinned bool
	master handle
	offer  float64

	// filled marks a flow frozen (or pinned) within the current
	// waterfill, so the freeze walk over a bottleneck's link index can
	// skip it without consulting a side table.
	filled bool
}

func (f *flowSlot) links() []int32 { return f.path[:f.n] }

// setPath stores, inline, the links of route inside g's link range, as
// g's local numbers: every link of a local flow, a proxy's share of its
// cross flow's route. A route longer than maxPath comes from a topology
// this engine was not sized for: fail loudly, never truncate.
func (f *flowSlot) setPath(route []int, g *flowGraph) { f.n = g.localPath(&f.path, route) }

// localPath writes the links of route inside g's link range, as local
// numbers, to path and returns how many there are.
func (g *flowGraph) localPath(path *[maxPath]int32, route []int) uint8 {
	if len(route) > maxPath {
		panic(fmt.Sprintf("netsim: %d-link route exceeds the flow slot's %d-link inline path", len(route), maxPath))
	}
	n := uint8(0)
	for _, l := range route {
		if l -= g.base; l >= 0 && l < len(g.capacity) {
			path[n] = int32(l)
			n++
		}
	}
	return n
}

// flowGraph is the incremental allocation core: the flow slab, per-link
// flow indices, a dirty-link set, and a component-restricted waterfill
// with reusable scratch. It covers one run of topology links (a FleetSim
// pod; all of them for FlowSim) numbered locally from 0, global ID = base
// + local: arrays, paths and the dirty set are local, and a global ID is
// converted only where a caller names a link.
type flowGraph struct {
	capacity []float64 // the range's window of a capacity vector shared across shards; written only at barriers
	base     int       // global ID of local link 0
	now      sim.Time

	flows     slab[flowSlot]
	linkFlows []linkIndex

	dirty   []int
	dirtyIn []bool

	// Waterfill scratch, persistent across flushes. linkMark/epoch and
	// flowSlot.mark implement O(component) visited sets with no clearing.
	remCap    []float64
	unfrozen  []int32 // flows on the link still to be filled
	linkMark  []uint64
	epoch     uint64
	compLinks []int32
	keys      []uint64 // reorder scratch (flowKeys)

	waterfills uint64 // component waterfill passes run
	rated      uint64 // flow-rate assignments performed
}

// newFlowGraph builds the graph of links base, base+1, … with capacity.
func newFlowGraph(capacity []float64, base int) *flowGraph {
	n := len(capacity)
	return &flowGraph{
		capacity:  capacity,
		base:      base,
		linkFlows: make([]linkIndex, n),
		dirtyIn:   make([]bool, n),
		remCap:    make([]float64, n),
		unfrozen:  make([]int32, n),
		linkMark:  make([]uint64, n),
	}
}

// markDirty queues a link for the next flush.
func (g *flowGraph) markDirty(l int) {
	if !g.dirtyIn[l] {
		g.dirtyIn[l] = true
		g.dirty = append(g.dirty, l)
	}
}

// addFlow takes a slot for the flow, appends it to the index of every
// link of its path and dirties them.
func (g *flowGraph) addFlow(s flowSlot) handle {
	h := g.flows.put(s)
	f := &g.flows.v[h]
	for i, l := range f.links() {
		idx := &g.linkFlows[l]
		if f.ID < idx.maxID {
			idx.unsorted = true
		} else {
			idx.maxID = f.ID
		}
		f.pos[i] = int32(len(idx.refs))
		idx.refs = append(idx.refs, linkRef{h: h, pi: int32(i)})
		g.markDirty(int(l))
	}
	return h
}

// removeFlow tombstones the flow's index entries (O(pathlen), amortised
// over the squeezes), dirties its links, frees its slot and returns the
// flow value.
func (g *flowGraph) removeFlow(h handle) flow {
	f := &g.flows.v[h]
	for i, l := range f.links() {
		idx := &g.linkFlows[l]
		idx.refs[f.pos[i]].pi = -1
		if idx.dead++; 2*idx.dead > len(idx.refs) {
			g.squeeze(idx)
		}
		g.markDirty(int(l))
	}
	g.flows.drop(h)
	return f.flow
}

// squeeze drops an index's tombstones in place, keeping the order of the
// live entries and repairing their back-positions.
func (g *flowGraph) squeeze(idx *linkIndex) {
	live := idx.refs[:0]
	for _, ref := range idx.refs {
		if ref.pi >= 0 {
			g.flows.v[ref.h].pos[ref.pi] = int32(len(live))
			live = append(live, ref)
		}
	}
	idx.refs, idx.dead = live, 0
}

// ordered returns link l's index with its live entries in ascending ID
// order, first rebuilding an index a re-admitted flow broke from one
// integer sort of its (ID, handle) keys.
func (g *flowGraph) ordered(l int32) []linkRef {
	idx := &g.linkFlows[l]
	if !idx.unsorted {
		return idx.refs
	}
	keys := g.keys[:0]
	for _, ref := range idx.refs {
		if ref.pi >= 0 {
			keys = append(keys, flowKey(g.flows.v[ref.h].ID, ref.h))
		}
	}
	slices.Sort(keys)
	idx.refs, idx.dead, idx.unsorted = idx.refs[:len(keys)], 0, false
	for j, k := range keys {
		f := &g.flows.v[handle(k)]
		pi := slices.Index(f.links(), l)
		f.pos[pi] = int32(j)
		idx.refs[j] = linkRef{h: handle(k), pi: int32(pi)}
	}
	g.keys = keys
	return idx.refs
}

// settle progresses a flow's remaining bits to g.now.
func (g *flowGraph) settle(f *flowSlot) {
	elapsed := float64(g.now - f.lastTouch)
	if elapsed > 0 && f.rate > 0 {
		f.remaining -= f.rate * elapsed
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.lastTouch = g.now
}

// completion is a flow's finish time at its current rate.
type completion struct {
	at sim.Time
	id int
	h  handle
}

// compare orders completions by (time, flow ID) for both simulators: two
// flows finishing at the same instant always complete in ID order, never
// slot order.
func (c completion) compare(o completion) int { return cmp.Or(cmp.Compare(c.at, o.at), c.id-o.id) }

// completion reads slot h's finish time off the slab; false for a free
// slot, a proxy (its cross flow finishes at the barrier) or a flow that is
// not moving. A flow's remaining, rate and lastTouch are written together,
// when it is re-rated, so the finish time holds until the next re-rating.
func (g *flowGraph) completion(h handle) (completion, bool) {
	f := &g.flows.v[h]
	if !g.flows.used[h] || f.proxy || !(f.rate > 0) {
		return completion{}, false
	}
	return completion{at: f.lastTouch + sim.Time(f.remaining/f.rate), id: f.ID, h: h}, true
}

// flush re-waterfills every connected component reachable from the
// dirty links. Links and flows outside the dirty components keep their
// rates: no flow there shares a link with a dirtied flow, so its max-min
// allocation cannot have changed.
func (g *flowGraph) flush(unpinProxies bool) {
	if len(g.dirty) == 0 {
		return
	}
	g.epoch++
	for _, l := range g.dirty {
		g.dirtyIn[l] = false
	}
	for _, seed := range g.dirty {
		if g.linkMark[seed] == g.epoch {
			continue // already swept into an earlier component this flush
		}
		if flows, left := g.gatherComponent(seed, unpinProxies); flows > 0 {
			g.waterfills++
			g.rated += uint64(left)
			g.fill(left)
		}
	}
	g.dirty = g.dirty[:0]
}

// gatherComponent BFSes the link/flow sharing graph from seed into
// compLinks and, in the same walk, runs the waterfill's first pass: each
// reached link's index is walked once in ascending ID order, which
// settles and resets every flow at its first incidence and, at every
// (link, flow) incidence, subtracts a pinned proxy's fixed demand from
// the link's remaining capacity or counts an unfrozen flow on it.
// Pinned proxies contribute that demand instead of participating in the
// fill; with unpinProxies set, proxies join the fill as ordinary flows
// and their resulting rate is recorded as the shard's offer. It returns
// the number of flows in the component and how many of them are to fill.
func (g *flowGraph) gatherComponent(seed int, unpinProxies bool) (n, left int) {
	g.linkMark[seed] = g.epoch
	g.compLinks = append(g.compLinks[:0], int32(seed))
	flows := g.flows.v
	for qi := 0; qi < len(g.compLinks); qi++ {
		l := g.compLinks[qi]
		remCap, unfrozen := g.capacity[l], int32(0)
		for _, ref := range g.ordered(l) {
			if ref.pi < 0 {
				continue
			}
			f := &flows[ref.h]
			if f.mark != g.epoch {
				f.mark = g.epoch
				n++
				if f.proxy && unpinProxies {
					f.pinned = false
				}
				if !f.proxy {
					g.settle(f)
				}
				if f.filled = f.pinned; !f.pinned {
					f.rate = 0
					left++
				}
				for _, fl := range f.links() {
					if g.linkMark[fl] != g.epoch {
						g.linkMark[fl] = g.epoch
						g.compLinks = append(g.compLinks, fl)
					}
				}
			}
			if f.pinned {
				if remCap -= f.rate; remCap < 0 {
					remCap = 0
				}
			} else {
				unfrozen++
			}
		}
		g.remCap[l], g.unfrozen[l] = remCap, unfrozen
	}
	return n, left
}

// fill runs progressive-filling max-min fairness over the gathered
// component's `left` unfrozen flows, with the same deterministic ordering
// as the global reference fill (MaxMinRates, maxmin_test.go): the
// bottleneck is the lowest-numbered link at the minimum fair share, and
// its unfrozen flows are frozen by walking its index, ascending by ID —
// O(crossing) per round, no sort. A bottleneck's
// count is positive, so every round freezes at least one flow.
func (g *flowGraph) fill(left int) {
	flows := g.flows.v
	for left > 0 {
		bottleneck := int32(-1)
		best := math.Inf(1)
		for _, l := range g.compLinks {
			if g.unfrozen[l] == 0 {
				continue
			}
			if fair := g.remCap[l] / float64(g.unfrozen[l]); fair < best || fair == best && l < bottleneck {
				best = fair
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			break
		}
		for _, ref := range g.linkFlows[bottleneck].refs {
			f := &flows[ref.h]
			if ref.pi < 0 || f.filled {
				continue
			}
			f.rate = best
			if f.proxy {
				f.offer = f.rate
			}
			f.filled = true
			left--
			for _, l := range f.links() {
				g.remCap[l] -= f.rate
				if g.remCap[l] < 0 {
					g.remCap[l] = 0
				}
				g.unfrozen[l]--
			}
		}
	}
}

// shard is the state both drivers run on: one flowGraph, the count of
// flows active on it and their records. FlowSim is one shard advanced
// event by event (RunUntil); FleetSim is one shard per pod advanced by its
// epoch barrier.
type shard struct {
	g       *flowGraph
	active  int // live non-proxy flows
	records []FlowRecord
}

func newShard(capacity []float64, base int) shard {
	return shard{g: newFlowGraph(capacity, base)}
}

// admit activates a flow on its route and dirties the path.
func (s *shard) admit(fl flow, route []int) handle {
	slot := flowSlot{flow: fl}
	slot.setPath(route, s.g)
	s.active++
	return s.g.addFlow(slot)
}

// remove deactivates a flow and returns its value.
func (s *shard) remove(h handle) flow {
	s.active--
	return s.g.removeFlow(h)
}

// complete retires a flow that finished at the given instant.
func (s *shard) complete(h handle, at sim.Time) {
	fl := s.remove(h)
	s.records = append(s.records, fl.record(at, false))
}

// crossing returns the flows indexed on a link (a global ID) in ascending
// ID order — the order every reroute processes them in, so the records a
// link kill appends never depend on slot order. The slice is a copy: the
// caller removes flows from the index while walking it.
func (s *shard) crossing(linkID int) []handle {
	refs := s.g.ordered(int32(linkID - s.g.base))
	out := make([]handle, 0, len(refs))
	for _, ref := range refs {
		if ref.pi >= 0 {
			out = append(out, ref.h)
		}
	}
	return out
}
