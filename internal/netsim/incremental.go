package netsim

import (
	"fmt"
	"math"
	"slices"

	"mosaic/internal/sim"
)

// This file is the one flow-engine core: the dirty-set max-min allocator
// (flowGraph, its flows pointer-free records in a slab addressed by
// uint32 handles) and the shard built on it (records, typed completion
// heap). The two drivers — the exact FlowSim in flowsim.go, stepped event
// by event, and the epoch-barrier FleetSim in shard.go — own no allocation
// or completion logic of their own. An arrival, completion or capacity change
// re-waterfills only the connected component of links/flows it can have
// affected, never the whole network.
//
// Exactness: weighted max-min by progressive filling decomposes over
// connected components of the flow/link sharing graph — flows in
// disjoint components never contend for a link, so re-filling only the
// dirtied component yields the same allocation as a global fill. With
// links scanned in ascending index order and flows frozen in ascending
// ID order on both sides, the floating-point operation sequence per
// component is identical too, so the incremental rates equal
// refmodel.MaxMinRates bit for bit (pinned by the flowsim_inc diffcheck
// stage and the deep property suite).

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
// index of this link within the flow's path, so a swap-delete can repair
// the moved entry's back-position in O(1).
type linkRef struct {
	h  handle
	pi int32
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
	seen uint64         // fleet per-epoch re-rated dedup marker

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
	// waterfill, so the crossing scan over a bottleneck's link index can
	// skip it without consulting a side table.
	filled bool
}

func (f *flowSlot) links() []int32 { return f.path[:f.n] }

// setPath stores, inline, the links of route that shardOf assigns to
// shard s (every link when shardOf is nil). A route longer than maxPath
// comes from a topology this engine was not sized for: fail loudly, never
// truncate.
func (f *flowSlot) setPath(route []int, shardOf []int, s int) {
	if len(route) > maxPath {
		panic(fmt.Sprintf("netsim: %d-link route exceeds the flow slot's %d-link inline path", len(route), maxPath))
	}
	f.n = 0
	for _, l := range route {
		if shardOf == nil || shardOf[l] == s {
			f.path[f.n] = int32(l)
			f.n++
		}
	}
}

// flowGraph is the incremental allocation core: the flow slab, per-link
// flow indices, a dirty-link set, and a component-restricted waterfill
// with reusable scratch.
type flowGraph struct {
	capacity []float64 // may be shared across shards; written only at barriers
	now      sim.Time

	flows     slab[flowSlot]
	linkFlows [][]linkRef

	dirty   []int
	dirtyIn []bool

	// Waterfill scratch, persistent across flushes. linkMark/epoch and
	// flowSlot.mark implement O(component) visited sets with no clearing.
	remCap    []float64
	weightOn  []float64
	linkMark  []uint64
	epoch     uint64
	compLinks []int32
	compFlows []uint64 // flowKeys
	touched   []handle // flows re-rated by the last flush
	cross     []uint64 // per-round crossing-set scratch (flowKeys)

	waterfills uint64 // component waterfill passes run
	rated      uint64 // flow-rate assignments performed
}

func newFlowGraph(t *Topology, capacity []float64) *flowGraph {
	n := len(t.Links)
	return &flowGraph{
		capacity:  capacity,
		linkFlows: make([][]linkRef, n),
		dirtyIn:   make([]bool, n),
		remCap:    make([]float64, n),
		weightOn:  make([]float64, n),
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

// addFlow takes a slot for the flow, indexes it on every link of its
// path and dirties them.
func (g *flowGraph) addFlow(s flowSlot) handle {
	h := g.flows.put(s)
	f := &g.flows.v[h]
	for i, l := range f.links() {
		f.pos[i] = int32(len(g.linkFlows[l]))
		g.linkFlows[l] = append(g.linkFlows[l], linkRef{h: h, pi: int32(i)})
		g.markDirty(int(l))
	}
	return h
}

// removeFlow unindexes the flow (O(pathlen) swap-deletes), dirties its
// links, frees its slot and returns the flow value.
func (g *flowGraph) removeFlow(h handle) flow {
	f := &g.flows.v[h]
	for i, l := range f.links() {
		s := g.linkFlows[l]
		p, last := f.pos[i], len(s)-1
		moved := s[last]
		s[p] = moved
		g.flows.v[moved.h].pos[moved.pi] = p
		g.linkFlows[l] = s[:last]
		g.markDirty(int(l))
	}
	g.flows.drop(h)
	return f.flow
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

// flush re-waterfills every connected component reachable from the
// dirty links and returns the flows whose rates were reassigned (the
// caller refreshes their completion entries). Links and flows outside
// the dirty components keep their rates: no flow there shares a link
// with a dirtied flow, so its max-min allocation cannot have changed.
func (g *flowGraph) flush(unpinProxies bool) []handle {
	g.touched = g.touched[:0]
	if len(g.dirty) == 0 {
		return g.touched
	}
	g.epoch++
	for _, l := range g.dirty {
		g.dirtyIn[l] = false
	}
	for _, seed := range g.dirty {
		if g.linkMark[seed] == g.epoch {
			continue // already swept into an earlier component this flush
		}
		g.gatherComponent(seed)
		g.waterfillComponent(unpinProxies)
	}
	g.dirty = g.dirty[:0]
	return g.touched
}

// gatherComponent BFSes the link/flow sharing graph from seed into
// compLinks/compFlows (both reset first).
func (g *flowGraph) gatherComponent(seed int) {
	g.compLinks = g.compLinks[:0]
	g.compFlows = g.compFlows[:0]
	g.linkMark[seed] = g.epoch
	g.compLinks = append(g.compLinks, int32(seed))
	for qi := 0; qi < len(g.compLinks); qi++ {
		for _, ref := range g.linkFlows[g.compLinks[qi]] {
			f := &g.flows.v[ref.h]
			if f.mark == g.epoch {
				continue
			}
			f.mark = g.epoch
			g.compFlows = append(g.compFlows, flowKey(f.ID, ref.h))
			for _, fl := range f.links() {
				if g.linkMark[fl] != g.epoch {
					g.linkMark[fl] = g.epoch
					g.compLinks = append(g.compLinks, fl)
				}
			}
		}
	}
}

// waterfillComponent runs progressive-filling weighted max-min fairness
// restricted to the gathered component, with the same deterministic
// ordering as refmodel.MaxMinRates: links scanned ascending, flows
// frozen ascending by ID. Pinned proxies contribute a fixed demand
// (capacity subtracted up front) instead of participating in the fill;
// with unpinProxies set, proxies join the fill as ordinary flows and
// their resulting rate is recorded as the shard's offer.
func (g *flowGraph) waterfillComponent(unpinProxies bool) {
	if len(g.compFlows) == 0 {
		return
	}
	g.waterfills++
	slices.Sort(g.compFlows)
	links, flows := g.compLinks, g.flows.v
	slices.Sort(links)
	for _, l := range links {
		g.remCap[l] = g.capacity[l]
		g.weightOn[l] = 0
	}

	// First pass, ascending ID: settle participants, subtract pinned
	// demand, put the weight of every unfrozen flow on its links.
	left := 0
	for _, k := range g.compFlows {
		f := &flows[handle(k)]
		if f.proxy && unpinProxies {
			f.pinned = false
		}
		if !f.proxy {
			g.settle(f)
		}
		if f.pinned {
			f.filled = true
			for _, l := range f.links() {
				g.remCap[l] -= f.rate
				if g.remCap[l] < 0 {
					g.remCap[l] = 0
				}
			}
			continue
		}
		f.rate, f.filled = 0, false
		left++
		g.touched = append(g.touched, handle(k))
		for _, l := range f.links() {
			g.weightOn[l] += f.weight()
		}
	}
	g.rated += uint64(left)

	// Progressive filling. The crossing set of each bottleneck comes
	// from the per-link flow index — O(crossing) per round instead of a
	// scan of every unfrozen flow — sorted by ID so the freeze order
	// (and therefore every float operation) matches the global reference
	// bit for bit.
	for left > 0 {
		bottleneck := int32(-1)
		best := math.Inf(1)
		for _, l := range links {
			if g.weightOn[l] <= 0 {
				continue
			}
			if fair := g.remCap[l] / g.weightOn[l]; fair < best {
				best = fair
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			break
		}
		cross := g.cross[:0]
		for _, ref := range g.linkFlows[bottleneck] {
			if f := &flows[ref.h]; !f.filled {
				cross = append(cross, flowKey(f.ID, ref.h))
			}
		}
		g.cross = cross
		if len(cross) == 0 {
			// Only floating-point weight residue on the bottleneck:
			// retire it and keep filling the rest of the component.
			g.weightOn[bottleneck] = 0
			continue
		}
		slices.Sort(cross)
		for _, k := range cross {
			f := &flows[handle(k)]
			f.rate = best * f.weight()
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
				g.weightOn[l] -= f.weight()
			}
		}
	}
}

// completion is a lazily-invalidated completion-heap entry: it fires
// only if slot h still holds flow id at version ver (any rate change or
// removal bumps ver; each new rate pushes a fresh entry). The slot alone
// proves nothing — a freed slot is reused LIFO, by another flow or by the
// same flow re-admitted on a new path — so id and ver are both compared.
// Ordering is (time, flow ID): two flows finishing at the same instant
// always complete in ID order, never slot order.
type completion struct {
	at  sim.Time
	id  int
	ver uint32
	h   handle
}

func (c completion) before(o completion) bool {
	if c.at != o.at {
		return c.at < o.at
	}
	return c.id < o.id
}

// completionHeap is a binary min-heap of completions, typed so a push or
// pop never boxes its entry through an interface.
type completionHeap []completion

func (h *completionHeap) push(c completion) {
	s := append(*h, c)
	*h = s
	for j := len(s) - 1; j > 0; {
		p := (j - 1) / 2
		if !s[j].before(s[p]) {
			break
		}
		s[j], s[p] = s[p], s[j]
		j = p
	}
}

func (h *completionHeap) pop() completion {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	*h = s[:n]
	s[:n].down(0)
	return top
}

func (h completionHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// shard is the state both drivers run on: one flowGraph, the count of
// flows active on it, their records, and the completion heap. FlowSim is
// one shard advanced event by event (RunUntil); FleetSim is one shard per
// pod advanced by its epoch barrier.
type shard struct {
	g       *flowGraph
	active  int // live non-proxy flows
	records []FlowRecord
	h       completionHeap
}

func newShard(t *Topology, capacity []float64) shard {
	return shard{g: newFlowGraph(t, capacity)}
}

// admit activates a flow on its route and dirties the path.
func (s *shard) admit(fl flow, route []int) handle {
	slot := flowSlot{flow: fl}
	slot.setPath(route, nil, 0)
	s.active++
	return s.g.addFlow(slot)
}

// remove deactivates a flow, invalidating any queued completion, and
// returns its value: ver travels with it into a re-admission.
func (s *shard) remove(h handle) flow {
	s.g.flows.v[h].ver++
	s.active--
	return s.g.removeFlow(h)
}

// complete retires a flow that finished at the given instant.
func (s *shard) complete(h handle, at sim.Time) {
	fl := s.remove(h)
	s.records = append(s.records, fl.record(at, false))
}

// crossing returns the flowKeys of the flows indexed on a link in
// ascending ID order — the order every reroute processes them in, so the
// records a link kill appends never depend on index or slot order. The
// slice is a copy: the caller removes flows from the index while walking
// it.
func (s *shard) crossing(linkID int) []uint64 {
	refs := s.g.linkFlows[linkID]
	out := make([]uint64, len(refs))
	for i, ref := range refs {
		out[i] = flowKey(s.g.flows.v[ref.h].ID, ref.h)
	}
	slices.Sort(out)
	return out
}

// refresh replaces the completion entry of every re-rated flow, then
// compacts the heap once stale entries outnumber live ones 4:1.
func (s *shard) refresh(touched []handle, now sim.Time) {
	for _, h := range touched {
		f := &s.g.flows.v[h]
		f.ver++
		if f.rate > 0 {
			s.h.push(completion{at: now + sim.Time(f.remaining/f.rate), id: f.ID, ver: f.ver, h: h})
		}
	}
	if len(s.h) > 4*s.active+64 {
		s.compact()
	}
}

// live reports whether a heap entry still names the flow in its slot.
func (s *shard) live(c completion) bool {
	f := &s.g.flows.v[c.h]
	return s.g.flows.used[c.h] && f.ID == c.id && f.ver == c.ver
}

// compact rebuilds the heap from its live entries.
func (s *shard) compact() {
	keep := s.h[:0]
	for _, c := range s.h {
		if s.live(c) {
			keep = append(keep, c)
		}
	}
	s.h = keep
	for i := len(keep)/2 - 1; i >= 0; i-- {
		keep.down(i)
	}
}

// nextDue drops stale heads and returns the earliest live completion;
// false when none is queued.
func (s *shard) nextDue() (completion, bool) {
	for len(s.h) > 0 {
		if s.live(s.h[0]) {
			return s.h[0], true
		}
		s.h.pop()
	}
	return completion{}, false
}

// popDue dequeues the earliest live completion if it is due by limit;
// false when nothing is.
func (s *shard) popDue(limit sim.Time) (completion, bool) {
	c, ok := s.nextDue()
	if !ok || c.at > limit {
		return completion{}, false
	}
	s.h.pop()
	return c, true
}
