package netsim

import (
	"math"
	"slices"

	"mosaic/internal/sim"
)

// This file is the one flow-engine core: the dirty-set max-min allocator
// (flowGraph) and the shard built on it (active set, records, typed
// completion heap). The two drivers — the event-driven FlowSim in
// flowsim.go and the epoch-barrier FleetSim in shard.go — own no
// allocation or completion logic of their own. An arrival, completion or
// capacity change re-waterfills only the connected component of
// links/flows it can have affected, never the whole network.
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

// linkRef is one entry in a link's flow index: the flow plus the index
// of this link within the flow's Path, so a swap-delete can repair the
// moved entry's back-pointer in O(1).
type linkRef struct {
	f  *incFlow
	pi int32
}

// incFlow is a Flow plus the incremental-engine bookkeeping.
type incFlow struct {
	Flow
	pos  []int32 // pos[i] = index of this flow in linkFlows[Path[i]]
	mark uint64  // component-gather epoch marker
	seen uint64  // fleet per-epoch re-rated dedup marker

	// Fleet-shard fields: a cross-shard flow is represented inside each
	// shard by a proxy restricted to that shard's sub-path. A pinned
	// proxy's rate is fixed by the epoch barrier (the min of the shard
	// offers); the waterfill subtracts it from capacity instead of
	// assigning it. offer is the rate the last unpinned waterfill gave
	// the proxy — the shard's current bid for the cross flow.
	proxy  bool
	pinned bool
	offer  float64

	// filled marks a flow frozen (or pinned) within the current
	// waterfill, so the crossing scan over a bottleneck's link index can
	// skip it without consulting a side table.
	filled bool
}

// flowGraph is the incremental allocation core: per-link flow indices,
// a dirty-link set, and a component-restricted waterfill with reusable
// scratch.
type flowGraph struct {
	topo     *Topology
	capacity []float64 // may be shared across shards; written only at barriers
	now      sim.Time

	linkFlows [][]linkRef

	dirty   []int
	dirtyIn []bool

	// Waterfill scratch, persistent across flushes. linkMark/epoch and
	// incFlow.mark implement O(component) visited sets with no clearing.
	remCap    []float64
	weightOn  []float64
	linkMark  []uint64
	epoch     uint64
	compLinks []int
	compFlows []*incFlow
	touched   []*incFlow // flows re-rated by the last flush
	cross     []*incFlow // per-round crossing-set scratch

	waterfills uint64 // component waterfill passes run
	rated      uint64 // flow-rate assignments performed
}

func newFlowGraph(t *Topology, capacity []float64) *flowGraph {
	n := len(t.Links)
	return &flowGraph{
		topo:      t,
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

// addFlow indexes the flow on every link of its path and dirties them.
func (g *flowGraph) addFlow(f *incFlow) {
	if cap(f.pos) < len(f.Path) {
		f.pos = make([]int32, len(f.Path))
	}
	f.pos = f.pos[:len(f.Path)]
	for i, l := range f.Path {
		f.pos[i] = int32(len(g.linkFlows[l]))
		g.linkFlows[l] = append(g.linkFlows[l], linkRef{f: f, pi: int32(i)})
		g.markDirty(l)
	}
}

// removeFlow unindexes the flow (O(pathlen) swap-deletes) and dirties
// its links.
func (g *flowGraph) removeFlow(f *incFlow) {
	for i, l := range f.Path {
		s := g.linkFlows[l]
		p := f.pos[i]
		last := len(s) - 1
		moved := s[last]
		s[p] = moved
		moved.f.pos[moved.pi] = p
		s[last] = linkRef{}
		g.linkFlows[l] = s[:last]
		g.markDirty(l)
	}
}

// settle progresses a flow's remaining bits to g.now.
func (g *flowGraph) settle(f *incFlow) {
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
func (g *flowGraph) flush(unpinProxies bool) []*incFlow {
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
	g.compLinks = append(g.compLinks, seed)
	for qi := 0; qi < len(g.compLinks); qi++ {
		l := g.compLinks[qi]
		for _, ref := range g.linkFlows[l] {
			f := ref.f
			if f.mark == g.epoch {
				continue
			}
			f.mark = g.epoch
			g.compFlows = append(g.compFlows, f)
			for _, fl := range f.Path {
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
	flows := g.compFlows
	if len(flows) == 0 {
		return
	}
	g.waterfills++
	slices.SortFunc(flows, func(a, b *incFlow) int { return a.ID - b.ID })
	links := g.compLinks
	slices.Sort(links)
	for _, l := range links {
		g.remCap[l] = g.capacity[l]
		g.weightOn[l] = 0
	}

	unfrozen := flows[:0:len(flows)] // reuse backing array; flows stays intact via touched append below
	// First pass: settle participants, subtract pinned demand, build the
	// unfrozen working set.
	for _, f := range flows {
		if f.proxy && unpinProxies {
			f.pinned = false
		}
		if !f.proxy {
			g.settle(f)
		}
		if f.pinned {
			f.filled = true
			for _, l := range f.Path {
				g.remCap[l] -= f.rate
				if g.remCap[l] < 0 {
					g.remCap[l] = 0
				}
			}
			continue
		}
		f.rate = 0
		f.filled = false
		unfrozen = append(unfrozen, f)
	}
	g.rated += uint64(len(unfrozen))
	g.touched = append(g.touched, unfrozen...)
	for _, f := range unfrozen {
		for _, l := range f.Path {
			g.weightOn[l] += f.weight()
		}
	}

	// Progressive filling. The crossing set of each bottleneck comes
	// from the per-link flow index — O(crossing) per round instead of a
	// scan of every unfrozen flow — sorted by ID so the freeze order
	// (and therefore every float operation) matches the global reference
	// bit for bit.
	left := len(unfrozen)
	for left > 0 {
		bottleneck := -1
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
			if !ref.f.filled {
				cross = append(cross, ref.f)
			}
		}
		g.cross = cross
		if len(cross) == 0 {
			// Only floating-point weight residue on the bottleneck:
			// retire it and keep filling the rest of the component.
			g.weightOn[bottleneck] = 0
			continue
		}
		slices.SortFunc(cross, func(a, b *incFlow) int { return a.ID - b.ID })
		for _, f := range cross {
			f.rate = best * f.weight()
			if f.proxy {
				f.offer = f.rate
			}
			f.filled = true
			left--
			for _, l := range f.Path {
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
// only if the flow is still active and its version matches (any rate
// change bumps ver and pushes a fresh entry). Ordering is (time, flow
// ID): two flows finishing at the same instant always complete in ID
// order, never map order.
type completion struct {
	at  sim.Time
	id  int
	ver uint32
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

// shard is the state both drivers run on: one flowGraph, the flows
// active on it, their records, and the completion heap. FlowSim is one
// shard advanced by sim.Engine events; FleetSim is one shard per pod
// advanced by its epoch barrier.
type shard struct {
	g       *flowGraph
	active  map[int]*incFlow
	records []FlowRecord
	h       completionHeap
}

func newShard(t *Topology, capacity []float64) shard {
	return shard{g: newFlowGraph(t, capacity), active: make(map[int]*incFlow)}
}

// admit activates a routed flow and dirties its path.
func (s *shard) admit(f *incFlow) {
	s.active[f.ID] = f
	s.g.addFlow(f)
}

// remove deactivates a flow, invalidating any queued completion.
func (s *shard) remove(f *incFlow) {
	f.ver++
	delete(s.active, f.ID)
	s.g.removeFlow(f)
}

// complete retires a flow that finished at the given instant.
func (s *shard) complete(f *incFlow, at sim.Time) {
	s.remove(f)
	s.records = append(s.records, f.record(at, false))
}

// crossing returns the flows indexed on a link in ascending ID order —
// the order every reroute processes them in, so the records a link kill
// appends never depend on index or map order. The slice is a copy: the
// caller removes flows from the index while walking it.
func (s *shard) crossing(linkID int) []*incFlow {
	refs := s.g.linkFlows[linkID]
	out := make([]*incFlow, len(refs))
	for i, ref := range refs {
		out[i] = ref.f
	}
	slices.SortFunc(out, func(a, b *incFlow) int { return a.ID - b.ID })
	return out
}

// refresh replaces the completion entry of every re-rated flow, then
// compacts the heap once stale entries outnumber live ones 4:1.
func (s *shard) refresh(touched []*incFlow, now sim.Time) {
	for _, f := range touched {
		f.ver++
		if f.rate > 0 {
			s.h.push(completion{at: now + sim.Time(f.remaining/f.rate), id: f.ID, ver: f.ver})
		}
	}
	if len(s.h) > 4*len(s.active)+64 {
		s.compact()
	}
}

// live returns the flow a heap entry will complete, nil if it is stale.
func (s *shard) live(c completion) *incFlow {
	if f := s.active[c.id]; f != nil && f.ver == c.ver {
		return f
	}
	return nil
}

// compact rebuilds the heap from its live entries.
func (s *shard) compact() {
	keep := s.h[:0]
	for _, c := range s.h {
		if s.live(c) != nil {
			keep = append(keep, c)
		}
	}
	s.h = keep
	for i := len(keep)/2 - 1; i >= 0; i-- {
		keep.down(i)
	}
}

// nextDue drops stale heads and returns the flow with the earliest live
// completion and its finish time; nil when none is queued.
func (s *shard) nextDue() (*incFlow, sim.Time) {
	for len(s.h) > 0 {
		if f := s.live(s.h[0]); f != nil {
			return f, s.h[0].at
		}
		s.h.pop()
	}
	return nil, 0
}

// popDue dequeues the earliest live completion if it is due by limit;
// nil when nothing is.
func (s *shard) popDue(limit sim.Time) (*incFlow, sim.Time) {
	f, at := s.nextDue()
	if f == nil || at > limit {
		return nil, 0
	}
	s.h.pop()
	return f, at
}
