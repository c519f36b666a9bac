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
// Component record: an unpinned flush (FleetSim's phase A) remembers the
// components it gathers — their links and flows, and per link its live
// refs and its proxies in ascending ID — and the pinned flush after it
// (phase C) re-initialises a remembered component from that record rather
// than re-walking the link indices; a seed the record does not hold is
// gathered as before. The one invalidation rule is that addFlow and
// removeFlow forget the record: capacity, pinned rates and progress are
// read fresh at every refill. FlowSim never flushes unpinned, so it never
// records.
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

// flowSlab holds a graph's flows in two halves under one handle, put and
// dropped together: hot[h], what the waterfill and the finish-time scans
// read, in a dense array of its own, and v[h], the rest.
type flowSlab struct {
	slab[flowSlot]
	hot []flowHot
}

func (s *flowSlab) put(f flowHot, c flowSlot) handle {
	h := s.slab.put(c)
	if int(h) < len(s.hot) {
		s.hot[h] = f
	} else {
		s.hot = append(s.hot, f)
	}
	return h
}

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

// flowHot is the hot half of a flow's slot: progress, path and the
// engine's bookkeeping, which starts from zero at every admission. It is
// one 64-byte cache line (TestFlowSlotLayout) and holds no pointer.
type flowHot struct {
	remaining float64
	rate      float64
	lastTouch sim.Time
	mark      uint64         // component-gather epoch marker
	path      [maxPath]int32 // link IDs
	n         uint8          // links in path

	// A cross-shard flow is represented inside each shard by a proxy
	// restricted to that shard's sub-path. A pinned proxy's rate is fixed
	// by the epoch barrier (the min of the shard offers); the waterfill
	// subtracts it from capacity instead of assigning it.
	proxy  bool
	pinned bool

	// filled marks a flow frozen (or pinned) within the current
	// waterfill, so the freeze walk over a bottleneck's link index can
	// skip it without consulting a side table.
	filled bool
}

// flowSlot is the cold half of a flow's slot: its identity, its
// back-positions in the link indices, and a proxy's cross slot (master,
// in FleetSim.cross) and offer — the rate the last unpinned waterfill gave
// the proxy, the shard's current bid for the cross flow.
type flowSlot struct {
	ident
	pos    [maxPath]int32 // pos[i] = index of this flow in linkFlows[path[i]]
	master handle
	offer  float64
}

func (f *flowHot) links() []int32 { return f.path[:f.n] }

// setPath stores, inline, the links of route inside g's link range, as
// g's local numbers: every link of a local flow, a proxy's share of its
// cross flow's route. A route longer than maxPath comes from a topology
// this engine was not sized for: fail loudly, never truncate.
func (f *flowHot) setPath(route []int, g *flowGraph) { f.n = g.localPath(&f.path, route) }

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

	flows     flowSlab
	linkFlows []linkIndex

	dirty   []int
	dirtyIn []bool

	// Waterfill scratch, persistent across flushes. linkMark/epoch and
	// flowHot.mark implement O(component) visited sets with no clearing.
	remCap    []float64
	unfrozen  []int32 // flows on the link still to be filled
	linkMark  []uint64
	epoch     uint64
	compLinks []int32
	keys      []uint64 // reorder scratch (flowKeys)

	rec compRecord // the components the last unpinned flush gathered

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
		rec:       compRecord{byLink: make([]linkRecord, n)},
	}
}

// markDirty queues a link for the next flush.
func (g *flowGraph) markDirty(l int) {
	if !g.dirtyIn[l] {
		g.dirtyIn[l] = true
		g.dirty = append(g.dirty, l)
	}
}

// addFlow takes a slot for the flow's two halves, appends it to the index
// of every link of its path, dirties them and forgets the component
// record.
func (g *flowGraph) addFlow(f flowHot, c flowSlot) handle {
	g.rec.forget()
	h := g.flows.put(f, c)
	pos := &g.flows.v[h].pos
	for i, l := range f.links() {
		idx := &g.linkFlows[l]
		if c.ID < idx.maxID {
			idx.unsorted = true
		} else {
			idx.maxID = c.ID
		}
		pos[i] = int32(len(idx.refs))
		idx.refs = append(idx.refs, linkRef{h: h, pi: int32(i)})
		g.markDirty(int(l))
	}
	return h
}

// removeFlow tombstones the flow's index entries (O(pathlen), amortised
// over the squeezes), dirties its links, forgets the component record,
// frees its slot and returns the flow value.
func (g *flowGraph) removeFlow(h handle) flow {
	g.rec.forget()
	f, c := &g.flows.hot[h], &g.flows.v[h]
	for i, l := range f.links() {
		idx := &g.linkFlows[l]
		idx.refs[c.pos[i]].pi = -1
		if idx.dead++; 2*idx.dead > len(idx.refs) {
			g.squeeze(idx)
		}
		g.markDirty(int(l))
	}
	g.flows.drop(h)
	return flow{ident: c.ident, remaining: f.remaining, rate: f.rate, lastTouch: f.lastTouch}
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
		pi := slices.Index(g.flows.hot[handle(k)].links(), l)
		g.flows.v[handle(k)].pos[pi] = int32(j)
		idx.refs[j] = linkRef{h: handle(k), pi: int32(pi)}
	}
	g.keys = keys
	return idx.refs
}

// settle progresses a flow's remaining bits to g.now, the product rounded
// first so that no GOARCH fuses it into an FMA (rule NETSIM-NO-FMA).
func (g *flowGraph) settle(f *flowHot) {
	elapsed := float64(g.now - f.lastTouch)
	if elapsed > 0 && f.rate > 0 {
		f.remaining -= float64(f.rate * elapsed)
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

// finish reads slot h's finish time off its hot half (a caller reads the
// cold ID only for a flow it may fire); false for a free slot, a proxy
// (its cross flow finishes at the barrier) or a flow that is not moving.
// A flow's remaining, rate and lastTouch are written together, when it is
// re-rated, so the finish time holds until the next re-rating.
func (g *flowGraph) finish(h handle) (sim.Time, bool) {
	f := &g.flows.hot[h]
	if !g.flows.used[h] || f.proxy || !(f.rate > 0) {
		return 0, false
	}
	return f.lastTouch + sim.Time(f.remaining/f.rate), true
}

// flush re-waterfills every connected component reachable from the
// dirty links. Links and flows outside the dirty components keep their
// rates: no flow there shares a link with a dirtied flow, so its max-min
// allocation cannot have changed. An unpinned flush records the
// components it gathers; a pinned flush re-initialises a recorded
// component from the record and gathers only the others.
func (g *flowGraph) flush(unpinProxies bool) {
	if len(g.dirty) == 0 {
		return
	}
	g.epoch++
	if unpinProxies {
		g.rec.reset(g.epoch)
	}
	for _, l := range g.dirty {
		g.dirtyIn[l] = false
	}
	for _, seed := range g.dirty {
		if g.linkMark[seed] == g.epoch {
			continue // already swept into an earlier component this flush
		}
		// A seed the record holds belongs to a component gathered by an
		// earlier flush: never the one recording now, whose own links are
		// all marked.
		var links []int32
		var n, left int
		if c, ok := g.rec.component(seed); ok {
			links, n, left = g.refill(c)
		} else {
			n, left = g.gatherComponent(seed, unpinProxies)
			links = g.compLinks
		}
		if n > 0 {
			g.waterfills++
			g.rated += uint64(left)
			g.fill(links, left)
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
// fill; with unpinProxies set, proxies join the fill as ordinary flows,
// their resulting rate is recorded as the shard's offer, and the
// component goes into the record. It returns the number of flows in the
// component and how many of them are to fill.
func (g *flowGraph) gatherComponent(seed int, unpinProxies bool) (n, left int) {
	g.linkMark[seed] = g.epoch
	g.compLinks = append(g.compLinks[:0], int32(seed))
	flows := g.flows.hot
	rec := &g.rec
	for qi := 0; qi < len(g.compLinks); qi++ {
		l := g.compLinks[qi]
		remCap, unfrozen := g.capacity[l], int32(0)
		p0 := len(rec.proxies)
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
				if unpinProxies {
					rec.flows = append(rec.flows, ref.h)
				}
			}
			if f.pinned {
				if remCap -= f.rate; remCap < 0 {
					remCap = 0
				}
			} else {
				unfrozen++
			}
			if unpinProxies && f.proxy {
				rec.proxies = append(rec.proxies, ref.h)
			}
		}
		g.remCap[l], g.unfrozen[l] = remCap, unfrozen
		if unpinProxies {
			// Nothing is pinned in an unpinned pass: unfrozen counts every
			// live ref.
			rec.byLink[l] = linkRecord{at: rec.at, comp: int32(len(rec.comps)), live: unfrozen,
				p0: int32(p0), p1: int32(len(rec.proxies))}
		}
	}
	if unpinProxies {
		rec.links = append(rec.links, g.compLinks...)
		rec.comps = append(rec.comps, recComp{links: int32(len(rec.links)), flows: int32(len(rec.flows))})
	}
	return n, left
}

// compRecord remembers the components the last unpinned flush gathered
// (the file comment gives its use and its one invalidation rule): each
// component's links and flows, and per link its count of live refs and
// its proxies in ascending flow ID.
type compRecord struct {
	at      uint64       // epoch of the recording flush; 0 once forgotten
	byLink  []linkRecord // by local link; current where its at matches
	comps   []recComp
	links   []int32  // each component's links, component after component
	flows   []handle // each component's flows, component after component
	proxies []handle // each recorded link's proxies, ascending by ID
}

// recComp ends one component's runs in compRecord.links and .flows; the
// previous component's ends are where they start.
type recComp struct{ links, flows int32 }

// linkRecord is one recorded link: its component, its live refs and its
// run proxies[p0:p1].
type linkRecord struct {
	at           uint64
	comp         int32
	live, p0, p1 int32
}

// reset starts a record for the flush at epoch.
func (r *compRecord) reset(epoch uint64) {
	r.at = epoch
	r.comps, r.links, r.flows, r.proxies = r.comps[:0], r.links[:0], r.flows[:0], r.proxies[:0]
}

// forget drops the record: a flow joined or left the graph.
func (r *compRecord) forget() { r.at = 0 }

// component returns the recorded component holding link l.
func (r *compRecord) component(l int) (int, bool) {
	lr := &r.byLink[l]
	return int(lr.comp), r.at != 0 && lr.at == r.at
}

// refill runs gatherComponent's first pass over recorded component c as
// a pinned flush, without walking a link index: a link's remaining
// capacity is its capacity less each pinned proxy's rate in ascending ID
// with the same clamp — the subtraction sequence the index walk performs,
// so every rate comes out bit-identical — its unfrozen count the live
// refs less the pinned proxies, and one pass over the flows settles and
// resets them. Their gather marks stay as they are: only gatherComponent
// reads them, and no component it walks in this flush shares a flow with
// this one. It returns the component's links, its flow count and how many
// of them are to fill.
func (g *flowGraph) refill(c int) (links []int32, n, left int) {
	r := &g.rec
	var l0, f0 int32
	if c > 0 {
		l0, f0 = r.comps[c-1].links, r.comps[c-1].flows
	}
	flows := g.flows.hot
	links = r.links[l0:r.comps[c].links]
	for _, l := range links {
		lr := &r.byLink[l]
		remCap, pinned := g.capacity[l], int32(0)
		for _, h := range r.proxies[lr.p0:lr.p1] {
			if f := &flows[h]; f.pinned {
				if remCap -= f.rate; remCap < 0 {
					remCap = 0
				}
				pinned++
			}
		}
		g.remCap[l], g.unfrozen[l] = remCap, lr.live-pinned
		g.linkMark[l] = g.epoch
	}
	comp := r.flows[f0:r.comps[c].flows]
	for _, h := range comp {
		f := &flows[h]
		if !f.proxy {
			g.settle(f)
		}
		if f.filled = f.pinned; !f.pinned {
			f.rate = 0
			left++
		}
	}
	return links, len(comp), left
}

// fill runs progressive-filling max-min fairness over the `left`
// unfrozen flows of the component on links, with the same deterministic
// ordering as the global reference fill (MaxMinRates, maxmin_test.go): the
// bottleneck is the lowest-numbered link at the minimum fair share, and
// its unfrozen flows are frozen by walking its index, ascending by ID —
// O(crossing) per round, no sort. A bottleneck's
// count is positive, so every round freezes at least one flow; a round
// that freezes none found the counts out of step with the index and
// panics rather than spin.
func (g *flowGraph) fill(links []int32, left int) {
	for left > 0 {
		bottleneck := int32(-1)
		best := math.Inf(1)
		for _, l := range links {
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
		frozen := g.freeze(bottleneck, best)
		if frozen == 0 {
			g.stuck(bottleneck)
		}
		left -= frozen
	}
}

// freeze fixes every unfilled live flow on the bottleneck at rate,
// walking its index in ID order, takes the rate off each of their links
// and returns how many it froze. A function of its own, so the walk keeps
// its registers free of fill's loop state.
func (g *flowGraph) freeze(bottleneck int32, rate float64) int {
	flows, frozen := g.flows.hot, 0
	for _, ref := range g.linkFlows[bottleneck].refs {
		f := &flows[ref.h]
		if ref.pi < 0 || f.filled {
			continue
		}
		f.rate = rate
		if f.proxy {
			g.flows.v[ref.h].offer = rate
		}
		f.filled = true
		frozen++
		for _, l := range f.links() {
			g.remCap[l] -= f.rate
			if g.remCap[l] < 0 {
				g.remCap[l] = 0
			}
			g.unfrozen[l]--
		}
	}
	return frozen
}

// stuck reports a fill round that froze no flow on bottleneck l: its
// unfrozen count and its index disagree, a bug that would otherwise spin.
func (g *flowGraph) stuck(l int32) {
	ix := &g.linkFlows[l]
	panic(fmt.Sprintf("netsim: fill froze no flow on bottleneck link %d: %d counted unfrozen, 0 of its %d live refs unfilled",
		g.base+int(l), g.unfrozen[l], len(ix.refs)-ix.dead))
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
	f := flowHot{remaining: fl.remaining, rate: fl.rate, lastTouch: fl.lastTouch}
	f.setPath(route, s.g)
	s.active++
	return s.g.addFlow(f, flowSlot{ident: fl.ident})
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
