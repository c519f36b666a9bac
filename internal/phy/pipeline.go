package phy

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"mosaic/internal/coding/linecode"
)

// The TX → channel → RX hot path is an explicit staged pipeline:
//
//	frame → encode (64b/66b serial stream) → scramble → stripe →
//	per-lane transmit/decode → destripe → descramble → parse
//
// The serial stages run on the caller's goroutine on buffers held in a
// linkScratch borrowed for the exchange; the per-lane stage fans out over
// the link's par.Pool (Config.Workers), each lane working exclusively on
// its own laneState of that scratch.
// Striping allocates nothing: the padded TX stream is already a whole
// number of units, so unit (seq, lane) is the byte view
// stream[(seq*lanes+lane)*unitLen:], and on the receive side the lanes
// write recovered units straight into their disjoint slots of the
// reassembly buffer — the destripe permutation is an index computation,
// not a data structure. This stripe/destripe pair is the gearbox that
// makes Mosaic protocol agnostic: one fast serial stream becomes many slow
// channel streams, unit i on lane i mod L with per-lane sequence number
// i div L, and reassembly inverts the permutation from the sequence
// numbers carried in channel frames, so per-channel skew cannot reorder
// data.

// laneState is one lane's working set. A lane is touched by exactly one
// pool worker per Exchange, so no locking is needed; buffers grow to the
// high-water mark and are reused by every exchange that borrows the
// scratch. States are held by pointer so the emit closure below can
// capture its laneState once, at construction, and survive lane-count
// growth.
type laneState struct {
	wire []byte // encoded channel frames (TX side)
	rx   []byte // received bytes (skew prefix + noise applied)
	body []byte // framer body scratch, shared by encode and decode
	seen []bool // which unit sequence numbers arrived intact

	physical  int
	expected  int // units assigned to this lane
	good      int // accepted channel frames (lane and seq in range)
	wireBytes int
	stats     DecodeStats

	// Per-Exchange striping parameters, set by stageLane before the scan
	// so the persistent emit closure needs no per-call captures.
	laneIdx  int
	lanesCnt int
	unitLen  int
	rxOut    []byte
	emit     func(lane int, seq uint32, payload []byte, ncorr int)
}

// init installs the persistent emit closure; the laneState must already
// have its final address (states are slab-allocated, then pinned by
// pointer in linkScratch.lanes).
func (ls *laneState) init() {
	ls.emit = func(frLane int, seq uint32, payload []byte, ncorr int) {
		// Lane mismatches would indicate a miswired remap; drop them.
		if frLane != ls.laneIdx || int(seq) >= ls.expected {
			return
		}
		g := int(seq)*ls.lanesCnt + ls.laneIdx
		copy(ls.rxOut[g*ls.unitLen:(g+1)*ls.unitLen], payload)
		ls.seen[seq] = true
		ls.good++
	}
}

// linkScratch holds the buffers of one exchange, which borrows it from
// scratchPool and hands it back on every exit: links hold as many as
// they run exchanges at once, not one each. An exchange rewrites all it
// reads (streams from empty, the reassembly buffer zeroed, every lane
// reset by stageLane), so no output depends on which scratch was lent.
type linkScratch struct {
	fcs      []byte // frame + FCS staging
	stream   []byte // TX serial stream, scrambled in place
	rxStream []byte // RX reassembled stream, descrambled in place
	lanes    []*laneState

	// The per-lane stage in flight, read by laneFn (stageLaneIdx bound
	// once per scratch, so Run stays off the heap): the link, the striping
	// geometry, and the TX and RX streams.
	link     *Link
	curLanes int
	curUnits int
	curTx    []byte
	curRx    []byte
	laneFn   func(lane int)
}

// scratchPool lends exchange scratches, as RSFEC's pool lends symbol scratch.
var scratchPool = sync.Pool{New: func() any {
	sc := new(linkScratch)
	sc.laneFn = sc.stageLaneIdx
	return sc
}}

// rxSkewSlack is the extra capacity carved per lane for the RX buffer so
// modest channel skew (a random prefix of junk bytes) doesn't force the
// lane out of its slab slot.
const rxSkewSlack = 32

// prepareLanes returns n lane slots, preserving per-lane buffers across
// calls (and across lane-count changes after sparing remaps). Lanes whose
// buffers are too small for this Exchange get fresh ones carved out of a
// single shared slab — link construction costs a handful of allocations,
// not four per lane.
func (sc *linkScratch) prepareLanes(n, wireNeed, seenNeed, bodyLen int) []*laneState {
	if len(sc.lanes) < n {
		fresh := make([]laneState, n-len(sc.lanes))
		for i := range fresh {
			fresh[i].init()
			sc.lanes = append(sc.lanes, &fresh[i])
		}
	}
	lanes := sc.lanes[:n]
	rxNeed := wireNeed + rxSkewSlack
	var byteDef, boolDef int
	for _, ls := range lanes {
		if cap(ls.wire) < wireNeed {
			byteDef += wireNeed
		}
		if cap(ls.rx) < rxNeed {
			byteDef += rxNeed
		}
		if cap(ls.body) < bodyLen {
			byteDef += bodyLen
		}
		if cap(ls.seen) < seenNeed {
			boolDef += seenNeed
		}
	}
	if byteDef > 0 {
		slab := make([]byte, byteDef)
		off := 0
		for _, ls := range lanes {
			// Full slice expressions cap every slot exactly, so a lane
			// that outgrows its slot reallocates privately instead of
			// clobbering its neighbor.
			if cap(ls.wire) < wireNeed {
				ls.wire = slab[off : off : off+wireNeed]
				off += wireNeed
			}
			if cap(ls.rx) < rxNeed {
				ls.rx = slab[off : off : off+rxNeed]
				off += rxNeed
			}
			if cap(ls.body) < bodyLen {
				ls.body = slab[off : off : off+bodyLen]
				off += bodyLen
			}
		}
	}
	if boolDef > 0 {
		slab := make([]bool, boolDef)
		off := 0
		for _, ls := range lanes {
			if cap(ls.seen) < seenNeed {
				ls.seen = slab[off : off : off+seenNeed]
				off += seenNeed
			}
		}
	}
	return lanes
}

// rxStreamBuf returns a zeroed reassembly buffer of n bytes; missing
// units keep the zero fill so downstream alignment survives loss.
func (sc *linkScratch) rxStreamBuf(n int) []byte {
	if cap(sc.rxStream) < n {
		sc.rxStream = make([]byte, n)
		return sc.rxStream
	}
	sc.rxStream = sc.rxStream[:n]
	s := sc.rxStream
	for i := range s {
		s[i] = 0
	}
	return s
}

// stageEncode converts user frames into the padded serial block stream,
// written as bytes: per-frame FCS, each frame's 64b/66b blocks, an
// inter-frame idle, and idle padding to a whole number of stripe units so
// the gearbox never has to invent fill bytes after scrambling.
func (l *Link) stageEncode(sc *linkScratch, frames [][]byte, st *ExchangeStats) ([]byte, error) {
	// Size the stream up front (start + data + term + idle per frame, plus
	// worst-case unit padding) so the encode loop never regrows it.
	need := l.cfg.UnitLen
	for _, f := range frames {
		need += 9 * (3 + (len(f)+4)/8)
	}
	stream := slices.Grow(sc.stream[:0], need)
	for _, f := range frames {
		if len(f) < 3 {
			return nil, fmt.Errorf("phy: frame of %d bytes below minimum 3", len(f))
		}
		st.PayloadBytes += len(f)
		sc.fcs = binary.BigEndian.AppendUint32(append(sc.fcs[:0], f...), crc32.ChecksumIEEE(f))
		var err error
		if stream, err = linecode.AppendFrame(stream, sc.fcs); err != nil {
			return nil, err
		}
		stream = linecode.AppendIdle(stream)
	}
	for len(stream)%l.cfg.UnitLen != 0 {
		stream = linecode.AppendIdle(stream)
	}
	sc.stream = stream
	return stream, nil
}

// LaneUnits returns how many stripe units land on a lane: units are dealt
// round-robin, unit g to lane g mod lanes with sequence g div lanes.
// Differential harnesses compare it against a reference striper that
// materialises the units.
func LaneUnits(totalUnits, lanes, lane int) int {
	return (totalUnits - lane + lanes - 1) / lanes
}

// stageLaneIdx is the task function the link hands its pool (bound once
// per scratch as linkScratch.laneFn): it reads the in-flight Exchange's
// link and striping arguments from the scratch, so no per-call closure
// exists on the hot path.
func (sc *linkScratch) stageLaneIdx(lane int) {
	sc.link.stageLane(lane, sc.curLanes, sc.curUnits, sc.curTx, sc.curRx, sc.lanes[lane])
}

// stageLane runs one lane end to end: frame each of its units, push the
// wire bytes through the lane's physical channel, then hunt, FEC-decode,
// and validate the received stream, writing recovered units directly into
// this lane's disjoint slots of rxStream (via the lane's persistent emit
// closure).
func (l *Link) stageLane(lane, lanes, totalUnits int, txStream, rxStream []byte, ls *laneState) {
	unitLen := l.cfg.UnitLen
	physical := l.mapper.Physical(lane)
	ch := &l.channels[physical]
	expected := LaneUnits(totalUnits, lanes, lane)
	ls.physical = physical
	ls.expected = expected
	ls.good = 0
	ls.laneIdx = lane
	ls.lanesCnt = lanes
	ls.unitLen = unitLen
	ls.rxOut = rxStream

	wire := ls.wire[:0]
	if need := expected * l.framer.WireLen(); cap(wire) < need {
		wire = make([]byte, 0, need)
	}
	for seq := 0; seq < expected; seq++ {
		g := seq*lanes + lane
		wire = l.framer.AppendFrame(wire, lane, uint32(seq), txStream[g*unitLen:(g+1)*unitLen], &ls.body)
	}
	ls.wire = wire
	ls.wireBytes = len(wire)

	ls.rx = ch.TransmitTo(ls.rx[:0], wire)

	if cap(ls.seen) < expected {
		ls.seen = make([]bool, expected)
	}
	ls.seen = ls.seen[:expected]
	for i := range ls.seen {
		ls.seen[i] = false
	}
	ls.stats = l.framer.ScanStream(ls.rx, &ls.body, ls.emit)
	ls.rxOut = nil
}

// stageFold merges the per-lane results serially, in lane order, so the
// monitor observation sequence — and every statistic — is independent of
// worker count.
func (l *Link) stageFold(states []*laneState, st *ExchangeStats) {
	for _, ls := range states {
		st.WireBytes += ls.wireBytes
		st.Corrections += ls.stats.Corrections
		st.PerChannel[ls.physical] = ls.stats
		for _, got := range ls.seen {
			if !got {
				st.UnitsLost++
			}
		}
		l.monitor.Observe(ls.physical, ls.expected, ls.good, ls.stats.Corrections,
			uint64(ls.wireBytes)*8)
	}
}
