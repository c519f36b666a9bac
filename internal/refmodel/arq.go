package refmodel

import "fmt"

// Reference multi-VC ARQ endpoint. This is the naive twin of the
// optimized mac.Endpoint in its v2 modes (selective repeat and/or more
// than one virtual channel): the protocol — per-VC queues and windows,
// weighted round-robin service, per-slot selective-repeat timers, sack
// bitmaps, the bounded reorder buffer — is re-derived from the protocol
// description with plain slices and maps, fresh copies everywhere, and
// no buffer mechanics shared with the optimized engine. BuildSuperframe
// must produce byte-identical superframes and Stats must track the
// optimized aggregate counters field for field.

// ARQ class weights, re-stated: class 0 (highest) is serviced 4 slots
// per weighted round-robin cycle, class 1 two, class 2 one.
var arqClassWeights = [3]int{4, 2, 1}

// ARQConfig parameterizes the reference endpoint (all fields required;
// this twin does no defaulting — the diff harness feeds it the same
// resolved values the optimized Config ends up with).
type ARQConfig struct {
	Window        int
	RetxTimeout   int
	MaxPayload    int
	Budget        int
	SelectiveRep  bool
	Classes       []uint8 // one QoS class per VC
	ReorderWindow int     // SR receive buffer depth
}

// arqSlot is one in-flight frame: slot k of a VC's list carries sequence
// base+k. Payloads are owned fresh copies.
type arqSlot struct {
	payload  []byte
	sentTick uint64
	acked    bool
}

// arqVC is one virtual channel's naive protocol state.
type arqVC struct {
	class   uint8
	queue   [][]byte
	infl    []arqSlot
	base    uint16
	nextSeq uint16
	piggy   bool

	rxExpected uint16
	ackDirty   bool
	reorder    map[uint16][]byte // buffered out-of-order payloads by seq
}

// ARQEndpoint is the reference v2 endpoint.
type ARQEndpoint struct {
	cfg   ARQConfig
	vcs   []arqVC
	order []int // weighted round-robin service sequence
	cur   int

	tick      uint64
	stats     MACStats
	delivered [][]byte // flat, in delivery order
	deliverVC []int    // VC of each delivered packet
}

// NewARQEndpoint builds a reference endpoint over len(Classes) virtual
// channels.
func NewARQEndpoint(cfg ARQConfig) (*ARQEndpoint, error) {
	if cfg.Window < 1 || cfg.RetxTimeout < 1 || cfg.MaxPayload < 1 ||
		cfg.ReorderWindow < 1 || len(cfg.Classes) < 1 {
		return nil, fmt.Errorf("refmodel: incomplete ARQConfig %+v", cfg)
	}
	if cfg.Budget < cfg.MaxPayload+MACOverheadV2 {
		return nil, fmt.Errorf("refmodel: budget %d cannot hold one max v2 frame", cfg.Budget)
	}
	e := &ARQEndpoint{cfg: cfg, vcs: make([]arqVC, len(cfg.Classes))}
	for i := range e.vcs {
		e.vcs[i].class = cfg.Classes[i]
		e.vcs[i].reorder = make(map[uint16][]byte)
	}
	// Weighted round-robin: round r of the cycle includes every VC whose
	// class weight exceeds r.
	maxW := 0
	for _, c := range cfg.Classes {
		if w := arqWeight(c); w > maxW {
			maxW = w
		}
	}
	for r := 0; r < maxW; r++ {
		for vc, c := range cfg.Classes {
			if r < arqWeight(c) {
				e.order = append(e.order, vc)
			}
		}
	}
	if len(e.order) == 0 {
		e.order = []int{0}
	}
	return e, nil
}

func arqWeight(class uint8) int {
	if int(class) >= len(arqClassWeights) {
		return 0
	}
	return arqClassWeights[class]
}

// SendVC queues one packet on a virtual channel (copied).
func (e *ARQEndpoint) SendVC(vc int, payload []byte) error {
	if vc < 0 || vc >= len(e.vcs) {
		return fmt.Errorf("refmodel: VC %d outside [0, %d)", vc, len(e.vcs))
	}
	if len(payload) > e.cfg.MaxPayload {
		return fmt.Errorf("refmodel: packet %dB exceeds max payload %d", len(payload), e.cfg.MaxPayload)
	}
	e.vcs[vc].queue = append(e.vcs[vc].queue, append([]byte(nil), payload...))
	e.stats.PacketsQueued++
	return nil
}

// Delivered returns every in-order packet delivered so far (fresh
// copies, in delivery order) and the VC each arrived on.
func (e *ARQEndpoint) Delivered() ([][]byte, []int) { return e.delivered, e.deliverVC }

// BuildSuperframe advances one tick and returns a fresh superframe
// payload: per-VC retransmissions first (whole-window under go-back-N,
// per-slot timers under selective repeat), then fresh data in weighted
// round-robin order, then per-VC pure acks (sack bitmaps under SR), then
// idle fill to the budget. All frames are header v2.
func (e *ARQEndpoint) BuildSuperframe() []byte {
	e.tick++
	out := make([]byte, 0, e.cfg.Budget)
	for i := range e.vcs {
		e.vcs[i].piggy = false
	}

	for vc := range e.vcs {
		out = e.appendRetx(vc, out)
	}

	idle := 0
	for idle < len(e.order) {
		vc := e.order[e.cur]
		e.cur++
		if e.cur == len(e.order) {
			e.cur = 0
		}
		if progressed, next := e.emitFresh(vc, out); progressed {
			out = next
			idle = 0
		} else {
			idle++
		}
	}
	for i := range e.vcs {
		v := &e.vcs[i]
		if len(v.queue) > 0 && len(v.infl) == e.cfg.Window {
			e.stats.CreditStalls++
		}
	}

	for vc := range e.vcs {
		out = e.appendAcks(vc, out)
	}

	for len(out) < e.cfg.Budget {
		out = append(out, MACIdleByte)
	}
	e.syncGauges()
	return out
}

func (e *ARQEndpoint) appendRetx(vc int, out []byte) []byte {
	v := &e.vcs[vc]
	if !e.cfg.SelectiveRep {
		if len(v.infl) == 0 || e.tick-v.infl[0].sentTick < uint64(e.cfg.RetxTimeout) {
			return out
		}
		e.stats.Timeouts++
		for k := range v.infl {
			if len(out)+MACOverheadV2+len(v.infl[k].payload) > e.cfg.Budget {
				break
			}
			out = AppendMACFrameV2(out, MACFlagData|MACFlagAck, byte(vc),
				v.base+uint16(k), v.rxExpected, v.infl[k].payload)
			v.infl[k].sentTick = e.tick
			e.stats.Retransmits++
			v.piggy = true
		}
		return out
	}
	for k := range v.infl {
		if v.infl[k].acked || e.tick-v.infl[k].sentTick < uint64(e.cfg.RetxTimeout) {
			continue
		}
		if len(out)+MACOverheadV2+len(v.infl[k].payload) > e.cfg.Budget {
			break
		}
		out = AppendMACFrameV2(out, MACFlagData|MACFlagAck, byte(vc),
			v.base+uint16(k), v.rxExpected, v.infl[k].payload)
		v.infl[k].sentTick = e.tick
		e.stats.Timeouts++
		e.stats.Retransmits++
		v.piggy = true
	}
	return out
}

func (e *ARQEndpoint) emitFresh(vc int, out []byte) (bool, []byte) {
	v := &e.vcs[vc]
	if len(v.queue) == 0 || len(v.infl) == e.cfg.Window {
		return false, out
	}
	p := v.queue[0]
	if len(out)+MACOverheadV2+len(p) > e.cfg.Budget {
		return false, out
	}
	v.infl = append(v.infl, arqSlot{payload: append([]byte(nil), p...), sentTick: e.tick})
	out = AppendMACFrameV2(out, MACFlagData|MACFlagAck, byte(vc), v.nextSeq, v.rxExpected, p)
	v.nextSeq++
	e.stats.DataTx++
	v.piggy = true
	v.queue = v.queue[1:]
	return true, out
}

func (e *ARQEndpoint) appendAcks(vc int, out []byte) []byte {
	v := &e.vcs[vc]
	if !e.cfg.SelectiveRep {
		if v.piggy {
			v.ackDirty = false
			return out
		}
		if !v.ackDirty || len(out)+MACOverheadV2 > e.cfg.Budget {
			return out
		}
		out = AppendMACFrameV2(out, MACFlagAck, byte(vc), 0, v.rxExpected, nil)
		e.stats.AcksTx++
		v.ackDirty = false
		return out
	}
	// Selective repeat: receive-state changes always produce a sack frame
	// (data piggybacks carry only the cumulative ack).
	if !v.ackDirty || len(out)+MACOverheadV2+MACSackBytes > e.cfg.Budget {
		return out
	}
	var bm [MACSackBytes]byte
	for d := 1; d <= 8*MACSackBytes && d < e.cfg.ReorderWindow; d++ {
		if _, ok := v.reorder[v.rxExpected+uint16(d)]; ok {
			k := d - 1
			bm[k/8] |= 1 << (k % 8)
		}
	}
	out = AppendMACFrameV2(out, MACFlagAck|MACFlagSack, byte(vc), 0, v.rxExpected, bm[:])
	e.stats.AcksTx++
	v.ackDirty = false
	return out
}

// Accept ingests the delivered chunks of the peer's superframe.
func (e *ARQEndpoint) Accept(chunks [][]byte) {
	var rx []byte
	for _, c := range chunks {
		rx = append(rx, c...)
	}
	frames, st := MACDeframe(rx, e.cfg.MaxPayload)
	e.stats.Deframe.Frames += st.Frames
	e.stats.Deframe.PayloadBytes += st.PayloadBytes
	e.stats.Deframe.IdleBytes += st.IdleBytes
	e.stats.Deframe.SkippedBytes += st.SkippedBytes
	e.stats.Deframe.HeaderRejects += st.HeaderRejects
	e.stats.Deframe.CRCRejects += st.CRCRejects
	e.stats.Deframe.Truncated += st.Truncated
	for _, f := range frames {
		e.handleFrame(f)
	}
	e.syncGauges()
}

func (e *ARQEndpoint) handleFrame(f MACFrame) {
	vc := 0
	if f.Flags&MACFlagV2 != 0 {
		vc = int(f.VC)
		if vc >= len(e.vcs) {
			e.stats.UnknownVC++
			return
		}
	}
	v := &e.vcs[vc]
	if f.Flags&MACFlagAck != 0 {
		if f.Flags&MACFlagSack != 0 && f.Flags&MACFlagData == 0 && len(f.Payload) >= MACSackBytes {
			e.handleSack(v, f.Ack, f.Payload)
		} else {
			e.handleAck(v, f.Ack)
		}
	}
	if f.Flags&MACFlagData == 0 {
		return
	}
	e.stats.DataRx++
	if e.cfg.SelectiveRep {
		e.onDataSR(vc, v, f)
	} else {
		e.onDataGBN(vc, v, f)
	}
}

func (e *ARQEndpoint) onDataGBN(vc int, v *arqVC, f MACFrame) {
	switch d := int16(f.Seq - v.rxExpected); {
	case d == 0:
		e.deliver(vc, f.Payload)
		v.rxExpected++
		v.ackDirty = true
	case d < 0:
		e.stats.Duplicates++
		v.ackDirty = true
	default:
		e.stats.Discarded++
		v.ackDirty = true
	}
}

func (e *ARQEndpoint) onDataSR(vc int, v *arqVC, f MACFrame) {
	switch d := int(int16(f.Seq - v.rxExpected)); {
	case d == 0:
		e.deliver(vc, f.Payload)
		v.rxExpected++
		for {
			p, ok := v.reorder[v.rxExpected]
			if !ok {
				break
			}
			delete(v.reorder, v.rxExpected)
			e.deliver(vc, p)
			v.rxExpected++
		}
		v.ackDirty = true
	case d < 0:
		e.stats.Duplicates++
		v.ackDirty = true
	case d < e.cfg.ReorderWindow:
		if _, ok := v.reorder[f.Seq]; ok {
			e.stats.Duplicates++
		} else {
			v.reorder[f.Seq] = append([]byte(nil), f.Payload...)
			e.stats.Reordered++
		}
		v.ackDirty = true
	default:
		e.stats.Discarded++
		v.ackDirty = true
	}
}

func (e *ARQEndpoint) deliver(vc int, payload []byte) {
	e.stats.Delivered++
	e.delivered = append(e.delivered, append([]byte(nil), payload...))
	e.deliverVC = append(e.deliverVC, vc)
}

func (e *ARQEndpoint) handleAck(v *arqVC, ack uint16) {
	adv := int(int16(ack - v.base))
	if adv < 0 || adv > len(v.infl) {
		return
	}
	e.stats.AcksRx++
	v.infl = v.infl[adv:]
	v.base = ack
}

func (e *ARQEndpoint) handleSack(v *arqVC, ack uint16, bm []byte) {
	e.handleAck(v, ack)
	e.stats.SacksRx++
	for k := 0; k < 8*MACSackBytes; k++ {
		if bm[k/8]&(1<<(k%8)) == 0 {
			continue
		}
		d := int(int16(ack + 1 + uint16(k) - v.base))
		if d < 0 || d >= len(v.infl) {
			continue
		}
		v.infl[d].acked = true
	}
}

func (e *ARQEndpoint) syncGauges() {
	infl, depth, rdepth := 0, 0, 0
	for i := range e.vcs {
		infl += len(e.vcs[i].infl)
		depth += len(e.vcs[i].queue)
		rdepth += len(e.vcs[i].reorder)
	}
	e.stats.InFlight = infl
	e.stats.QueueDepth = depth
	e.stats.ReorderDepth = rdepth
}

// Stats returns a snapshot of the endpoint's counters.
func (e *ARQEndpoint) Stats() MACStats {
	e.syncGauges()
	return e.stats
}
