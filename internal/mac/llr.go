package mac

import (
	"fmt"
	"slices"
	"sync"
)

// LLR defaults; see Config.
const (
	DefaultWindow      = 64
	DefaultRetxTimeout = 3
)

// Config parameterizes one LLR endpoint.
type Config struct {
	// Window is the per-VC send window: each virtual channel holds at
	// most this many unacked frames in flight (0 = DefaultWindow). When a
	// VC's window is full, its sends stall (counted as credit stalls)
	// until acks drain it.
	Window int

	// RetxTimeout is how many superframes an unacked frame waits before
	// retransmission — the whole window under go-back-N, the individual
	// frame under selective repeat (0 = DefaultRetxTimeout).
	RetxTimeout int

	// MaxPayload bounds a single packet's size (0 = DefaultMaxPayload).
	MaxPayload int

	// PayloadBudget is the exact superframe payload size in bytes that
	// BuildSuperframe produces, idle-filled when there is nothing to
	// send. Required; must hold at least one max-size frame.
	PayloadBudget int

	// ARQ selects the retransmission discipline ("" = ARQGoBackN).
	ARQ ARQKind

	// VCs is the number of virtual channels (0 = 1). Each VC has its own
	// send queue, credit window, and sequence/ack space. A single-VC
	// go-back-N endpoint speaks the legacy v1 wire format; every other
	// mode uses frame header v2 (with its VC byte) for all frames.
	VCs int

	// VCClass assigns each VC a QoS class in [0, NumClasses) — 0 is
	// highest priority. nil means all VCs are class 0; otherwise the
	// length must equal VCs. Classes share superframe budget by
	// deterministic weighted round-robin (see buildServiceOrder).
	VCClass []uint8

	// ReorderWindow is the per-VC receive reorder-ring depth used by
	// selective repeat (0 = Window). Frames further than this ahead of
	// the next expected seq are discarded, not buffered.
	ReorderWindow int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Window <= 0 {
		out.Window = DefaultWindow
	}
	if out.RetxTimeout <= 0 {
		out.RetxTimeout = DefaultRetxTimeout
	}
	if out.MaxPayload <= 0 {
		out.MaxPayload = DefaultMaxPayload
	}
	if out.ARQ == "" {
		out.ARQ = ARQGoBackN
	}
	if out.VCs == 0 {
		out.VCs = 1
	}
	if out.VCClass == nil && out.VCs > 0 {
		out.VCClass = make([]uint8, out.VCs)
	}
	if out.ReorderWindow == 0 {
		out.ReorderWindow = out.Window
	}
	return out, out.Validate()
}

// SizeFor derives the fields c leaves unset for a client offering perTick
// packets of packetLen bytes per superframe, plus burst more in an incast
// tick: MaxPayload one packet, Window four ticks of packets (at least
// DefaultWindow), PayloadBudget one tick of fresh data with its burst
// plus a full retransmission round plus a pure ack, at the frame overhead
// of the wire version c speaks. Session and fleetd's links both size here.
func (c *Config) SizeFor(perTick, burst, packetLen int) {
	if c.MaxPayload <= 0 {
		c.MaxPayload = packetLen
	}
	if c.Window <= 0 {
		c.Window = max(4*perTick, DefaultWindow)
	}
	if c.PayloadBudget <= 0 {
		c.PayloadBudget = (2*(perTick+burst) + 1) * (packetLen + c.wireOverhead())
	}
}

// RoundRobinVCs lays packets per superframe out over vcs virtual
// channels: classes[vc] is vc % NumClasses and perVC[vc] an even share of
// the packets (the first packets%vcs channels carry one extra). classes
// is nil for vcs <= 0 and perVC nil for vcs <= 1: the single-VC defaults
// of Config.VCClass and SessionConfig.VCPackets.
func RoundRobinVCs(vcs, packets int) (classes []uint8, perVC []int) {
	if vcs > 0 {
		classes = make([]uint8, vcs)
		for vc := range classes {
			classes[vc] = uint8(vc % NumClasses)
		}
	}
	if vcs > 1 {
		perVC = make([]int, vcs)
		for vc := range perVC {
			perVC[vc] = packets / vcs
			if vc < packets%vcs {
				perVC[vc]++
			}
		}
	}
	return classes, perVC
}

// wireOverhead is the per-frame overhead of the wire version a config
// speaks: v1 for legacy single-VC go-back-N, v2 everywhere else.
func (c Config) wireOverhead() int {
	if c.VCs > 1 || c.ARQ == ARQSelectiveRepeat {
		return OverheadV2
	}
	return Overhead
}

// Validate checks a fully-specified config (zero values are NOT
// defaulted here; NewEndpoint applies defaults first). It enforces the
// int16 wraparound bound on both window depths, the u16 length-field
// bound on payloads, header capacity on the VC count, and that the
// superframe budget can hold at least one max-size frame of the wire
// version the config speaks.
func (c Config) Validate() error {
	if c.Window < 1 || c.Window > 1<<14 {
		// seq arithmetic uses int16 wraparound distance; keep the window
		// far below half the sequence space.
		return fmt.Errorf("mac: Window %d outside [1, %d]", c.Window, 1<<14)
	}
	if c.RetxTimeout < 1 {
		return fmt.Errorf("mac: RetxTimeout %d < 1", c.RetxTimeout)
	}
	if c.MaxPayload < 1 || c.MaxPayload > 1<<16-1 {
		return fmt.Errorf("mac: MaxPayload %d outside u16 length field", c.MaxPayload)
	}
	if c.VCs < 1 || c.VCs > MaxVCs {
		return fmt.Errorf("mac: VC count %d outside [1, %d] (one-byte VC field)", c.VCs, MaxVCs)
	}
	if len(c.VCClass) != c.VCs {
		return fmt.Errorf("mac: VCClass length %d != VCs %d", len(c.VCClass), c.VCs)
	}
	for vc, class := range c.VCClass {
		if int(class) >= NumClasses {
			return fmt.Errorf("mac: VC %d class %d outside [0, %d)", vc, class, NumClasses)
		}
	}
	if c.ARQ != ARQGoBackN && c.ARQ != ARQSelectiveRepeat {
		return fmt.Errorf("mac: unknown ARQ %q", c.ARQ)
	}
	if c.ReorderWindow < 1 || c.ReorderWindow > 1<<14 {
		return fmt.Errorf("mac: ReorderWindow %d outside [1, %d]", c.ReorderWindow, 1<<14)
	}
	if c.ARQ == ARQSelectiveRepeat && c.MaxPayload < SackBytes {
		return fmt.Errorf("mac: MaxPayload %d cannot carry a %d-byte sack bitmap", c.MaxPayload, SackBytes)
	}
	if c.PayloadBudget < c.MaxPayload+c.wireOverhead() {
		return fmt.Errorf("mac: PayloadBudget %d cannot hold one max frame (%d)",
			c.PayloadBudget, c.MaxPayload+c.wireOverhead())
	}
	return nil
}

// Stats is the endpoint's cumulative view, aggregated across all virtual
// channels. Counters only grow; InFlight/QueueDepth/ReorderDepth are
// point-in-time gauges. Per-VC breakdowns come from VCSnapshot, and every
// field a VCStats also has is the sum of the VC snapshots.
type Stats struct {
	PacketsQueued uint64 // Send/SendVC calls accepted
	DataTx        uint64 // data frames emitted (first transmissions)
	Retransmits   uint64 // data frames re-emitted by the ARQ
	AcksTx        uint64 // pure-ack frames emitted (piggybacks not counted)
	DataRx        uint64 // data frames received intact
	Delivered     uint64 // packets delivered in order to the client
	Duplicates    uint64 // already-delivered or already-buffered seqs discarded
	Discarded     uint64 // ahead-of-window seqs dropped (no reorder room)
	Reordered     uint64 // out-of-order seqs parked in the SR reorder buffer
	AcksRx        uint64 // frames carrying an ack field that advanced or held
	SacksRx       uint64 // selective-ack bitmaps processed
	UnknownVC     uint64 // frames addressed to a VC this endpoint lacks
	CreditStalls  uint64 // superframes where queued data waited on a full window
	Timeouts      uint64 // retransmit timeouts fired

	InFlight     int // unacked frames across all in-flight lists
	QueueDepth   int // packets waiting to enter a window
	ReorderDepth int // frames parked in SR reorder buffers

	Deframe DeframeStats // receive-side scanner counters
}

// VCStats is one virtual channel's view of the same counters.
type VCStats struct {
	Class uint8

	PacketsQueued uint64
	DataTx        uint64
	Retransmits   uint64
	Delivered     uint64
	Duplicates    uint64
	Discarded     uint64
	Reordered     uint64
	CreditStalls  uint64
	Timeouts      uint64

	InFlight     int
	QueueDepth   int
	ReorderDepth int
}

// txSlot is one in-flight entry: an unacked payload it owns until the
// cumulative ack frees it, the superframe tick it was last (re)sent at,
// and — under selective repeat — whether a sack bitmap already covered
// it (skip on retx; only the cumulative ack releases the entry).
type txSlot struct {
	buf      []byte
	sentTick uint64
	acked    bool
}

// rxSlot is one reorder-ring entry on the SR receive side: a buffered
// out-of-order payload waiting for the gap before it to fill, taken from
// the VC's free list when parked and returned to it when drained.
type rxSlot struct {
	buf  []byte
	full bool
}

// vcState is all per-virtual-channel protocol state. The ARQ policy and
// the framing core operate on these; the Endpoint owns the slice.
type vcState struct {
	class uint8

	// Transmit side. A payload buffer is in exactly one place: the
	// queue, an in-flight entry, a reorder slot, or the free list.
	queue    [][]byte // packets waiting for window credit (owned copies)
	freeBuf  [][]byte // retired payload buffers, reused by SendVC and parking
	inflight []txSlot // unacked frames; entry k holds seq base+k
	base     uint16   // oldest unacked sequence number
	nextSeq  uint16   // next fresh sequence number (= base+len(inflight))
	txPiggy  bool     // a data frame piggybacked this VC's ack this tick

	// Receive side.
	rxExpected uint16 // next in-order sequence number
	ackDirty   bool   // rx state changed since the last ack we sent

	// Selective-repeat receive side: reorder[(rhead+d)%len] buffers seq
	// rxExpected+d. nil under go-back-N.
	reorder []rxSlot
	rhead   int
	rcount  int
	sack    [SackBytes]byte // bitmap scratch, rebuilt per pure ack

	stats VCStats
}

// Endpoint is one side of an LLR link: per-VC send queues and credit
// windows over a shared framing core, with the retransmission discipline
// delegated to an ARQ policy. It is single-goroutine like the rest of
// the simulator: the harness alternates BuildSuperframe (tx) and Accept
// (rx) once per superframe. Its buffers are reused across ticks, and the
// one Accept needs only for its call is borrowed — the steady-state hot
// path performs no allocations.
type Endpoint struct {
	cfg      Config
	arq      arq
	v2       bool // frame header v2 on the wire (any non-legacy mode)
	overhead int  // per-frame overhead of the active wire version

	vcs    []vcState
	order  []int // precomputed WRR service sequence over VC indices
	cursor int   // position in order, persists across superframes

	txBuf []byte // BuildSuperframe's payload, grown on first use; a Pair never fills it

	deframer  Deframer
	emit      func(Frame) // bound handleFrame, constructed once
	onDeliver func(vc int, payload []byte)

	tick  uint64
	stats Stats // only the frame counters no VC keeps; Stats adds the rest
}

// NewEndpoint builds an endpoint. onDeliver receives each in-order
// packet payload exactly once, tagged with the virtual channel it
// arrived on; the slice aliases internal buffers and must not be
// retained. onDeliver may be nil (delivery still counted).
func NewEndpoint(cfg Config, onDeliver func(vc int, payload []byte)) (*Endpoint, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		cfg:       full,
		arq:       arqFor(full.ARQ),
		v2:        full.wireOverhead() == OverheadV2,
		overhead:  full.wireOverhead(),
		vcs:       make([]vcState, full.VCs),
		order:     buildServiceOrder(full.VCClass),
		onDeliver: onDeliver,
	}
	for i := range e.vcs {
		v := &e.vcs[i]
		v.class = full.VCClass[i]
		v.stats.Class = v.class
		if full.ARQ == ARQSelectiveRepeat {
			v.reorder = make([]rxSlot, full.ReorderWindow)
		}
	}
	e.deframer.MaxPayload = full.MaxPayload
	e.emit = e.handleFrame
	return e, nil
}

// SendVC queues one packet on the given virtual channel for reliable
// delivery. The payload is copied.
func (e *Endpoint) SendVC(vc int, payload []byte) error {
	if vc < 0 || vc >= len(e.vcs) {
		return fmt.Errorf("mac: VC %d outside [0, %d)", vc, len(e.vcs))
	}
	if len(payload) > e.cfg.MaxPayload {
		return fmt.Errorf("mac: packet %dB exceeds MaxPayload %d", len(payload), e.cfg.MaxPayload)
	}
	v := &e.vcs[vc]
	v.queue = append(v.queue, v.copyBuf(payload))
	v.stats.PacketsQueued++
	return nil
}

// copyBuf copies p into a buffer from v's free list, or a new one.
func (v *vcState) copyBuf(p []byte) []byte {
	var buf []byte
	if n := len(v.freeBuf); n > 0 {
		buf = v.freeBuf[n-1][:0]
		v.freeBuf = v.freeBuf[:n-1]
	}
	return append(buf, p...)
}

// BuildSuperframe advances the endpoint one superframe tick and returns
// the payload to hand to the PHY. Frame order is deterministic:
// retransmissions first (per VC in index order, slots chosen by the ARQ
// policy), then fresh data in weighted round-robin order across VCs —
// one frame per service slot while window credit and budget allow —
// then per-VC pure acks where receive state changed and no data frame
// carried it, then idle fill to exactly PayloadBudget bytes. The
// returned slice is reused by the next call.
func (e *Endpoint) BuildSuperframe() []byte {
	e.txBuf = e.buildSuperframe(e.txBuf)
	return e.txBuf
}

// buildSuperframe is BuildSuperframe over storage the caller owns: it
// builds the superframe into buf[:0], grown once to the budget if it is
// short, and returns it. Pair.Tick builds into the arena it borrows for
// the tick.
func (e *Endpoint) buildSuperframe(buf []byte) []byte {
	e.tick++
	budget := e.cfg.PayloadBudget
	out := slices.Grow(buf[:0], budget)
	for i := range e.vcs {
		e.vcs[i].txPiggy = false
	}

	for vc := range e.vcs {
		out = e.arq.appendRetx(e, vc, out, budget)
	}

	// Fresh data: walk the precomputed WRR sequence (cursor persists
	// across superframes for long-run fairness) until one full cycle
	// makes no progress — every VC is idle, stalled, or out of budget.
	idle := 0
	for idle < len(e.order) {
		vc := e.order[e.cursor]
		e.cursor++
		if e.cursor == len(e.order) {
			e.cursor = 0
		}
		if e.emitFresh(vc, &out, budget) {
			idle = 0
		} else {
			idle++
		}
	}
	for i := range e.vcs {
		v := &e.vcs[i]
		if len(v.queue) > 0 && len(v.inflight) == e.cfg.Window {
			v.stats.CreditStalls++
		}
	}

	for vc := range e.vcs {
		out = e.arq.appendAcks(e, vc, out, budget)
	}

	// Idle fill to the fixed budget (IdleByte is zero).
	n := len(out)
	out = out[:budget]
	clear(out[n:])
	return out
}

// emitFresh tries to emit one fresh data frame from vc's queue: false
// when the queue is empty, the window is out of credit, or the frame
// would overflow the superframe budget.
func (e *Endpoint) emitFresh(vc int, out *[]byte, budget int) bool {
	v := &e.vcs[vc]
	if len(v.queue) == 0 || len(v.inflight) == e.cfg.Window {
		return false
	}
	p := v.queue[0]
	if len(*out)+e.overhead+len(p) > budget {
		return false
	}
	v.inflight = append(v.inflight, txSlot{buf: p, sentTick: e.tick})
	*out = e.appendFrame(*out, FlagData|FlagAck, vc, v.nextSeq, v.rxExpected, p)
	v.nextSeq++
	v.stats.DataTx++
	v.txPiggy = true
	n := copy(v.queue, v.queue[1:])
	v.queue[n] = nil
	v.queue = v.queue[:n]
	return true
}

// appendFrame encodes one frame in the endpoint's wire version.
func (e *Endpoint) appendFrame(out []byte, flags byte, vc int, seq, ack uint16, payload []byte) []byte {
	if e.v2 {
		return AppendFrameVC(out, flags, byte(vc), seq, ack, payload)
	}
	return AppendFrame(out, flags, seq, ack, payload)
}

// acceptBufs lends Accept the buffer it concatenates chunks into.
var acceptBufs = sync.Pool{New: func() any { return new([]byte) }}

// Accept ingests the PHY-delivered chunks of the peer's superframe (in
// order; corrupted or lost chunks simply absent) and runs the deframer
// over the concatenation. Valid frames update ack state and deliver
// in-order payloads.
func (e *Endpoint) Accept(chunks [][]byte) {
	buf := acceptBufs.Get().(*[]byte)
	defer acceptBufs.Put(buf)
	rx := (*buf)[:0]
	for _, c := range chunks {
		rx = append(rx, c...)
	}
	*buf = rx
	e.deframer.Deframe(rx, e.emit)
}

func (e *Endpoint) handleFrame(f Frame) {
	vc := 0
	if f.Flags&FlagV2 != 0 {
		vc = int(f.VC)
		if vc >= len(e.vcs) {
			e.stats.UnknownVC++
			return
		}
	}
	v := &e.vcs[vc]
	if f.Flags&FlagAck != 0 {
		if f.Flags&FlagSack != 0 && f.Flags&FlagData == 0 && len(f.Payload) >= SackBytes {
			e.handleSack(v, f.Ack, f.Payload)
		} else {
			e.handleAck(v, f.Ack)
		}
	}
	if f.Flags&FlagData == 0 {
		return
	}
	e.stats.DataRx++
	e.arq.onData(e, vc, f)
}

// deliver hands one in-order payload to the client callback.
func (e *Endpoint) deliver(vc int, payload []byte) {
	e.vcs[vc].stats.Delivered++
	if e.onDeliver != nil {
		e.onDeliver(vc, payload)
	}
}

// handleAck applies a cumulative ack to one VC: the peer's next expected
// sequence number releases every in-flight entry strictly before it, and
// their payloads go back to the free list. Stale or implausible acks
// (outside the in-flight range — possible only via an undetected CRC
// collision) are ignored.
func (e *Endpoint) handleAck(v *vcState, ack uint16) {
	adv := int(int16(ack - v.base))
	if adv < 0 || adv > len(v.inflight) {
		return
	}
	e.stats.AcksRx++
	for _, s := range v.inflight[:adv] {
		v.freeBuf = append(v.freeBuf, s.buf)
	}
	n := copy(v.inflight, v.inflight[adv:])
	clear(v.inflight[n:])
	v.inflight = v.inflight[:n]
	v.base = ack
}

// handleSack applies a selective-ack frame: the cumulative ack first
// (releasing the contiguous prefix), then every set bitmap bit marks its
// in-flight entry acked so selective repeat skips it on retransmit. Bits
// outside the current in-flight range are ignored; a receiver only sets
// a bit for a frame it holds, so marking is safe even from a stale
// bitmap.
func (e *Endpoint) handleSack(v *vcState, ack uint16, bm []byte) {
	e.handleAck(v, ack)
	e.stats.SacksRx++
	for k := 0; k < 8*SackBytes; k++ {
		if bm[k>>3]&(1<<(k&7)) == 0 {
			continue
		}
		// Bit k covers seq ack+1+k; locate it relative to our base.
		d := int(int16(ack + 1 + uint16(k) - v.base))
		if d < 0 || d >= len(v.inflight) {
			continue
		}
		v.inflight[d].acked = true
	}
}

// Stats returns the endpoint's aggregate view: its own frame counters,
// its deframer's, and the sum of every VC snapshot, gauges included.
func (e *Endpoint) Stats() Stats {
	s := e.stats
	s.Deframe = e.deframer.Stats
	for vc := range e.vcs {
		v := e.VCSnapshot(vc)
		s.PacketsQueued += v.PacketsQueued
		s.DataTx += v.DataTx
		s.Retransmits += v.Retransmits
		s.Delivered += v.Delivered
		s.Duplicates += v.Duplicates
		s.Discarded += v.Discarded
		s.Reordered += v.Reordered
		s.CreditStalls += v.CreditStalls
		s.Timeouts += v.Timeouts
		s.InFlight += v.InFlight
		s.QueueDepth += v.QueueDepth
		s.ReorderDepth += v.ReorderDepth
	}
	return s
}

// NumVCs returns the number of virtual channels.
func (e *Endpoint) NumVCs() int { return len(e.vcs) }

// VCSnapshot returns one virtual channel's counters and gauges.
func (e *Endpoint) VCSnapshot(vc int) VCStats {
	v := &e.vcs[vc]
	s := v.stats
	s.InFlight = len(v.inflight)
	s.QueueDepth = len(v.queue)
	s.ReorderDepth = v.rcount
	return s
}
