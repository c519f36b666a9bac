package mac

import "fmt"

// ARQKind names a link-level retransmission discipline.
type ARQKind string

const (
	// ARQGoBackN is the classic cumulative-ack protocol: the receiver
	// holds no reorder buffer, and a head-of-window timeout replays the
	// whole window. Single-VC go-back-N is the legacy v1 wire format.
	ARQGoBackN ARQKind = "gbn"
	// ARQSelectiveRepeat retransmits only unacked frames: the receiver
	// buffers out-of-order frames in a bounded reorder ring and reports
	// them with selective-ack bitmaps, so one lost frame costs one
	// retransmission instead of a whole-window replay.
	ARQSelectiveRepeat ARQKind = "sr"
)

// ARQByName parses a protocol name ("gbn" or "sr"; "" selects go-back-N).
func ARQByName(name string) (ARQKind, error) {
	switch ARQKind(name) {
	case "":
		return ARQGoBackN, nil
	case ARQGoBackN:
		return ARQGoBackN, nil
	case ARQSelectiveRepeat:
		return ARQSelectiveRepeat, nil
	}
	return "", fmt.Errorf("mac: unknown ARQ %q (want gbn or sr)", name)
}

// arq is the retransmission policy plugged into the shared framing and
// credit core: it decides which replay-ring slots refire, how received
// data frames advance the receive state, and what a pure-ack frame
// carries. Implementations are stateless singletons — all protocol state
// lives in the Endpoint's per-VC vcState.
type arq interface {
	kind() ARQKind
	// appendRetx emits vc's due retransmissions into out (within budget).
	appendRetx(e *Endpoint, vc int, out []byte, budget int) []byte
	// onData handles one received data frame addressed to vc.
	onData(e *Endpoint, vc int, f Frame)
	// appendAcks emits vc's pure-ack frame if receive state changed and
	// nothing carried it (within budget).
	appendAcks(e *Endpoint, vc int, out []byte, budget int) []byte
}

// goBackN implements the v1 protocol per virtual channel: whole-window
// replay on head timeout, cumulative acks only, ahead-of-window frames
// discarded at the receiver.
type goBackN struct{}

func (goBackN) kind() ARQKind { return ARQGoBackN }

func (goBackN) appendRetx(e *Endpoint, vc int, out []byte, budget int) []byte {
	v := &e.vcs[vc]
	if v.ringLen == 0 || e.tick-v.ring[v.head].sentTick < uint64(e.cfg.RetxTimeout) {
		return out
	}
	v.stats.Timeouts++
	for k := 0; k < v.ringLen; k++ {
		slot := &v.ring[(v.head+k)%len(v.ring)]
		if len(out)+e.overhead+len(slot.buf) > budget {
			break
		}
		out = e.appendFrame(out, FlagData|FlagAck, vc, v.base+uint16(k), v.rxExpected, slot.buf)
		slot.sentTick = e.tick
		v.stats.Retransmits++
		v.txPiggy = true
	}
	return out
}

func (goBackN) onData(e *Endpoint, vc int, f Frame) {
	v := &e.vcs[vc]
	switch d := int16(f.Seq - v.rxExpected); {
	case d == 0:
		e.deliver(vc, f.Payload)
		v.rxExpected++
		v.ackDirty = true
	case d < 0:
		// Already delivered (the ack must have been lost); re-ack.
		v.stats.Duplicates++
		v.ackDirty = true
	default:
		// A gap: go-back-N receivers hold no reorder buffer, so frames
		// ahead of the expected seq are discarded and re-acked; the
		// sender times out and replays from the gap.
		v.stats.Discarded++
		v.ackDirty = true
	}
}

func (goBackN) appendAcks(e *Endpoint, vc int, out []byte, budget int) []byte {
	v := &e.vcs[vc]
	if v.txPiggy {
		v.ackDirty = false
		return out
	}
	if !v.ackDirty || len(out)+e.overhead > budget {
		return out
	}
	out = e.appendFrame(out, FlagAck, vc, 0, v.rxExpected, nil)
	e.stats.AcksTx++
	v.ackDirty = false
	return out
}

// selectiveRepeat retransmits per slot: a frame refires only when its
// own timer expires and no (selective or cumulative) ack covered it.
// The receiver parks out-of-order frames in a bounded reorder ring and
// advertises them in a SackBytes bitmap on every pure ack, so the sender
// skips frames the receiver already holds.
type selectiveRepeat struct{}

func (selectiveRepeat) kind() ARQKind { return ARQSelectiveRepeat }

func (selectiveRepeat) appendRetx(e *Endpoint, vc int, out []byte, budget int) []byte {
	v := &e.vcs[vc]
	for k := 0; k < v.ringLen; k++ {
		slot := &v.ring[(v.head+k)%len(v.ring)]
		if slot.acked || e.tick-slot.sentTick < uint64(e.cfg.RetxTimeout) {
			continue
		}
		if len(out)+e.overhead+len(slot.buf) > budget {
			break
		}
		out = e.appendFrame(out, FlagData|FlagAck, vc, v.base+uint16(k), v.rxExpected, slot.buf)
		slot.sentTick = e.tick
		// Selective repeat counts one timeout per refired slot (go-back-N
		// counts one per whole-window replay event).
		v.stats.Timeouts++
		v.stats.Retransmits++
		v.txPiggy = true
	}
	return out
}

func (selectiveRepeat) onData(e *Endpoint, vc int, f Frame) {
	v := &e.vcs[vc]
	r := len(v.reorder)
	switch d := int(int16(f.Seq - v.rxExpected)); {
	case d == 0:
		e.deliver(vc, f.Payload)
		v.rxExpected++
		v.rhead = (v.rhead + 1) % r
		// Drain contiguously buffered frames behind the filled gap.
		for v.rcount > 0 && v.reorder[v.rhead].full {
			slot := &v.reorder[v.rhead]
			slot.full = false
			v.rcount--
			e.deliver(vc, slot.buf)
			v.rxExpected++
			v.rhead = (v.rhead + 1) % r
		}
		v.ackDirty = true
	case d < 0:
		v.stats.Duplicates++
		v.ackDirty = true
	case d < r:
		// Within the reorder window: park a copy for later drain.
		slot := &v.reorder[(v.rhead+d)%r]
		if slot.full {
			v.stats.Duplicates++
		} else {
			slot.buf = append(slot.buf[:0], f.Payload...)
			slot.full = true
			v.rcount++
			v.stats.Reordered++
		}
		v.ackDirty = true
	default:
		// Beyond the bounded reorder buffer: drop; the sender's per-slot
		// timer will refire it once the window has advanced.
		v.stats.Discarded++
		v.ackDirty = true
	}
}

func (selectiveRepeat) appendAcks(e *Endpoint, vc int, out []byte, budget int) []byte {
	v := &e.vcs[vc]
	// Data piggybacks carry only the cumulative ack; the sack bitmap
	// rides exclusively on pure acks, so receive-state changes always
	// produce one (txPiggy does not clear ackDirty in SR mode).
	if !v.ackDirty || len(out)+e.overhead+SackBytes > budget {
		return out
	}
	for i := range v.sack {
		v.sack[i] = 0
	}
	r := len(v.reorder)
	for d := 1; d <= 8*SackBytes && d < r; d++ {
		if v.reorder[(v.rhead+d)%r].full {
			k := d - 1 // bit k covers seq rxExpected+1+k
			v.sack[k>>3] |= 1 << (k & 7)
		}
	}
	out = e.appendFrame(out, FlagAck|FlagSack, vc, 0, v.rxExpected, v.sack[:])
	e.stats.AcksTx++
	v.ackDirty = false
	return out
}

// arqFor returns the stateless policy singleton for a kind.
func arqFor(kind ARQKind) arq {
	if kind == ARQSelectiveRepeat {
		return selectiveRepeat{}
	}
	return goBackN{}
}
