package mac

import (
	"fmt"
	"sync"

	"mosaic/internal/phy"
)

// PairConfig parameterizes a full-duplex MAC link: two endpoints joined
// by a forward and a reverse PHY link.
type PairConfig struct {
	// PHYFrameLen is the size of the client frames handed to the PHY;
	// the superframe payload is split into chunks of this many bytes
	// (0 = DefaultPHYFrameLen). The endpoint PayloadBudget is rounded up
	// to a whole number of PHY frames.
	PHYFrameLen int

	// Endpoint configures both LLR endpoints symmetrically.
	Endpoint Config
}

// DefaultPHYFrameLen matches the PHY's default RS-lite unit length, so
// one lost unit costs about one MAC chunk.
const DefaultPHYFrameLen = 243

// Pair drives two LLR endpoints over a pair of unidirectional PHY
// links. Tick moves one superframe in each direction: A's payload is
// chunked into PHY frames, pushed through fwd, and the surviving chunks
// are deframed by B (and symmetrically B over rev to A). Chunk slices
// are headers into the payload buffer and the delivered frames of both
// directions land in one phy.ExchangeBuf borrowed for the Tick (Accept
// copies what it keeps), so a Pair holds no arena between ticks and a
// warmed tick allocates nothing.
type Pair struct {
	A, B     *Endpoint
	fwd, rev *phy.Link

	phyFrameLen int
	chunksF     [][]byte
	chunksR     [][]byte

	// FwdStats/RevStats hold the PHY ExchangeStats of the latest Tick,
	// with PerChannel nil: the per-channel map lives in the borrowed arena
	// and is gone when the Tick returns.
	FwdStats, RevStats phy.ExchangeStats
}

// tickBufs lends a Tick its delivered-frame arena.
var tickBufs = sync.Pool{New: func() any { return new(phy.ExchangeBuf) }}

// NewPair wires two endpoints over the given links. onDeliverA receives
// packets arriving AT A (sent by B), onDeliverB those arriving at B.
func NewPair(fwd, rev *phy.Link, cfg PairConfig, onDeliverA, onDeliverB func([]byte)) (*Pair, error) {
	if fwd == nil || rev == nil {
		return nil, fmt.Errorf("mac: NewPair requires both links")
	}
	fl := cfg.PHYFrameLen
	if fl <= 0 {
		fl = DefaultPHYFrameLen
	}
	if fl < 3 {
		return nil, fmt.Errorf("mac: PHYFrameLen %d below the PHY minimum of 3", fl)
	}
	ec := cfg.Endpoint
	if ec.PayloadBudget <= 0 {
		return nil, fmt.Errorf("mac: Endpoint.PayloadBudget is required")
	}
	// Round the budget up to a whole number of PHY frames so every chunk
	// is full-size (the PHY rejects frames under 3 bytes).
	if rem := ec.PayloadBudget % fl; rem != 0 {
		ec.PayloadBudget += fl - rem
	}
	a, err := NewEndpoint(ec, vcBlind(onDeliverA))
	if err != nil {
		return nil, err
	}
	b, err := NewEndpoint(ec, vcBlind(onDeliverB))
	if err != nil {
		return nil, err
	}
	nchunks := ec.PayloadBudget / fl
	return &Pair{
		A: a, B: b, fwd: fwd, rev: rev,
		phyFrameLen: fl,
		chunksF:     make([][]byte, nchunks),
		chunksR:     make([][]byte, nchunks),
	}, nil
}

// vcBlind adapts a delivery callback that ignores the VC to NewEndpoint's.
func vcBlind(fn func([]byte)) func(int, []byte) {
	if fn == nil {
		return nil
	}
	return func(_ int, payload []byte) { fn(payload) }
}

// chunk splits payload into phyFrameLen-sized views stored in dst.
func chunk(payload []byte, size int, dst [][]byte) [][]byte {
	dst = dst[:0]
	for off := 0; off < len(payload); off += size {
		end := off + size
		if end > len(payload) {
			end = len(payload)
		}
		dst = append(dst, payload[off:end])
	}
	return dst
}

// Tick runs one superframe in both directions.
func (p *Pair) Tick() error {
	buf := tickBufs.Get().(*phy.ExchangeBuf)
	defer tickBufs.Put(buf)

	p.chunksF = chunk(p.A.BuildSuperframe(), p.phyFrameLen, p.chunksF)
	delivered, st, err := p.fwd.ExchangeInto(buf, p.chunksF)
	if err != nil {
		return fmt.Errorf("mac: forward exchange: %w", err)
	}
	p.FwdStats = st
	p.FwdStats.PerChannel = nil
	p.B.Accept(delivered)

	p.chunksR = chunk(p.B.BuildSuperframe(), p.phyFrameLen, p.chunksR)
	delivered, st, err = p.rev.ExchangeInto(buf, p.chunksR)
	if err != nil {
		return fmt.Errorf("mac: reverse exchange: %w", err)
	}
	p.RevStats = st
	p.RevStats.PerChannel = nil
	p.A.Accept(delivered)
	return nil
}
