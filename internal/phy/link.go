package phy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"

	"mosaic/internal/coding/linecode"
	"mosaic/internal/par"
)

// Config describes a Mosaic PHY instance.
type Config struct {
	Lanes   int // active logical lanes (e.g. 100 for the prototype)
	Spares  int // spare physical channels
	FEC     FEC // per-channel FEC (NoFEC, HammingFEC, RS-lite, KP4)
	UnitLen int // stripe unit / channel-frame payload, bytes; multiple of 9
	// PerChannelBitRate is the per-channel line rate in bit/s (2e9 for the
	// paper's operating point); used for throughput/latency accounting.
	PerChannelBitRate float64
	Seed              int64
	// Workers sizes the par.Pool the per-lane pipeline stage fans out on:
	// 0 means runtime.GOMAXPROCS, 1 runs the lanes inline (serial). Each
	// lane owns its state and RNG, so results are bit-identical for any value.
	Workers int
}

// DefaultConfig returns the paper's prototype configuration: 100 channels
// at 2 Gbps with 4 spares and the light RS FEC.
func DefaultConfig() Config {
	return Config{
		Lanes:             100,
		Spares:            4,
		FEC:               NewRSLite(),
		UnitLen:           243, // 27 64b/66b blocks; body (252B) fills RS-lite blocks efficiently
		PerChannelBitRate: 2e9,
		Seed:              1,
	}
}

// ConventionalConfig returns the narrow-and-fast architecture expressed in
// the same framework: 8 lanes at 106.25 Gbps with KP4 FEC and no spares —
// an 800G DR8/AOC-style link. Comparing it against DefaultConfig isolates
// the architectural difference (width and sparing) from implementation
// details, since both run the identical pipeline.
func ConventionalConfig() Config {
	return Config{
		Lanes:             8,
		Spares:            0,
		FEC:               NewRSKP4(),
		UnitLen:           243,
		PerChannelBitRate: 106.25e9,
		Seed:              1,
	}
}

// scramblerSeed is the spec constant both ends use; the descrambler would
// self-synchronize from any state, but a fixed seed makes the first 58 bits
// exact too.
const scramblerSeed = 0x2a5f3c19d4b7e

// Link is a bit-true Mosaic PHY endpoint pair connected by simulated noisy
// channels: Exchange pushes frames through TX logic, the per-channel BSCs,
// and RX logic. It is the executable equivalent of the paper's 100-channel
// prototype.
type Link struct {
	cfg      Config
	framer   *Framer
	mapper   *Mapper
	monitor  *Monitor
	channels []BSC // indexed by physical channel; one contiguous slab

	// The scrambler pair is Reset to the spec seed on every Exchange. The
	// stage buffers are not link state: each exchange borrows them.
	scrambler   *linecode.Scrambler
	descrambler *linecode.Descrambler

	// The per-lane stage fans out on pool (nil when Workers == 1: inline).
	pool *par.Pool

	superframes uint64 // completed Exchange rounds
}

// New builds a link. The channels start error-free; use SetChannelBER (or
// the core package, which derives BERs from the analog models).
func New(cfg Config) (*Link, error) {
	if cfg.Lanes <= 0 {
		return nil, errors.New("phy: need at least one lane")
	}
	if cfg.FEC == nil {
		cfg.FEC = NoFEC{}
	}
	if cfg.UnitLen <= 0 {
		cfg.UnitLen = 243
	}
	if cfg.UnitLen%9 != 0 {
		return nil, fmt.Errorf("phy: UnitLen %d must be a multiple of 9 (one 64b/66b block)", cfg.UnitLen)
	}
	mapper, err := NewMapper(cfg.Lanes, cfg.Spares)
	if err != nil {
		return nil, err
	}
	l := &Link{
		cfg:         cfg,
		framer:      NewFramer(cfg.FEC, cfg.UnitLen),
		mapper:      mapper,
		monitor:     NewMonitor(cfg.Lanes+cfg.Spares, DefaultMonitorConfig()),
		scrambler:   linecode.NewScrambler(scramblerSeed),
		descrambler: linecode.NewDescrambler(scramblerSeed),
	}
	l.channels = make([]BSC, cfg.Lanes+cfg.Spares)
	for i := range l.channels {
		l.channels[i].init(0, cfg.Seed+int64(i)*7919)
	}
	if cfg.Workers != 1 {
		l.pool = par.New(cfg.Workers)
	}
	return l, nil
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// Mapper exposes the lane mapper (read-mostly; failures should go through
// FailChannel).
func (l *Link) Mapper() *Mapper { return l.mapper }

// Monitor exposes channel health.
func (l *Link) Monitor() *Monitor { return l.monitor }

// SetChannelBER sets the bit error rate of a physical channel.
func (l *Link) SetChannelBER(physical int, ber float64) {
	if physical >= 0 && physical < len(l.channels) {
		c := &l.channels[physical]
		if ber < 0 {
			ber = 0
		}
		c.BER = ber
	}
}

// ChannelBER returns the configured bit error rate of a physical channel
// (0 for out-of-range channels). Fault-injection schedules read it to
// ramp or temporarily override a channel's noise level.
func (l *Link) ChannelBER(physical int) float64 {
	if physical >= 0 && physical < len(l.channels) {
		return l.channels[physical].BER
	}
	return 0
}

// ChannelDead reports whether a physical channel's transmitter has been
// killed via KillChannel.
func (l *Link) ChannelDead(physical int) bool {
	if physical >= 0 && physical < len(l.channels) {
		return l.channels[physical].Dead
	}
	return false
}

// Superframes returns how many Exchange rounds the link has completed.
// Fault schedules and maintenance cadences key off this counter: remaps
// and injected events take effect at superframe boundaries, like the
// hardware swapping lanes between alignment periods.
func (l *Link) Superframes() uint64 { return l.superframes }

// SetChannelSkew sets the skew (random prefix bytes) of a physical channel.
func (l *Link) SetChannelSkew(physical, bytes int) {
	if physical >= 0 && physical < len(l.channels) && bytes >= 0 {
		l.channels[physical].SkewBytes = bytes
	}
}

// KillChannel makes a physical channel emit noise (transmitter death).
// Traffic impact persists until FailChannel respares it.
func (l *Link) KillChannel(physical int) {
	if physical >= 0 && physical < len(l.channels) {
		l.channels[physical].Dead = true
	}
}

// FailChannel marks a channel failed in the monitor and remaps its lane to
// a spare (or degrades). Returns the remap event.
func (l *Link) FailChannel(physical int) RemapEvent {
	l.monitor.MarkFailed(physical)
	return l.mapper.Fail(physical)
}

// SpareFailed is the reactive-sparing step of a superframe boundary: every
// channel the monitor classifies Failed that the mapper has not already
// retired is remapped, in ascending physical order, and fn (when non-nil)
// sees each event. The mapper's retired set is the only memory of what
// has been spared, so the step is idempotent however many boundaries,
// runs or harnesses call it on one link, and it walks the monitor in
// place: with nothing new to spare it allocates nothing. Returns the
// number of channels remapped.
func (l *Link) SpareFailed(fn func(RemapEvent)) int {
	n := 0
	for p := range l.monitor.channels {
		if l.monitor.channels[p].State != Failed || l.mapper.failed[p] {
			continue
		}
		ev := l.mapper.Fail(p)
		n++
		if fn != nil {
			fn(ev)
		}
	}
	return n
}

// SeededFrames returns n frames of size random bytes drawn from one
// rand.Source seeded with seed — the fixed traffic every soak, session,
// fleet link and experiment regenerates from its seed, so a given
// (seed, n, size) is the same byte pattern everywhere.
func SeededFrames(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = make([]byte, size)
		rng.Read(frames[i])
	}
	return frames
}

// AggregateRate returns the current payload-agnostic aggregate line rate:
// lanes × per-channel rate.
func (l *Link) AggregateRate() float64 {
	return float64(l.mapper.NumLanes()) * l.cfg.PerChannelBitRate
}

// GoodputFraction returns payload bits / wire bits: the combined framing,
// FEC, and block-coding efficiency of the pipeline.
func (l *Link) GoodputFraction() float64 {
	// 64b/66b-as-bytes: 8 payload bytes per 9 stream bytes.
	blockEff := 8.0 / 9.0
	frameEff := float64(l.framer.PayloadLen()) / float64(l.framer.WireLen())
	return blockEff * frameEff
}

// ExchangeStats aggregates one Exchange.
type ExchangeStats struct {
	FramesIn        int
	FramesDelivered int
	FramesLost      int // missing entirely
	FramesCorrupted int // delivered region failed FCS
	UnitsTotal      int
	UnitsLost       int
	Corrections     int
	WireBytes       int
	PayloadBytes    int
	PerChannel      map[int]DecodeStats // by physical channel
}

// ExchangeBuf is a caller-owned arena for ExchangeInto: the delivered
// frames, their backing payload bytes, and the per-channel stats map all
// live here and are recycled on every call. One ExchangeBuf serves one
// ExchangeInto call at a time; its contents are valid until the next call
// that reuses it.
type ExchangeBuf struct {
	frames  [][]byte
	payload []byte
	perCh   map[int]DecodeStats
}

// Exchange sends user frames through the full TX → channels → RX pipeline
// and returns the frames the far end recovered plus statistics. It is
// ExchangeInto on a fresh arena, so the delivered frames and the
// per-channel map belong to the caller. The frames share one payload
// slab, so keeping any one of them keeps the whole slab (about 8/9 of
// the received stream) alive. Callers that consume the delivered frames
// before their next call should use ExchangeInto with one arena, which
// then allocates nothing at all.
func (l *Link) Exchange(frames [][]byte) ([][]byte, ExchangeStats, error) {
	return l.ExchangeInto(new(ExchangeBuf), frames)
}

// ExchangeInto sends user frames through the full TX → channels → RX
// pipeline with the output arena supplied by the caller: delivered frames
// are sub-slices of buf's payload slab and stay valid only until buf's
// next use. Frames must be at least 3 bytes (they gain a 4-byte FCS and
// must fill the 7-byte start block).
//
// The pipeline is staged (see pipeline.go); its buffers are a scratch
// borrowed for the call and the per-lane stage is one allocation-free
// par.Pool.Run, so after warm-up (buf grown to the traffic high-water
// mark) a round trip performs zero heap allocations.
func (l *Link) ExchangeInto(buf *ExchangeBuf, frames [][]byte) ([][]byte, ExchangeStats, error) {
	var st ExchangeStats
	if buf.perCh == nil {
		buf.perCh = make(map[int]DecodeStats)
	}
	clear(buf.perCh)
	st.PerChannel = buf.perCh
	st.FramesIn = len(frames)
	// Launch the lane helpers now: an idle CPU picks them up while the
	// serial encode and scramble run, not at the start of the lane round.
	l.pool.Wake()
	sc := scratchPool.Get().(*linkScratch)
	defer scratchPool.Put(sc)

	// --- TX: frames -> blocks -> byte stream ---
	stream, err := l.stageEncode(sc, frames, &st)
	if err != nil {
		return nil, st, err
	}

	// --- Scramble ---
	l.scrambler.Reset(scramblerSeed)
	l.scrambler.Scramble(stream)

	// --- Stripe across active lanes + per-channel transmit/decode ---
	lanes := l.mapper.NumLanes()
	if lanes == 0 {
		return nil, st, errors.New("phy: link is down (no active lanes)")
	}
	// stageEncode pads to whole units, so the stream stripes exactly.
	totalUnits := len(stream) / l.cfg.UnitLen
	st.UnitsTotal = totalUnits
	maxUnits := LaneUnits(totalUnits, lanes, 0)
	states := sc.prepareLanes(lanes,
		maxUnits*l.framer.WireLen(), maxUnits, l.framer.bodyLen)
	rxStream := sc.rxStreamBuf(len(stream))
	sc.link, sc.curLanes, sc.curUnits = l, lanes, totalUnits
	sc.curTx, sc.curRx = stream, rxStream
	l.pool.Run(lanes, sc.laneFn)
	sc.link, sc.curTx, sc.curRx = nil, nil, nil

	// --- Destripe: fold lane results serially, in lane order ---
	l.stageFold(states, &st)

	// --- Descramble & parse blocks back into frames ---
	l.descrambler.Reset(scramblerSeed)
	l.descrambler.Descramble(rxStream)
	parseFrames(rxStream, &st, buf)
	st.FramesLost = st.FramesIn - st.FramesDelivered - st.FramesCorrupted
	if st.FramesLost < 0 {
		st.FramesLost = 0
	}
	l.superframes++
	return buf.frames, st, nil
}

// parseFrames walks the descrambled 9-byte block stream, reassembling
// FCS-verified frames into buf and resynchronizing after damage. Each
// frame is built in place at the tail of buf.payload (a start block
// carries seven bytes, so it always holds its four FCS bytes): damage
// cuts it back off, and a verified frame drops its FCS and joins
// buf.frames as a three-index slice, so an append through one delivered
// frame can never scribble over the next.
func parseFrames(stream []byte, st *ExchangeStats, buf *ExchangeBuf) {
	buf.frames = slices.Grow(buf.frames[:0], st.FramesIn)
	// Every 9-byte block yields at most 8 payload bytes, so the slab never
	// regrows mid-parse.
	p := slices.Grow(buf.payload[:0], len(stream)/9*8)
	start := -1 // offset of the frame in progress in p; -1 between frames
	for off := 0; off+9 <= len(stream); off += 9 {
		blk := stream[off : off+9] // sync header, then the 8 payload bytes
		if blk[0] == linecode.SyncData {
			// The common block, ahead of the control-type switch.
			if start >= 0 {
				p = append(p, blk[1:]...)
			}
			continue
		}
		kind, termLen, ok := linecode.Classify(blk[0], blk[1])
		switch {
		case !ok || kind == linecode.KindIdle:
			// A corrupted block damages any frame in progress; an idle
			// inside a frame means we lost the terminate.
			if start >= 0 {
				st.FramesCorrupted++
				p, start = p[:start], -1
			}
		case kind == linecode.KindStart:
			if start >= 0 {
				st.FramesCorrupted++
				p = p[:start]
			}
			start = len(p)
			p = append(p, blk[2:]...)
		case kind == linecode.KindTerm && start >= 0:
			p = append(p, blk[2:2+termLen]...)
			end := len(p) - 4
			if crc32.ChecksumIEEE(p[start:end]) == binary.BigEndian.Uint32(p[end:]) {
				buf.frames = append(buf.frames, p[start:end:end])
				p = p[:end]
				st.FramesDelivered++
			} else {
				st.FramesCorrupted++
				p = p[:start]
			}
			start = -1
		}
	}
	if start >= 0 {
		st.FramesCorrupted++
	}
	buf.payload = p
}
