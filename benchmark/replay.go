package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"mosaic/internal/coding/linecode"
	"mosaic/internal/phy"
)

// The PHY's stage costs cannot be seen from outside ExchangeInto, so the
// traced run replays the workload's own byte stream through the public
// stage kernels, one stage at a time on one goroutine, and times each.
// The replay is only worth reading if it is the same pipeline: it must
// hand back byte-identical frames to what a fresh link with the same
// configuration, seed and channel BER delivers for the same input.

// scramblerSeed mirrors the spec constant phy.Link resets its scrambler
// pair to on every exchange; the equivalence check fails if it drifts.
const scramblerSeed = 0x2a5f3c19d4b7e

// bscSeedStride mirrors how phy.New derives channel i's noise stream
// from the link seed.
const bscSeedStride = 7919

// stageTimes accumulates host ns per stage and the payload bits they
// covered.
type stageTimes struct {
	encode, scramble, fecEncode, channel, fecDecode, descramble, blockDecode time.Duration
	payloadBits                                                              float64
}

func (s stageTimes) total() time.Duration {
	return s.encode + s.scramble + s.fecEncode + s.channel + s.fecDecode + s.descramble + s.blockDecode
}

// replayPHY is the stage-by-stage twin of one phy.Link direction.
type replayPHY struct {
	cfg      phy.Config
	framer   *phy.Framer
	scr      *linecode.Scrambler
	descr    *linecode.Descrambler
	channels []*phy.BSC

	blocks []linecode.Block
	fcs    []byte
	stream []byte
	rx     []byte
	wire   [][]byte
	recv   [][]byte
	body   []byte
	parse  []byte
	out    [][]byte
	times  stageTimes
}

func newReplayPHY(cfg phy.Config, ber float64) *replayPHY {
	r := &replayPHY{
		cfg:    cfg,
		framer: phy.NewFramer(cfg.FEC, cfg.UnitLen),
		scr:    linecode.NewScrambler(scramblerSeed),
		descr:  linecode.NewDescrambler(scramblerSeed),
		wire:   make([][]byte, cfg.Lanes),
		recv:   make([][]byte, cfg.Lanes),
	}
	// No channel fails in the replayed streams, so lane i stays on
	// physical channel i and the spares are never drawn from.
	for i := 0; i < cfg.Lanes; i++ {
		r.channels = append(r.channels, phy.NewBSC(ber, cfg.Seed+int64(i)*bscSeedStride))
	}
	return r
}

// exchange pushes frames through every stage and returns the frames the
// far end reassembles. The returned slices are valid until the next call.
func (r *replayPHY) exchange(frames [][]byte) ([][]byte, error) {
	unitLen, lanes := r.cfg.UnitLen, r.cfg.Lanes
	unitBlocks := unitLen / 9

	// encode: FCS, 64b/66b blocks, idles, pad to whole units, serialise.
	t := time.Now()
	blocks := r.blocks[:0]
	for _, f := range frames {
		r.times.payloadBits += float64(8 * len(f))
		withFCS := append(r.fcs[:0], f...)
		withFCS = binary.BigEndian.AppendUint32(withFCS, crc32.ChecksumIEEE(f))
		r.fcs = withFCS
		var err error
		if blocks, err = linecode.AppendFrameBlocks(blocks, withFCS); err != nil {
			return nil, err
		}
		blocks = append(blocks, linecode.IdleBlock())
	}
	for len(blocks)%unitBlocks != 0 {
		blocks = append(blocks, linecode.IdleBlock())
	}
	r.blocks = blocks
	stream := r.stream[:0]
	for _, b := range blocks {
		sync, payload, err := b.Encode()
		if err != nil {
			return nil, err
		}
		stream = append(stream, sync)
		stream = append(stream, payload[:]...)
	}
	r.stream = stream
	r.times.encode += time.Since(t)

	t = time.Now()
	r.scr.Reset(scramblerSeed)
	r.scr.Scramble(stream)
	r.times.scramble += time.Since(t)

	// Stripe: unit g goes to lane g mod lanes with sequence g div lanes.
	totalUnits := len(stream) / unitLen
	t = time.Now()
	for lane := 0; lane < lanes; lane++ {
		wire := r.wire[lane][:0]
		for seq := 0; seq < phy.LaneUnits(totalUnits, lanes, lane); seq++ {
			g := seq*lanes + lane
			wire = r.framer.AppendFrame(wire, lane, uint32(seq), stream[g*unitLen:(g+1)*unitLen], &r.body)
		}
		r.wire[lane] = wire
	}
	r.times.fecEncode += time.Since(t)

	t = time.Now()
	for lane := 0; lane < lanes; lane++ {
		r.recv[lane] = r.channels[lane].TransmitTo(r.recv[lane][:0], r.wire[lane])
	}
	r.times.channel += time.Since(t)

	// Destripe: recovered units land in their slot, lost ones stay zero.
	if cap(r.rx) < len(stream) {
		r.rx = make([]byte, len(stream))
	}
	rx := r.rx[:len(stream)]
	clear(rx)
	t = time.Now()
	for lane := 0; lane < lanes; lane++ {
		expected := phy.LaneUnits(totalUnits, lanes, lane)
		r.framer.ScanStream(r.recv[lane], &r.body, func(frLane int, seq uint32, payload []byte, _ int) {
			if frLane != lane || int(seq) >= expected {
				return
			}
			g := int(seq)*lanes + lane
			copy(rx[g*unitLen:(g+1)*unitLen], payload)
		})
	}
	r.times.fecDecode += time.Since(t)

	t = time.Now()
	r.descr.Reset(scramblerSeed)
	r.descr.Descramble(rx)
	r.times.descramble += time.Since(t)

	t = time.Now()
	r.parseFrames(rx)
	r.times.blockDecode += time.Since(t)
	return r.out, nil
}

// parseFrames walks the descrambled block stream and reassembles the
// FCS-verified frames into r.out, resynchronising after damage the way
// the link's parse stage does.
func (r *replayPHY) parseFrames(stream []byte) {
	r.out = r.out[:0]
	r.parse = r.parse[:0]
	start := 0 // offset in r.parse of the frame in progress
	inFrame := false
	for off := 0; off+9 <= len(stream); off += 9 {
		var payload [8]byte
		copy(payload[:], stream[off+1:off+9])
		blk, err := linecode.DecodeBlock(stream[off], payload)
		if err != nil {
			inFrame = false
			r.parse = r.parse[:start]
			continue
		}
		switch blk.Kind {
		case linecode.KindStart:
			r.parse = append(r.parse[:start], blk.Data[:7]...)
			inFrame = true
		case linecode.KindData:
			if inFrame {
				r.parse = append(r.parse, blk.Data[:]...)
			}
		case linecode.KindTerm:
			if !inFrame {
				continue
			}
			r.parse = append(r.parse, blk.Data[:blk.TermLen]...)
			inFrame = false
			cur := r.parse[start:]
			if len(cur) >= 4 {
				body := cur[:len(cur)-4]
				if crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(cur[len(cur)-4:]) {
					r.out = append(r.out, body)
					start = len(r.parse)
					continue
				}
			}
			r.parse = r.parse[:start]
		case linecode.KindIdle:
			if inFrame {
				inFrame = false
				r.parse = r.parse[:start]
			}
		}
	}
}

// replayReport is what the stage replay adds to a traced result.
type replayReport struct {
	times      stageTimes
	serialNS   float64 // ExchangeInto on a fresh workers=1 link, same inputs
	exchanges  int
	mismatches int
}

// replayStream runs the recorded exchange inputs through a fresh link
// (workers=1) and through the stage replay, compares what each delivers
// byte for byte, and returns the stage times.
func replayStream(cfg phy.Config, ber float64, inputs [][][]byte) (replayReport, error) {
	var rep replayReport
	cfg.Workers = 1
	link, err := phy.New(cfg)
	if err != nil {
		return rep, err
	}
	for p := 0; p < cfg.Lanes+cfg.Spares; p++ {
		link.SetChannelBER(p, ber)
	}
	twin := newReplayPHY(cfg, ber)
	var buf phy.ExchangeBuf
	for _, frames := range inputs {
		t := time.Now()
		want, _, err := link.ExchangeInto(&buf, frames)
		rep.serialNS += float64(time.Since(t))
		if err != nil {
			return rep, err
		}
		got, err := twin.exchange(frames)
		if err != nil {
			return rep, fmt.Errorf("stage replay: %w", err)
		}
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = bytes.Equal(got[i], want[i])
		}
		if !same {
			rep.mismatches++
		}
		rep.exchanges++
	}
	rep.times = twin.times
	return rep, nil
}

// report writes the stage metrics of a replay into a traced result.
func (rep replayReport) report(res *result) {
	if rep.mismatches > 0 {
		res.problem("stage replay delivered different frames than ExchangeInto on %d of %d exchanges",
			rep.mismatches, rep.exchanges)
	}
	bits := rep.times.payloadBits
	perBit := func(d time.Duration) float64 { return safeDiv(float64(d), bits) }
	res.set("phy.encode_ns_per_bit", perBit(rep.times.encode))
	res.set("phy.scramble_ns_per_bit", perBit(rep.times.scramble))
	res.set("phy.fec_encode_ns_per_bit", perBit(rep.times.fecEncode))
	res.set("phy.channel_ns_per_bit", perBit(rep.times.channel))
	res.set("phy.fec_decode_ns_per_bit", perBit(rep.times.fecDecode))
	res.set("phy.descramble_ns_per_bit", perBit(rep.times.descramble))
	res.set("phy.blockdecode_ns_per_bit", perBit(rep.times.blockDecode))
	res.set("phy.unattributed_frac", 1-safeDiv(float64(rep.times.total()), rep.serialNS))
}
