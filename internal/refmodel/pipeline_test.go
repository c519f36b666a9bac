package refmodel

import (
	"errors"
	"fmt"
)

// Reference end-to-end pipeline: the same TX → channels → RX protocol as
// phy.Link.Exchange, executed serially on one goroutine with a fresh
// allocation at every step — no worker pool, no scratch reuse, no
// in-place scrambling. Channel noise is injected through a caller
// callback so the reference stays free of any dependency on the
// optimized packages; FuzzDiffPipeline wires in replica BSCs seeded
// identically to the link under test.

// ScramblerSeed is the spec seed both ends load before each superframe.
const ScramblerSeed = 0x2a5f3c19d4b7e

// PipelineConfig describes a reference link.
type PipelineConfig struct {
	Lanes   int
	UnitLen int // stripe unit bytes; multiple of BlockLen
	FEC     FECRef
}

// Transmit pushes one lane's wire bytes through its physical channel and
// returns what the far end receives. FuzzDiffPipeline backs this with BSC
// replicas; tests may return wire unchanged for a noiseless link.
type Transmit func(physical int, wire []byte) []byte

// PipelineStats mirrors phy.ExchangeStats field for field.
type PipelineStats struct {
	FramesIn        int
	FramesDelivered int
	FramesLost      int
	FramesCorrupted int
	UnitsTotal      int
	UnitsLost       int
	Corrections     int
	WireBytes       int
	PayloadBytes    int
	PerChannel      map[int]DecodeStats
}

// ExchangeRef runs one reference superframe: encode frames to a padded
// block stream, scramble, stripe round-robin across lanes, frame and
// transmit each lane over its physical channel, scan and reassemble,
// descramble, and parse the surviving frames. laneToPhysical maps each
// logical lane to the physical channel Transmit should use (identity
// when nil).
func ExchangeRef(cfg PipelineConfig, laneToPhysical []int, tx Transmit, frames [][]byte) ([][]byte, PipelineStats, error) {
	st := PipelineStats{FramesIn: len(frames), PerChannel: make(map[int]DecodeStats)}
	if cfg.Lanes <= 0 {
		return nil, st, errors.New("refmodel: link is down (no active lanes)")
	}
	if cfg.UnitLen <= 0 || cfg.UnitLen%BlockLen != 0 {
		return nil, st, fmt.Errorf("refmodel: UnitLen %d must be a positive multiple of %d", cfg.UnitLen, BlockLen)
	}
	fec := cfg.FEC
	if fec == nil {
		fec = NoFECRef{}
	}
	if tx == nil {
		tx = func(_ int, wire []byte) []byte { return append([]byte(nil), wire...) }
	}

	// --- TX: frames -> FCS -> blocks -> padded serial stream ---
	var stream []byte
	for _, f := range frames {
		if len(f) < 3 {
			return nil, st, fmt.Errorf("refmodel: frame of %d bytes below minimum 3", len(f))
		}
		st.PayloadBytes += len(f)
		withFCS := append(append([]byte(nil), f...), 0, 0, 0, 0)
		crc := CRC32(f)
		withFCS[len(f)] = byte(crc >> 24)
		withFCS[len(f)+1] = byte(crc >> 16)
		withFCS[len(f)+2] = byte(crc >> 8)
		withFCS[len(f)+3] = byte(crc)
		var err error
		stream, err = AppendFrameBlocks(stream, withFCS)
		if err != nil {
			return nil, st, err
		}
		stream = appendIdleBlock(stream)
	}
	for len(stream)%cfg.UnitLen != 0 {
		stream = appendIdleBlock(stream)
	}

	// --- Scramble (fresh output slice, bit at a time) ---
	scrambled := NewScrambler(ScramblerSeed).Scramble(stream)

	// --- Stripe into explicit unit records ---
	totalUnits := len(scrambled) / cfg.UnitLen
	st.UnitsTotal = totalUnits
	perLane, err := Stripe(scrambled, cfg.Lanes, cfg.UnitLen)
	if err != nil {
		return nil, st, err
	}

	// --- Per-lane frame, transmit, scan — strictly in lane order ---
	framer := NewFramer(fec, cfg.UnitLen)
	received := make([][]Unit, cfg.Lanes)
	for lane := 0; lane < cfg.Lanes; lane++ {
		physical := lane
		if laneToPhysical != nil {
			physical = laneToPhysical[lane]
		}
		var wire []byte
		for _, u := range perLane[lane] {
			wire = append(wire, framer.EncodeFrame(u.Lane, uint32(u.Seq), u.Payload)...)
		}
		st.WireBytes += len(wire)

		rx := tx(physical, wire)

		chFrames, chStats := framer.DecodeStream(rx)
		st.Corrections += chStats.Corrections
		st.PerChannel[physical] = chStats
		expected := len(perLane[lane])
		seen := make([]bool, expected)
		for _, cf := range chFrames {
			// Lane mismatches would indicate a miswired remap; drop them.
			if cf.Lane != lane || int(cf.Seq) >= expected {
				continue
			}
			received[lane] = append(received[lane], Unit{Lane: lane, Seq: int(cf.Seq), Payload: cf.Payload})
			seen[cf.Seq] = true
		}
		for _, got := range seen {
			if !got {
				st.UnitsLost++
			}
		}
	}

	// --- Destripe (zero-filled gaps), descramble, parse ---
	rxStream := Destripe(received, totalUnits, cfg.UnitLen)
	plain := NewDescrambler(ScramblerSeed).Descramble(rxStream)
	delivered := parseRefFrames(plain, &st)
	st.FramesDelivered = len(delivered)
	st.FramesLost = st.FramesIn - st.FramesDelivered - st.FramesCorrupted
	if st.FramesLost < 0 {
		st.FramesLost = 0
	}
	return delivered, st, nil
}

// parseRefFrames walks the descrambled block stream and reassembles
// FCS-verified frames, replicating the optimized parser's resync rules:
// a bad block or an idle inside a frame corrupts it, a start inside a
// frame corrupts the one in progress, and a terminate closes the frame
// for the FCS check.
func parseRefFrames(stream []byte, st *PipelineStats) [][]byte {
	var out [][]byte
	var cur []byte
	inFrame := false
	for off := 0; off+BlockLen <= len(stream); off += BlockLen {
		blk := DecodeBlockBytes(stream[off : off+BlockLen])
		switch blk.Kind {
		case BlockBad:
			if inFrame {
				st.FramesCorrupted++
				inFrame = false
				cur = nil
			}
		case BlockStart:
			if inFrame {
				st.FramesCorrupted++
			}
			cur = append([]byte(nil), blk.Data...)
			inFrame = true
		case BlockData:
			if inFrame {
				cur = append(cur, blk.Data...)
			}
		case BlockTerm:
			if !inFrame {
				continue
			}
			cur = append(cur, blk.Data...)
			inFrame = false
			if len(cur) < 4 {
				st.FramesCorrupted++
				cur = nil
				continue
			}
			body := cur[:len(cur)-4]
			want := uint32(cur[len(cur)-4])<<24 | uint32(cur[len(cur)-3])<<16 |
				uint32(cur[len(cur)-2])<<8 | uint32(cur[len(cur)-1])
			if CRC32(body) == want {
				out = append(out, append([]byte(nil), body...))
			} else {
				st.FramesCorrupted++
			}
			cur = nil
		case BlockIdle:
			if inFrame {
				st.FramesCorrupted++
				inFrame = false
				cur = nil
			}
		}
	}
	if inFrame {
		st.FramesCorrupted++
	}
	return out
}
