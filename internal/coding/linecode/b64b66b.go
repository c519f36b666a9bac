package linecode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// 64b/66b block coding (IEEE 802.3 clause 49, simplified): each 66-bit
// block is a 2-bit sync header plus 64 payload bits. The sync header is the
// only unscrambled part of the stream and carries the block alignment; its
// guaranteed 01/10 transition bounds the run length without per-bit
// overhead (~3% vs 25% for 8b/10b).
//
// This implementation supports the block formats a framing PHY needs: all
// data, idle, start-of-frame (S0: start + 7 data bytes), and
// terminate-with-n-data-bytes (T0..T7). Control-character payloads beyond
// idle are not modelled — Mosaic is protocol agnostic and only moves
// opaque 64-bit words plus frame delineation.

// Sync header values.
const (
	SyncData byte = 0b01
	SyncCtrl byte = 0b10
)

// Control block type bytes (payload byte 0 of a control block).
const (
	typeIdle  byte = 0x1e
	typeStart byte = 0x78
)

// termType[n] is the block type byte for "terminate after n data bytes".
var termType = [8]byte{0x87, 0x99, 0xaa, 0xb4, 0xcc, 0xd2, 0xe1, 0xff}

// BlockKind discriminates decoded block contents.
type BlockKind int

// Block kinds.
const (
	KindData  BlockKind = iota // 8 data bytes
	KindIdle                   // inter-frame idle
	KindStart                  // start of frame + 7 data bytes
	KindTerm                   // end of frame with 0..7 trailing data bytes
)

// String names the kind.
func (k BlockKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindIdle:
		return "idle"
	case KindStart:
		return "start"
	case KindTerm:
		return "term"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Block is one decoded 64b/66b block.
type Block struct {
	Kind    BlockKind
	Data    [8]byte // KindData: all 8; KindStart: Data[0:7]; KindTerm: Data[0:TermLen]
	TermLen int     // only for KindTerm: number of valid data bytes, 0..7
}

// DataBlock builds a data block from 8 bytes.
func DataBlock(b [8]byte) Block { return Block{Kind: KindData, Data: b} }

// IdleBlock builds an idle block.
func IdleBlock() Block { return Block{Kind: KindIdle} }

// StartBlock builds a start-of-frame block carrying the first 7 bytes.
func StartBlock(first7 [7]byte) Block {
	var b Block
	b.Kind = KindStart
	copy(b.Data[:7], first7[:])
	return b
}

// TermBlock builds a terminate block with n in [0,7] trailing data bytes.
func TermBlock(data []byte) (Block, error) {
	if len(data) > 7 {
		return Block{}, fmt.Errorf("linecode: terminate block holds at most 7 bytes, got %d", len(data))
	}
	var b Block
	b.Kind = KindTerm
	b.TermLen = len(data)
	copy(b.Data[:], data)
	return b, nil
}

// Encode serialises the block into its sync header and 64-bit payload.
func (b Block) Encode() (sync byte, payload [8]byte, err error) {
	switch b.Kind {
	case KindData:
		return SyncData, b.Data, nil
	case KindIdle:
		payload[0] = typeIdle
		return SyncCtrl, payload, nil
	case KindStart:
		payload[0] = typeStart
		copy(payload[1:], b.Data[:7])
		return SyncCtrl, payload, nil
	case KindTerm:
		if b.TermLen < 0 || b.TermLen > 7 {
			return 0, payload, fmt.Errorf("linecode: bad TermLen %d", b.TermLen)
		}
		payload[0] = termType[b.TermLen]
		copy(payload[1:1+b.TermLen], b.Data[:b.TermLen])
		return SyncCtrl, payload, nil
	default:
		return 0, payload, fmt.Errorf("linecode: unknown block kind %v", b.Kind)
	}
}

// Errors returned by DecodeBlock.
var (
	ErrBadSync      = errors.New("linecode: invalid sync header")
	ErrBadBlockType = errors.New("linecode: unknown control block type")
)

// DecodeBlock parses a sync header and payload back into a Block.
func DecodeBlock(sync byte, payload [8]byte) (Block, error) {
	switch sync {
	case SyncData:
		return Block{Kind: KindData, Data: payload}, nil
	case SyncCtrl:
		bt := payload[0]
		switch bt {
		case typeIdle:
			return Block{Kind: KindIdle}, nil
		case typeStart:
			var b Block
			b.Kind = KindStart
			copy(b.Data[:7], payload[1:])
			return b, nil
		}
		for n, tt := range termType {
			if bt == tt {
				var b Block
				b.Kind = KindTerm
				b.TermLen = n
				copy(b.Data[:n], payload[1:1+n])
				return b, nil
			}
		}
		// Return the bare sentinel: corrupted blocks are the common case on
		// a noisy stream, and wrapping would allocate per bad block.
		return Block{}, ErrBadBlockType
	default:
		return Block{}, ErrBadSync
	}
}

// Frame <-> block conversion: a frame is an opaque byte payload delimited
// by Start and Term blocks, with full Data blocks in between. This is the
// minimal MAC-agnostic framing the Mosaic gearbox needs.

// ErrBadFraming is returned when a block sequence does not form a frame,
// or a frame cannot be expressed as blocks.
var ErrBadFraming = errors.New("linecode: bad frame delineation")

// MinFrameLen is the smallest frame AppendFrameBlocks accepts: the start block
// always carries 7 payload bytes, so shorter frames would be ambiguous.
// (Real MACs never get near this: the Ethernet minimum is 64 bytes.)
const MinFrameLen = 7

// AppendFrameBlocks converts a payload into Start/Data/Term blocks,
// appended to dst; the extended slice is returned.
func AppendFrameBlocks(dst []Block, frame []byte) ([]Block, error) {
	if len(frame) < MinFrameLen {
		return dst, fmt.Errorf("%w: frame of %d bytes below minimum %d", ErrBadFraming, len(frame), MinFrameLen)
	}
	var first7 [7]byte
	n := copy(first7[:], frame)
	dst = append(dst, StartBlock(first7))
	rest := frame[n:]
	for len(rest) >= 8 {
		var d [8]byte
		copy(d[:], rest[:8])
		dst = append(dst, DataBlock(d))
		rest = rest[8:]
	}
	tb, err := TermBlock(rest)
	if err != nil {
		// unreachable: rest < 8
		panic(err)
	}
	return append(dst, tb), nil
}

// The byte-stream view of the same code, which is what the PHY's encode
// and parse stages run: on the serial stream a block is nine bytes, the
// sync header in the first and the payload in the other eight, and
// AppendFrame, AppendIdle and Classify go between frame bytes and those
// nine bytes directly. They write and accept exactly the bytes Block's
// Encode and DecodeBlock do, without a Block in between.

// AppendFrame appends frame to the serial stream dst as one start block,
// full data blocks and one terminate block, and returns the extended
// slice: the bytes AppendFrameBlocks' blocks encode to.
func AppendFrame(dst, frame []byte) ([]byte, error) {
	if len(frame) < MinFrameLen {
		return dst, fmt.Errorf("%w: frame of %d bytes below minimum %d", ErrBadFraming, len(frame), MinFrameLen)
	}
	n, need := len(dst), 9*(2+(len(frame)-MinFrameLen)/8)
	dst = slices.Grow(dst, need)[:n+need]
	out := dst[n:]
	out[0], out[1] = SyncCtrl, typeStart
	copy(out[2:9], frame)
	frame, out = frame[MinFrameLen:], out[9:]
	for ; len(frame) >= 8; frame, out = frame[8:], out[9:] {
		out[0] = SyncData
		binary.LittleEndian.PutUint64(out[1:9], binary.LittleEndian.Uint64(frame))
	}
	out[0], out[1] = SyncCtrl, termType[len(frame)]
	clear(out[2+copy(out[2:9], frame) : 9])
	return dst, nil
}

// AppendIdle appends one idle block to the serial stream dst.
func AppendIdle(dst []byte) []byte {
	return append(dst, SyncCtrl, typeIdle, 0, 0, 0, 0, 0, 0, 0)
}

// Classify reads a stream block's kind off its sync header and first
// payload byte by DecodeBlock's rules: any payload under a data header is
// data; under a control header the type byte names idle, start, or
// terminate with termLen trailing data bytes. ok is false where
// DecodeBlock errors (a bad sync header, an unknown control type).
func Classify(sync, typ byte) (kind BlockKind, termLen int, ok bool) {
	switch {
	case sync == SyncData:
		return KindData, 0, true
	case sync != SyncCtrl:
		return 0, 0, false
	case typ == typeIdle:
		return KindIdle, 0, true
	case typ == typeStart:
		return KindStart, 0, true
	}
	for n, tt := range termType {
		if typ == tt {
			return KindTerm, n, true
		}
	}
	return 0, 0, false
}
