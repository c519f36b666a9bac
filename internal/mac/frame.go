// Package mac is the protocol-agnostic link-adaptation layer between the
// bit-true PHY (internal/phy) and the network simulator
// (internal/netsim). It has three jobs, mirroring the paper's claim that
// Mosaic drops into existing servers and switches unchanged:
//
//   - Framing: client packets are carried in CRC-protected MAC frames
//     packed back-to-back into the superframe payload, with idle fill up
//     to the payload budget. The deframer is a resynchronizing scanner —
//     a corrupted or missing PHY frame splices the byte stream, and the
//     scanner walks forward one byte at a time until the next valid
//     header+CRC, so one bad frame never poisons the rest of the
//     superframe.
//
//   - Link-level retry (LLR): a go-back-N window with 16-bit sequence
//     numbers, a bounded in-flight list, and cumulative acks piggybacked on
//     every data frame. Residual post-FEC corruption (the ~1e-12 tail
//     the PHY cannot fix) is repaired here, invisibly to the client.
//
//   - Capacity renegotiation: Bridge turns the lanes sparing has left a
//     link into the capacity fraction its flow-simulator link should run
//     at — synced by whoever drives the link at the superframe boundary,
//     read through Fraction() by whoever owns the simulator — so the
//     fluid flow simulator sees graceful width degradation instead of
//     hand-wired capacity edits.
//
// Everything is deterministic: framing and retry state advance only at
// superframe boundaries, and the PHY guarantees worker-count-independent
// corruption, so a fixed seed reproduces byte-identical event logs.
package mac

import (
	"encoding/binary"
	"hash/crc32"
)

// Wire format, all integers big-endian. Two header versions share the
// magic and trailer; the version rides in the flags byte:
//
//	v1: magic0 magic1 | flags      | seq u16 | ack u16 | length u16 | payload | crc32 u32
//	v2: magic0 magic1 | flags+V2 | vc u8 | seq u16 | ack u16 | length u16 | payload | crc32 u32
//
// v1 is the legacy single-virtual-channel format; v2 inserts one VC byte
// after the flags so each virtual channel carries its own sequence and
// ack space. The CRC (IEEE 802.3 polynomial) covers header and payload.
// Idle fill between frames is IdleByte, zero so the deframer crosses a
// run of it 32 bytes a step and a superframe is filled with one clear.
const (
	Magic0   = 0xD5
	Magic1   = 0x4D
	IdleByte = 0x00

	// HeaderLen is the v1 header: magic(2) + flags(1) + seq(2) + ack(2) + length(2).
	HeaderLen = 9
	// HeaderLenV2 adds the VC byte between flags and seq.
	HeaderLenV2 = 10
	// Overhead is the full v1 per-frame cost: header plus CRC32 trailer.
	Overhead = HeaderLen + 4
	// OverheadV2 is the full v2 per-frame cost.
	OverheadV2 = HeaderLenV2 + 4
	// MinFrameLen is the shortest possible frame (empty v1 payload).
	MinFrameLen = Overhead

	// MaxVCs is the number of virtual channels the v2 header can name
	// (the VC field is one byte).
	MaxVCs = 256

	// SackBytes is the selective-ack bitmap length carried as the
	// payload of a FlagSack pure-ack frame: bit k covers sequence
	// Ack+1+k, so the bitmap spans the 64 frames after the cumulative
	// ack.
	SackBytes = 8

	// DefaultMaxPayload bounds the payload length the deframer will
	// accept; longer length fields are header-rejected (a corrupted
	// length would otherwise swallow the rest of the buffer).
	DefaultMaxPayload = 2048
)

// The idle scan tests words against zero: IdleByte must be 0x00.
const _ uint = -IdleByte

// Frame flags.
const (
	FlagData byte = 1 << 0 // frame carries a client payload at Seq
	FlagAck  byte = 1 << 1 // Ack field holds the next expected rx seq
	FlagSack byte = 1 << 2 // payload is a SackBytes selective-ack bitmap (non-data frames only)
	FlagV2   byte = 1 << 3 // header carries a VC byte (frame header v2)
)

// Frame is one decoded MAC frame. Payload aliases the deframed buffer
// and is only valid until the next Deframe call.
type Frame struct {
	Flags byte
	VC    byte // virtual channel (0 for v1 frames)
	Seq   uint16
	Ack   uint16
	// Payload is a view into the input buffer, not a copy.
	Payload []byte
}

// AppendFrame appends one encoded v1 MAC frame to dst and returns the
// extended slice. It never allocates when dst has capacity. The payload
// must be shorter than 65536 bytes (the length field is u16).
func AppendFrame(dst []byte, flags byte, seq, ack uint16, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, Magic0, Magic1, flags&^FlagV2,
		byte(seq>>8), byte(seq),
		byte(ack>>8), byte(ack),
		byte(len(payload)>>8), byte(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return append(dst, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
}

// AppendFrameVC appends one encoded v2 MAC frame (FlagV2 is forced on)
// carrying the given virtual channel. Like AppendFrame it never
// allocates when dst has capacity.
func AppendFrameVC(dst []byte, flags byte, vc byte, seq, ack uint16, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, Magic0, Magic1, flags|FlagV2, vc,
		byte(seq>>8), byte(seq),
		byte(ack>>8), byte(ack),
		byte(len(payload)>>8), byte(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return append(dst, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
}

// DeframeStats counts what a Deframer saw. Frames is valid decodes;
// the reject counters classify every byte that was not part of one.
type DeframeStats struct {
	Frames        uint64 // valid frames emitted
	PayloadBytes  uint64 // payload bytes inside valid frames
	IdleBytes     uint64 // idle fill skipped between frames
	SkippedBytes  uint64 // non-idle bytes skipped while resyncing
	HeaderRejects uint64 // magic matched but the length field was implausible
	CRCRejects    uint64 // header parsed but the CRC32 check failed
	Truncated     uint64 // header promised more bytes than the buffer holds
}

// Deframer scans a contiguous byte stream for MAC frames. It is
// restartable: corruption anywhere (bit flips, a missing PHY frame
// splicing two superframe fragments together) makes it advance one byte
// and rescan, so it deterministically reacquires the next intact frame.
// The zero value is ready to use.
type Deframer struct {
	// MaxPayload bounds accepted payload lengths (0 = DefaultMaxPayload).
	MaxPayload int
	Stats      DeframeStats
}

// Deframe scans buf and calls emit for every valid frame, in order.
// Frame payloads alias buf. The scan is single-pass in the common case
// (each valid frame is consumed whole) and resynchronizes byte-by-byte
// after any reject, so it never panics and never emits a frame whose
// CRC did not check out. Both header versions are accepted: the FlagV2
// bit in the flags byte selects the v2 layout with its VC byte.
func (d *Deframer) Deframe(buf []byte, emit func(Frame)) {
	maxPayload := d.MaxPayload
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	i := 0
	for i+MinFrameLen <= len(buf) {
		if buf[i] == IdleByte {
			// Idle fill is walked a run at a time: one add per run, not one
			// store per byte, and 32 bytes a step while four words read
			// zero. The tail loop below counts idle the same way, so a run
			// may end anywhere up to the end of the buffer.
			rest := buf[i+1:]
			for len(rest) >= 32 && binary.LittleEndian.Uint64(rest)|
				binary.LittleEndian.Uint64(rest[8:])|
				binary.LittleEndian.Uint64(rest[16:])|
				binary.LittleEndian.Uint64(rest[24:]) == 0 {
				rest = rest[32:]
			}
			run := len(buf) - len(rest)
			for run < len(buf) && buf[run] == IdleByte {
				run++
			}
			d.Stats.IdleBytes += uint64(run - i)
			i = run
			continue
		}
		if buf[i] != Magic0 {
			d.Stats.SkippedBytes++
			i++
			continue
		}
		if buf[i+1] != Magic1 {
			d.Stats.SkippedBytes++
			i++
			continue
		}
		flags := buf[i+2]
		hdr := HeaderLen
		var vc byte
		if flags&FlagV2 != 0 {
			hdr = HeaderLenV2
			if i+hdr+4 > len(buf) {
				// The longer v2 header itself runs past the buffer.
				d.Stats.Truncated++
				i++
				continue
			}
			vc = buf[i+3]
		}
		n := int(binary.BigEndian.Uint16(buf[i+hdr-2 : i+hdr]))
		if n > maxPayload {
			d.Stats.HeaderRejects++
			i++
			continue
		}
		end := i + hdr + n + 4
		if end > len(buf) {
			// Could be a frame cut off by the superframe boundary, or
			// corruption that inflated the length; advance and rescan so
			// a frame hiding inside the "payload" is still found.
			d.Stats.Truncated++
			i++
			continue
		}
		want := binary.BigEndian.Uint32(buf[end-4 : end])
		if crc32.ChecksumIEEE(buf[i:end-4]) != want {
			d.Stats.CRCRejects++
			i++
			continue
		}
		d.Stats.Frames++
		d.Stats.PayloadBytes += uint64(n)
		emit(Frame{
			Flags:   flags,
			VC:      vc,
			Seq:     binary.BigEndian.Uint16(buf[i+hdr-6 : i+hdr-4]),
			Ack:     binary.BigEndian.Uint16(buf[i+hdr-4 : i+hdr-2]),
			Payload: buf[i+hdr : i+hdr+n],
		})
		i = end
	}
	for ; i < len(buf); i++ {
		if buf[i] == IdleByte {
			d.Stats.IdleBytes++
		} else {
			d.Stats.SkippedBytes++
		}
	}
}
