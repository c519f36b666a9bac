package phy

import (
	"encoding/binary"
	"hash/crc32"
)

// Channel framing: every channel carries a sequence of fixed-size wire
// frames. The 2-byte alignment marker sits OUTSIDE the FEC so a receiver
// can hunt for alignment before it can decode; everything else (lane id,
// sequence number, payload, CRC) is FEC-protected:
//
//	wire frame = marker | FEC( lane | seq | payload[U] | crc32 )
//
// The sequence number provides skew-tolerant reassembly: channels may
// deliver the same superframe at different times (path-length skew) and
// the gearbox still reorders units correctly.

// Marker bytes. Chosen with good autocorrelation properties (not critical
// in a byte-oriented model, but keeps the hunt honest).
const (
	marker0 = 0xD5
	marker1 = 0xC3
)

// Framer encodes and decodes channel frames for a fixed payload size.
type Framer struct {
	fec        FEC
	payloadLen int
	bodyLen    int // lane(2) + seq(4) + payload + crc(4)
	encLen     int
}

// NewFramer returns a framer for the given FEC and per-frame payload size.
func NewFramer(fec FEC, payloadLen int) *Framer {
	body := 2 + 4 + payloadLen + 4
	return &Framer{
		fec:        fec,
		payloadLen: payloadLen,
		bodyLen:    body,
		encLen:     fec.EncodedLen(body),
	}
}

// PayloadLen returns the fixed per-frame payload size.
func (f *Framer) PayloadLen() int { return f.payloadLen }

// WireLen returns the on-the-wire size of one frame.
func (f *Framer) WireLen() int { return 2 + f.encLen }

// AppendFrame serialises one frame onto dst and returns the extended
// slice. bodyScratch is a reusable buffer for the pre-FEC frame body
// (grown as needed); pass the same pointer on every call from one worker
// so the hot path stays allocation-free.
func (f *Framer) AppendFrame(dst []byte, lane int, seq uint32, payload []byte, bodyScratch *[]byte) []byte {
	if len(payload) != f.payloadLen {
		panic("phy: payload length mismatch")
	}
	if cap(*bodyScratch) < f.bodyLen {
		*bodyScratch = make([]byte, f.bodyLen)
	}
	body := (*bodyScratch)[:f.bodyLen]
	binary.BigEndian.PutUint16(body[0:2], uint16(lane))
	binary.BigEndian.PutUint32(body[2:6], seq)
	copy(body[6:6+f.payloadLen], payload)
	crc := crc32.ChecksumIEEE(body[:6+f.payloadLen])
	binary.BigEndian.PutUint32(body[6+f.payloadLen:], crc)

	dst = append(dst, marker0, marker1)
	return f.fec.AppendEncode(dst, body)
}

// DecodeStats reports what the decoder saw on one channel's stream.
type DecodeStats struct {
	Frames       int // frames delivered
	CRCFailures  int // frames found but rejected by CRC
	FECOverloads int // frames whose FEC flagged uncorrectable blocks
	Corrections  int // total corrected errors
	SkippedBytes int // bytes discarded while hunting for alignment
}

// ScanStream scans a channel's received byte stream, recovering every
// frame it can: it hunts for the marker, FEC-decodes the fixed-size body
// into bodyScratch (reused across frames), verifies the CRC, calls emit
// for every recovered frame and resynchronizes on failure. The payload
// slice passed to emit aliases bodyScratch and is only valid for the
// duration of the callback — copy it out if it must survive.
func (f *Framer) ScanStream(stream []byte, bodyScratch *[]byte, emit func(lane int, seq uint32, payload []byte, ncorr int)) DecodeStats {
	var st DecodeStats
	i := 0
	for i+f.WireLen() <= len(stream) {
		if stream[i] != marker0 || stream[i+1] != marker1 {
			i++
			st.SkippedBytes++
			continue
		}
		enc := stream[i+2 : i+2+f.encLen]
		body, ncorr, fecErr := f.fec.AppendDecode((*bodyScratch)[:0], enc, f.bodyLen)
		if cap(body) > cap(*bodyScratch) {
			*bodyScratch = body
		}
		if fecErr != nil {
			st.FECOverloads++
		}
		if len(body) == f.bodyLen {
			crcWant := binary.BigEndian.Uint32(body[6+f.payloadLen:])
			crcGot := crc32.ChecksumIEEE(body[:6+f.payloadLen])
			if crcWant == crcGot {
				emit(int(binary.BigEndian.Uint16(body[0:2])),
					binary.BigEndian.Uint32(body[2:6]),
					body[6:6+f.payloadLen], ncorr)
				st.Frames++
				st.Corrections += ncorr
				i += f.WireLen()
				continue
			}
			st.CRCFailures++
		}
		// Bad frame: resume hunting one byte later.
		i++
		st.SkippedBytes++
	}
	return st
}
