package refmodel

// FECStatus classifies a reference FEC decode outcome, mirroring the
// error semantics of phy.FEC.AppendDecode: OK, an uncorrectable block
// (best-effort bytes still returned), or a stream too short to hold the
// requested plaintext (no bytes returned).
type FECStatus int

// Decode outcomes.
const (
	FECOK FECStatus = iota
	FECOverload
	FECTruncated
)

// FECRef is the reference counterpart of the phy.FEC byte-stream
// contract: fixed-rate block segmentation with zero-symbol padding.
type FECRef interface {
	EncodedLen(n int) int
	Encode(plain []byte) []byte
	Decode(encoded []byte, plainLen int) (out []byte, corrections int, status FECStatus)
}

// NoFECRef passes bytes through unprotected.
type NoFECRef struct{}

// EncodedLen implements FECRef.
func (NoFECRef) EncodedLen(n int) int { return n }

// Encode implements FECRef.
func (NoFECRef) Encode(plain []byte) []byte { return append([]byte(nil), plain...) }

// Decode implements FECRef.
func (NoFECRef) Decode(encoded []byte, plainLen int) ([]byte, int, FECStatus) {
	if plainLen > len(encoded) {
		return nil, 0, FECTruncated
	}
	return append([]byte(nil), encoded[:plainLen]...), 0, FECOK
}

// RSByteFEC maps a reference RS code over GF(256) onto the byte stream,
// one symbol per byte, replicating the segmentation contract of
// phy.RSFEC: plaintext is split into k-byte blocks (the last one
// zero-padded), each block becomes an n-byte codeword, and decode
// passes uncorrectable blocks through best-effort.
type RSByteFEC struct {
	Code *RS
}

// NewRSLiteRef returns the reference RS(68,64) byte FEC — the oracle for
// the optimized RS-lite hot path.
func NewRSLiteRef() *RSByteFEC {
	c, err := NewRS(68, 64, 0)
	if err != nil {
		panic(err)
	}
	return &RSByteFEC{Code: c}
}

// EncodedLen implements FECRef.
func (r *RSByteFEC) EncodedLen(n int) int {
	k := r.Code.K()
	blocks := (n + k - 1) / k
	return blocks * r.Code.N()
}

// Encode implements FECRef.
func (r *RSByteFEC) Encode(plain []byte) []byte {
	k, n := r.Code.K(), r.Code.N()
	blocks := (len(plain) + k - 1) / k
	out := make([]byte, 0, blocks*n)
	for b := 0; b < blocks; b++ {
		syms := make([]int, k)
		for i := 0; i < k; i++ {
			if idx := b*k + i; idx < len(plain) {
				syms[i] = int(plain[idx])
			}
		}
		cw, err := r.Code.Encode(syms)
		if err != nil {
			panic(err) // bytes are always in range
		}
		for _, s := range cw {
			out = append(out, byte(s))
		}
	}
	return out
}

// Decode implements FECRef. Corrections accumulate across blocks even
// when a later block is uncorrectable, matching the optimized decoder.
func (r *RSByteFEC) Decode(encoded []byte, plainLen int) ([]byte, int, FECStatus) {
	k, n := r.Code.K(), r.Code.N()
	np := n - k
	blocks := (plainLen + k - 1) / k
	if len(encoded) < blocks*n {
		return nil, 0, FECTruncated
	}
	out := make([]byte, 0, plainLen)
	corrections := 0
	status := FECOK
	for b := 0; b < blocks; b++ {
		word := make([]int, n)
		for i := 0; i < n; i++ {
			word[i] = int(encoded[b*n+i])
		}
		fixed, ncorr, ok := r.Code.Decode(word)
		if !ok {
			status = FECOverload
			fixed = word // best effort: pass the received word through
		}
		corrections += ncorr
		for i := 0; i < k && len(out) < plainLen; i++ {
			out = append(out, byte(fixed[np+i]))
		}
	}
	return out, corrections, status
}

// Channel-frame wire constants — the Mosaic frame spec re-stated
// independently of internal/phy: a 2-byte alignment marker outside the
// FEC, then FEC(lane[2] | seq[4] | payload | crc32[4]), big-endian.
const (
	frameMarker0 = 0xD5
	frameMarker1 = 0xC3
)

// Framer is the reference channel framer: every call allocates fresh
// buffers, every frame is assembled field by field, and the stream
// scanner re-derives everything at each hunt position.
type Framer struct {
	fec        FECRef
	payloadLen int
	bodyLen    int
	encLen     int
}

// NewFramer builds a reference framer for the given FEC and payload size.
func NewFramer(fec FECRef, payloadLen int) *Framer {
	body := 2 + 4 + payloadLen + 4
	return &Framer{fec: fec, payloadLen: payloadLen, bodyLen: body, encLen: fec.EncodedLen(body)}
}

// WireLen returns the on-the-wire frame size.
func (f *Framer) WireLen() int { return 2 + f.encLen }

// EncodeFrame serialises one channel frame to fresh wire bytes.
func (f *Framer) EncodeFrame(lane int, seq uint32, payload []byte) []byte {
	if len(payload) != f.payloadLen {
		panic("refmodel: payload length mismatch")
	}
	body := make([]byte, 0, f.bodyLen)
	body = append(body, byte(lane>>8), byte(lane))
	body = append(body, byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq))
	body = append(body, payload...)
	crc := CRC32(body)
	body = append(body, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	out := []byte{frameMarker0, frameMarker1}
	return append(out, f.fec.Encode(body)...)
}

// ChannelFrame is one recovered reference frame.
type ChannelFrame struct {
	Lane        int
	Seq         uint32
	Payload     []byte
	Corrections int
}

// DecodeStats mirrors phy.DecodeStats field for field.
type DecodeStats struct {
	Frames       int
	CRCFailures  int
	FECOverloads int
	Corrections  int
	SkippedBytes int
}

// DecodeStream scans a received byte stream for channel frames with the
// same hunt/resync protocol as the optimized scanner: a frame is accepted
// only where the marker matches, the FEC yields a full body, and the CRC
// checks; accepted frames advance the scan by a whole frame, everything
// else advances one byte.
func (f *Framer) DecodeStream(stream []byte) ([]ChannelFrame, DecodeStats) {
	var frames []ChannelFrame
	var st DecodeStats
	i := 0
	for i+f.WireLen() <= len(stream) {
		if stream[i] != frameMarker0 || stream[i+1] != frameMarker1 {
			i++
			st.SkippedBytes++
			continue
		}
		body, ncorr, status := f.fec.Decode(stream[i+2:i+2+f.encLen], f.bodyLen)
		if status != FECOK {
			st.FECOverloads++
		}
		if len(body) == f.bodyLen {
			crcWant := uint32(body[f.bodyLen-4])<<24 | uint32(body[f.bodyLen-3])<<16 |
				uint32(body[f.bodyLen-2])<<8 | uint32(body[f.bodyLen-1])
			if CRC32(body[:f.bodyLen-4]) == crcWant {
				frames = append(frames, ChannelFrame{
					Lane:        int(body[0])<<8 | int(body[1]),
					Seq:         uint32(body[2])<<24 | uint32(body[3])<<16 | uint32(body[4])<<8 | uint32(body[5]),
					Payload:     append([]byte(nil), body[6:6+f.payloadLen]...),
					Corrections: ncorr,
				})
				st.Frames++
				st.Corrections += ncorr
				i += f.WireLen()
				continue
			}
			st.CRCFailures++
		}
		i++
		st.SkippedBytes++
	}
	return frames, st
}
