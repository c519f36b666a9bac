package phy

import (
	"errors"
	"fmt"
	"sync"

	"mosaic/internal/coding/hamming"
	"mosaic/internal/coding/rs"
)

// FEC is the per-channel forward error correction applied to each channel
// frame. Implementations segment the byte stream into code blocks
// internally. AppendDecode is given the expected plaintext length so
// padding can be stripped deterministically.
//
// Implementations must be safe for concurrent use (the per-channel workers
// run in parallel).
type FEC interface {
	// Name identifies the scheme (for reports).
	Name() string
	// Overhead returns the rate overhead, (encoded-plain)/plain.
	Overhead() float64
	// EncodedLen returns the encoded size of a plaintext of n bytes.
	EncodedLen(n int) int
	// AppendEncode appends the encoded bytes to dst and returns the
	// extended slice, so one per-lane wire buffer absorbs every frame.
	AppendEncode(dst, plain []byte) []byte
	// AppendDecode corrects errors, appends plainLen decoded bytes to dst
	// and returns the extended slice plus the number of corrected
	// symbol/bit errors. It returns an error when a block was
	// uncorrectable (the appended bytes are then best-effort) or the
	// encoded stream is too short (nothing is appended).
	AppendDecode(dst, encoded []byte, plainLen int) ([]byte, int, error)
}

// ErrFECOverload indicates at least one code block was uncorrectable.
var ErrFECOverload = errors.New("phy: uncorrectable FEC block")

// --- No FEC ---

// NoFEC passes data through unprotected; the baseline ablation point.
type NoFEC struct{}

// Name implements FEC.
func (NoFEC) Name() string { return "none" }

// Overhead implements FEC.
func (NoFEC) Overhead() float64 { return 0 }

// EncodedLen implements FEC.
func (NoFEC) EncodedLen(n int) int { return n }

// AppendEncode implements FEC.
func (NoFEC) AppendEncode(dst, plain []byte) []byte {
	return append(dst, plain...)
}

// AppendDecode implements FEC.
func (NoFEC) AppendDecode(dst, encoded []byte, plainLen int) ([]byte, int, error) {
	if plainLen > len(encoded) {
		return dst, 0, fmt.Errorf("phy: NoFEC stream shorter (%d) than plaintext (%d)", len(encoded), plainLen)
	}
	return append(dst, encoded[:plainLen]...), 0, nil
}

// --- Hamming(72,64) SEC-DED ---

// HammingFEC protects each 8-byte word with one check byte: 12.5% overhead,
// single-bit correction per word. The "nearly free" design point for
// channels that are already almost error-free.
type HammingFEC struct{}

// Name implements FEC.
func (HammingFEC) Name() string { return "hamming72" }

// Overhead implements FEC.
func (HammingFEC) Overhead() float64 { return hamming.Overhead() }

// EncodedLen implements FEC.
func (HammingFEC) EncodedLen(n int) int {
	words := (n + 7) / 8
	return words * 9
}

// AppendEncode implements FEC.
func (HammingFEC) AppendEncode(out, plain []byte) []byte {
	words := (len(plain) + 7) / 8
	for w := 0; w < words; w++ {
		var v uint64
		for i := 0; i < 8; i++ {
			idx := w*8 + i
			if idx < len(plain) {
				v |= uint64(plain[idx]) << uint(8*i)
			}
		}
		cw := hamming.Encode(v)
		for i := 0; i < 8; i++ {
			out = append(out, byte(cw.Data>>uint(8*i)))
		}
		out = append(out, cw.Check)
	}
	return out
}

// AppendDecode implements FEC.
func (HammingFEC) AppendDecode(out, encoded []byte, plainLen int) ([]byte, int, error) {
	words := (plainLen + 7) / 8
	if len(encoded) < words*9 {
		return out, 0, fmt.Errorf("phy: hamming stream truncated: %d < %d", len(encoded), words*9)
	}
	base := len(out)
	corrections := 0
	var firstErr error
	for w := 0; w < words; w++ {
		blk := encoded[w*9 : w*9+9]
		var cw hamming.Codeword
		for i := 0; i < 8; i++ {
			cw.Data |= uint64(blk[i]) << uint(8*i)
		}
		cw.Check = blk[8]
		data, res, err := hamming.Decode(cw)
		switch res {
		case hamming.Corrected:
			corrections++
		case hamming.Detected:
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: word %d: %v", ErrFECOverload, w, err)
			}
		}
		for i := 0; i < 8 && len(out) < base+plainLen; i++ {
			out = append(out, byte(data>>uint(8*i)))
		}
	}
	return out, corrections, firstErr
}

// --- Reed-Solomon (byte symbols) ---

// RSFEC wraps an RS code for the byte-oriented channel stream. Codes over
// GF(2^8) map one symbol per byte; larger fields (KP4/KR4 over GF(2^10))
// pack each symbol into two bytes so parity symbols above 255 survive the
// wire. The 16-bits-per-10-bit-symbol padding overstates KP4's wire
// overhead but preserves its per-block correction behaviour, which is what
// the experiments compare; Overhead() reports the true code rate.
type RSFEC struct {
	code     *rs.Code
	symBytes int
	// fast is the byte-domain table-driven codec (rs.Codec8) for GF(2^8)
	// codes with ≤8 parity symbols — the RS-lite class. When non-nil,
	// AppendEncode/AppendDecode skip the int-symbol staging entirely:
	// encode streams parity straight into dst from the sliced tables,
	// decode proves a block clean by re-encoding its parity from the wire
	// bytes in place, and only a dirty block is copied (to a stack buffer)
	// for the allocation-free full decode. Larger codes (KP4 over
	// GF(2^10)) keep the general path.
	fast *rs.Codec8
	// scratch pools per-call symbol buffers so the concurrent per-lane
	// workers share one allocation-free codec on the general path.
	scratch sync.Pool
}

// rsScratch holds the symbol-domain working set for one encode or decode
// call: data/received symbols, the output codeword, and syndrome space.
type rsScratch struct {
	word []int
	cw   []int
	syn  []int
}

// NewRSLite returns the light per-channel RS(68,64) over GF(2^8): t=2 per
// block at 6.25% overhead — the paper-class "wide channels need only a
// whisper of FEC" operating point.
func NewRSLite() *RSFEC {
	c, err := rs.Lite(68, 64)
	if err != nil {
		panic(err)
	}
	return NewRSFEC(c)
}

// NewRSKP4 returns RS(544,514), the heavyweight Ethernet FEC baseline.
func NewRSKP4() *RSFEC { return NewRSFEC(rs.KP4()) }

// NewRSFEC wraps an arbitrary code, choosing the symbol serialization
// width from the field size.
func NewRSFEC(c *rs.Code) *RSFEC {
	sb := 1
	if c.Field().Size() > 256 {
		sb = 2
	}
	f := &RSFEC{code: c, symBytes: sb, fast: c.Codec8()}
	f.scratch.New = func() any {
		return &rsScratch{
			word: make([]int, c.N()),
			cw:   make([]int, c.N()),
			syn:  make([]int, c.Parity()),
		}
	}
	return f
}

// Name implements FEC.
func (r *RSFEC) Name() string { return r.code.String() }

// Overhead implements FEC.
func (r *RSFEC) Overhead() float64 { return r.code.OverheadFraction() }

// EncodedLen implements FEC.
func (r *RSFEC) EncodedLen(n int) int {
	k := r.code.K()
	blocks := (n + k - 1) / k
	return blocks * r.code.N() * r.symBytes
}

// putSym serialises one field symbol.
func (r *RSFEC) putSym(dst []byte, s int) {
	if r.symBytes == 1 {
		dst[0] = byte(s)
		return
	}
	dst[0] = byte(s >> 8)
	dst[1] = byte(s)
}

// getSym reads one field symbol, masking to the field size so corrupted
// high bits cannot escape the field.
func (r *RSFEC) getSym(src []byte) int {
	if r.symBytes == 1 {
		return int(src[0])
	}
	return (int(src[0])<<8 | int(src[1])) & (r.code.Field().Size() - 1)
}

// AppendEncode implements FEC.
func (r *RSFEC) AppendEncode(dst, plain []byte) []byte {
	k, n := r.code.K(), r.code.N()
	blocks := (len(plain) + k - 1) / k
	base := len(dst)
	need := blocks * n * r.symBytes
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+need]
	if r.fast != nil {
		np := n - k
		for b := 0; b < blocks; b++ {
			off := base + b*n
			lo := b * k
			hi := lo + k
			if hi > len(plain) {
				hi = len(plain)
			}
			data := plain[lo:hi]
			r.fast.EncodeParity(dst[off:off+np], data)
			copy(dst[off+np:], data)
			// Tail-block padding must be zero on the wire (dst may hold
			// stale bytes from a previous use of the buffer).
			for i := off + np + len(data); i < off+n; i++ {
				dst[i] = 0
			}
		}
		return dst
	}
	sc := r.scratch.Get().(*rsScratch)
	syms := sc.word[:k]
	for b := 0; b < blocks; b++ {
		for i := 0; i < k; i++ {
			idx := b*k + i
			if idx < len(plain) {
				syms[i] = int(plain[idx])
			} else {
				syms[i] = 0
			}
		}
		if err := r.code.EncodeTo(sc.cw, syms); err != nil {
			panic(err) // symbols are bytes; cannot be out of range
		}
		off := base + b*n*r.symBytes
		for i, s := range sc.cw {
			r.putSym(dst[off+i*r.symBytes:], s)
		}
	}
	r.scratch.Put(sc)
	return dst
}

// AppendDecode implements FEC.
func (r *RSFEC) AppendDecode(dst, encoded []byte, plainLen int) ([]byte, int, error) {
	k, n := r.code.K(), r.code.N()
	blocks := (plainLen + k - 1) / k
	need := blocks * n * r.symBytes
	if len(encoded) < need {
		return dst, 0, fmt.Errorf("phy: RS stream truncated: %d < %d", len(encoded), need)
	}
	start := len(dst)
	corrections := 0
	var firstErr error
	if r.fast != nil {
		np := n - k
		for b := 0; b < blocks; b++ {
			block := encoded[b*n : (b+1)*n]
			src := block[np:]
			if !r.fast.Clean(block) {
				// Dirty block: decode a stack copy so the received
				// stream stays untouched (the framer may re-scan these
				// bytes at a different alignment after a resync).
				var blk [255]byte
				copy(blk[:n], block)
				ncorr, err := r.fast.Decode(blk[:n])
				if err != nil {
					// The sentinel alone: callers only branch on non-nil /
					// errors.Is, and wrapping the block index here was the
					// single largest allocation source in the whole RX path
					// (one fmt.Errorf per overloaded frame at high BER).
					firstErr = ErrFECOverload
					// best effort: pass the received data through
				} else {
					src = blk[np:n]
				}
				corrections += ncorr
			}
			take := k
			if rem := start + plainLen - len(dst); take > rem {
				take = rem
			}
			dst = append(dst, src[:take]...)
		}
		return dst, corrections, firstErr
	}
	sc := r.scratch.Get().(*rsScratch)
	for b := 0; b < blocks; b++ {
		base := b * n * r.symBytes
		for i := 0; i < n; i++ {
			sc.word[i] = r.getSym(encoded[base+i*r.symBytes:])
		}
		ncorr, err := r.code.DecodeTo(sc.cw, sc.word, sc.syn)
		fixed := sc.cw
		if err != nil {
			firstErr = ErrFECOverload // sentinel only; see fast path
			fixed = sc.word           // best effort: pass through
		}
		corrections += ncorr
		data := r.code.Data(fixed)
		for i := 0; i < k && len(dst) < start+plainLen; i++ {
			dst = append(dst, byte(data[i]))
		}
	}
	r.scratch.Put(sc)
	return dst, corrections, firstErr
}

// FECByName returns a FEC scheme by its configuration name; used by CLIs.
func FECByName(name string) (FEC, error) {
	switch name {
	case "", "none":
		return NoFEC{}, nil
	case "hamming", "hamming72":
		return HammingFEC{}, nil
	case "rslite", "rs-lite":
		return NewRSLite(), nil
	case "kp4", "rs544":
		return NewRSKP4(), nil
	default:
		return nil, fmt.Errorf("phy: unknown FEC %q (want none|hamming72|rslite|kp4)", name)
	}
}
