package rs

import (
	"encoding/binary"

	"mosaic/internal/coding/gf"
)

// Codec8 is the byte-domain fast path for short codes over GF(2^8) with
// at most 8 parity symbols — the RS-lite class the PHY runs on every lane
// of every superframe. It trades the general int-symbol API for three
// table-driven kernels:
//
//   - Encode: the systematic parity is the LFSR division register (np
//     bytes, packed in one uint64) after every data byte has been fed. The
//     register update is GF(2)-linear in register and input, so eight
//     steps collapse into eight lookups: slice[m][v] is what byte v leaves
//     in the register m steps after it was fed, and a step XORs the
//     register into the next eight data bytes and sums one entry of each
//     table (slicing-by-8, as in table-driven CRCs). The tables are 16 KB
//     for any k — they stay in L1 beside the stream they encode, which a
//     table row per data position (k × 2 KB) did not.
//   - Syndromes: a received block is a codeword (its data plus the parity
//     re-encoded from that data) plus the np-byte difference between the
//     received and re-encoded parity. Codewords evaluate to zero at every
//     generator root, so S_j is that difference polynomial at
//     alpha^(fcr+j): np² products against synPow instead of np Horner
//     passes over all n bytes, and exactly the same values.
//   - Decode: the same syndromes → Berlekamp-Massey → Chien → Forney
//     decision procedure as Code.DecodeErasures (with no erasures), run
//     over fixed-size stack arrays so a dirty block decodes without a
//     single heap allocation.
//
// A Codec8 makes exactly the accept/reject decisions of the reference
// path: same bounded-distance guard, same Chien root-count check, same
// final codeword verification. That equivalence is what refmodel's
// FuzzDiffRSVector target pins against the naive reference decoder.
//
// A Codec8 is immutable after construction and safe for concurrent use;
// all mutable state is the caller's block and the decoder's stack frame.
type Codec8 struct {
	n, k, np, fcr int
	mul           *[256][256]byte
	slice         [8][256]uint64 // slice[m][v]: register m steps after feeding v; slice[0][fb] byte j = fb·gen[j]
	remMask       uint64         // low 8·np bits
	synPow        [8][8]byte     // synPow[j][i] = alpha^((fcr+j)·i)
	xinv          []byte         // xinv[i] = alpha^(-i), Chien probe per position
	xmag          []byte         // xmag[i] = alpha(i)^(1-fcr), Forney magnitude factor
	field         *gf.Field
}

// maxParity8 bounds the packed-register encode: 8 parity bytes fill the
// uint64 exactly. Every GF(2^8) code in this repo (RS-lite t≤3 class)
// fits; larger codes stay on the general path.
const maxParity8 = 8

// Codec8 returns the byte-domain fast codec for this code, or nil when
// the code is outside its envelope (field ≠ GF(2^8) or more than 8
// parity symbols). The codec is built once and cached on the Code.
func (c *Code) Codec8() *Codec8 {
	c.fast8Once.Do(func() {
		if c.field.M() != 8 || c.n-c.k > maxParity8 {
			return
		}
		c.fast8 = newCodec8(c)
	})
	return c.fast8
}

func newCodec8(c *Code) *Codec8 {
	f := c.field
	np := c.n - c.k
	cd := &Codec8{
		n:       c.n,
		k:       c.k,
		np:      np,
		fcr:     c.fcr,
		mul:     f.MulTable8(),
		remMask: ^uint64(0) >> (8 * uint(8-np)),
		field:   f,
	}
	for fb := 0; fb < 256; fb++ {
		var w uint64
		for j := 0; j < np; j++ {
			w |= uint64(cd.mul[fb][c.gen[j]]) << (8 * j)
		}
		cd.slice[0][fb] = w
	}
	for m := 1; m < 8; m++ {
		for v := 0; v < 256; v++ {
			cd.slice[m][v] = cd.advance(cd.slice[m-1][v])
		}
	}
	for j := 0; j < np; j++ {
		for i := 0; i < np; i++ {
			cd.synPow[j][i] = byte(f.Alpha((c.fcr + j) * i))
		}
	}
	cd.xinv = make([]byte, c.n)
	cd.xmag = make([]byte, c.n)
	for i := 0; i < c.n; i++ {
		cd.xinv[i] = byte(f.Alpha(-i))
		cd.xmag[i] = byte(f.Pow(f.Alpha(i), 1-c.fcr))
	}
	return cd
}

// advance is one LFSR step with a zero input byte.
func (cd *Codec8) advance(rem uint64) uint64 {
	fb := byte(rem >> (8 * uint(cd.np-1)))
	return (rem<<8)&cd.remMask ^ cd.slice[0][fb]
}

// parityWord returns the packed parity register of the systematic
// codeword for data: byte j is parity coefficient j. Data bytes are fed
// highest index first, as the LFSR of Code.EncodeTo feeds them; missing
// bytes up to k — and the zeros that fill a short top word up to eight —
// are zeros fed into a zero register, which leave it zero.
func (cd *Codec8) parityWord(data []byte) uint64 {
	var rem uint64
	i := len(data)
	if r := i & 7; r != 0 {
		var x uint64
		for j, b := range data[i-r:] {
			x |= uint64(b) << (8 * uint(j))
		}
		rem, i = cd.step8(x), i-r
	}
	// Aligned under the next eight data bytes, the register's np bytes
	// meet exactly the bytes they would have been XORed into as feedback.
	// (The &63 tells the compiler the shift is in range: no guard sequence
	// on the loop's one dependent chain.)
	up := 8 * uint(8-cd.np)
	for ; i > 0; i -= 8 {
		rem = cd.step8(binary.LittleEndian.Uint64(data[i-8:i]) ^ rem<<(up&63))
	}
	return rem
}

// step8 is eight LFSR steps at once on a zero register: byte 7 of x is
// fed first and byte j with j steps still to follow it. The lookups are
// summed as a tree, the four the previous register reaches (the high
// bytes) last, so the chain from one step to the next stays short.
func (cd *Codec8) step8(x uint64) uint64 {
	return (cd.slice[0][byte(x)] ^ cd.slice[1][byte(x>>8)]) ^
		(cd.slice[2][byte(x>>16)] ^ cd.slice[3][byte(x>>24)]) ^
		((cd.slice[4][byte(x>>32)] ^ cd.slice[5][byte(x>>40)]) ^
			(cd.slice[6][byte(x>>48)] ^ cd.slice[7][byte(x>>56)]))
}

// EncodeParity writes the np parity bytes of the systematic codeword for
// data into parity (len ≥ np). data holds the leading data bytes; any
// missing bytes up to k are treated as zero, matching the zero-padded
// tail block of the byte-stream FEC without the caller staging a padded
// copy. Byte i of data is codeword coefficient np+i, parity[j] is
// coefficient j — identical layout to Code.EncodeTo.
func (cd *Codec8) EncodeParity(parity, data []byte) {
	rem := cd.parityWord(data)
	for j := 0; j < cd.np; j++ {
		parity[j] = byte(rem >> (8 * uint(j)))
	}
}

// parityDiff returns received parity XOR re-encoded parity, packed like
// parityWord: zero exactly when block is a codeword.
func (cd *Codec8) parityDiff(block []byte) uint64 {
	var recv uint64
	for j := 0; j < cd.np; j++ {
		recv |= uint64(block[j]) << (8 * uint(j))
	}
	return recv ^ cd.parityWord(block[cd.np:])
}

// Clean reports whether block (len n, coefficient order: parity first)
// is a codeword, without modifying it: a systematic codeword's parity is
// exactly the encoder's output for its data bytes.
func (cd *Codec8) Clean(block []byte) bool { return cd.parityDiff(block) == 0 }

// diffSyndromes evaluates the parity-difference polynomial (parityDiff's
// packed word, byte i the coefficient of x^i) at the np generator roots:
// the block's syndromes, since the codeword part contributes zero.
func (cd *Codec8) diffSyndromes(diff uint64) (syn [maxParity8]byte) {
	for i := 0; i < cd.np; i++ {
		row := &cd.mul[byte(diff>>(8*uint(i)))]
		for j := 0; j < cd.np; j++ {
			syn[j] ^= row[cd.synPow[j][i]]
		}
	}
	return syn
}

// polyEval8 evaluates p[:plen] at x with Horner's rule over the table.
func (cd *Codec8) polyEval8(p *[2*maxParity8 + 2]byte, plen int, x byte) byte {
	row := &cd.mul[x]
	var acc byte
	for i := plen - 1; i >= 0; i-- {
		acc = row[acc] ^ p[i]
	}
	return acc
}

// Decode corrects block (len n) in place and returns the number of byte
// corrections. On an uncorrectable block it returns ErrTooManyErrors and
// leaves block exactly as received. The decision procedure — including
// the bounded-distance guard, the Chien root-count check, and the final
// codeword verification — matches Code.DecodeTo.
func (cd *Codec8) Decode(block []byte) (int, error) {
	diff := cd.parityDiff(block)
	if diff == 0 {
		return 0, nil
	}
	mul := cd.mul
	np := cd.np
	syn := cd.diffSyndromes(diff)

	// Berlekamp-Massey over fixed arrays; lengths mirror the reference
	// polynomial slices exactly (trailing zeros included) so the
	// discrepancy loop bound `i < len(lambda)` agrees step for step.
	var lambda, bpoly, tmp [2*maxParity8 + 2]byte
	lambda[0], bpoly[0] = 1, 1
	lambdaLen, bLen := 1, 1
	l, m := 0, 1
	bcoef := byte(1)
	for nn := 0; nn < np; nn++ {
		d := syn[nn]
		for i := 1; i <= l && i < lambdaLen; i++ {
			if nn-i >= 0 {
				d ^= mul[lambda[i]][syn[nn-i]]
			}
		}
		if d == 0 {
			m++
			continue
		}
		coef := byte(cd.field.Div(int(d), int(bcoef)))
		newLen := m + bLen
		if lambdaLen > newLen {
			newLen = lambdaLen
		}
		if 2*l <= nn {
			copy(tmp[:], lambda[:lambdaLen])
			tmpLen := lambdaLen
			for i := 0; i < bLen; i++ {
				lambda[m+i] ^= mul[coef][bpoly[i]]
			}
			lambdaLen = newLen
			l = nn + 1 - l
			copy(bpoly[:], tmp[:tmpLen])
			for i := tmpLen; i < bLen; i++ {
				bpoly[i] = 0
			}
			bLen = tmpLen
			bcoef = d
			m = 1
		} else {
			for i := 0; i < bLen; i++ {
				lambda[m+i] ^= mul[coef][bpoly[i]]
			}
			lambdaLen = newLen
			m++
		}
	}
	// With no erasures Psi = Lambda; its degree is the claimed error count.
	nerr := -1
	for i := lambdaLen - 1; i >= 0; i-- {
		if lambda[i] != 0 {
			nerr = i
			break
		}
	}
	if nerr < 0 {
		return 0, ErrTooManyErrors
	}
	if nerr == 0 {
		// Psi constant: the Chien search finds no roots, the empty
		// correction cannot clear nonzero syndromes — reference path
		// reports uncorrectable after its final verify.
		return 0, ErrTooManyErrors
	}
	// Bounded-distance guard: 2v must not exceed n-k.
	if 2*nerr > np {
		return 0, ErrTooManyErrors
	}
	psiLen := nerr + 1

	// Chien search over all n positions.
	var positions [maxParity8]int
	npos := 0
	for i := 0; i < cd.n; i++ {
		if cd.polyEval8(&lambda, psiLen, cd.xinv[i]) == 0 {
			if npos < len(positions) {
				positions[npos] = i
			}
			npos++
		}
	}
	if npos != nerr {
		return 0, ErrTooManyErrors
	}

	// Forney: Omega = S·Psi mod x^np, dPsi = formal derivative.
	var omega, dpsi [2*maxParity8 + 2]byte
	for i := 0; i < np; i++ {
		if syn[i] == 0 {
			continue
		}
		row := &mul[syn[i]]
		for j := 0; j < psiLen && i+j < np; j++ {
			omega[i+j] ^= row[lambda[j]]
		}
	}
	for i := 1; i < psiLen; i += 2 {
		dpsi[i-1] = lambda[i]
	}
	var mags [maxParity8]byte
	for pi := 0; pi < npos; pi++ {
		pos := positions[pi]
		x := cd.xinv[pos]
		den := cd.polyEval8(&dpsi, psiLen-1, x)
		if den == 0 {
			return 0, ErrTooManyErrors
		}
		num := cd.polyEval8(&omega, np, x)
		mags[pi] = mul[cd.xmag[pos]][byte(cd.field.Div(int(num), int(den)))]
	}

	// Apply, verify, and revert if the "correction" is not a codeword.
	for pi := 0; pi < npos; pi++ {
		block[positions[pi]] ^= mags[pi]
	}
	if !cd.Clean(block) {
		for pi := 0; pi < npos; pi++ {
			block[positions[pi]] ^= mags[pi]
		}
		return 0, ErrTooManyErrors
	}
	return npos, nil
}
