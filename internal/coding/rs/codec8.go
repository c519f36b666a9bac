package rs

import "mosaic/internal/coding/gf"

// Codec8 is the byte-domain fast path for short codes over GF(2^8) with
// at most 8 parity symbols — the RS-lite class the PHY runs on every lane
// of every superframe. It trades the general int-symbol API for three
// table-driven kernels:
//
//   - Encode: the systematic parity is linear in the data, so the LFSR
//     division register (np bytes, packed in one uint64) is precomputed
//     per data position: contrib[i][v] is the final remainder of a
//     message that is zero everywhere except byte value v at position i.
//     Encoding is then one table load and one XOR per data byte with no
//     loop-carried dependency — the loads pipeline, unlike the serial
//     feedback register they replace.
//   - Syndromes: Horner evaluation where the per-syndrome multiplier row
//     of the 256×256 product table (gf.MulTable8) is hoisted out of the
//     inner loop — one dependent load per received byte per syndrome.
//   - Decode: the same syndromes → Berlekamp-Massey → Chien → Forney
//     decision procedure as Code.DecodeErasures (with no erasures), run
//     over fixed-size stack arrays so a dirty block decodes without a
//     single heap allocation.
//
// A Codec8 makes exactly the accept/reject decisions of the reference
// path: same bounded-distance guard, same Chien root-count check, same
// final syndrome verification. That equivalence is what the rs_vector
// diffcheck stage pins against the naive refmodel decoder.
//
// A Codec8 is immutable after construction and safe for concurrent use;
// all mutable state is the caller's block and the decoder's stack frame.
type Codec8 struct {
	n, k, np, fcr int
	mul           *[256][256]byte
	genWord       [256]uint64   // genWord[fb] byte j = fb·gen[j]
	contrib       [][256]uint64 // contrib[i][v]: parity of v at data position i
	remMask       uint64        // low 8·np bits
	synMul        [8]byte       // alpha^(fcr+j): Horner multiplier per syndrome
	xinv          []byte        // xinv[i] = alpha^(-i), Chien probe per position
	xmag          []byte        // xmag[i] = alpha(i)^(1-fcr), Forney magnitude factor
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
		n:     c.n,
		k:     c.k,
		np:    np,
		fcr:   c.fcr,
		mul:   f.MulTable8(),
		field: f,
	}
	if np == 8 {
		cd.remMask = ^uint64(0)
	} else {
		cd.remMask = 1<<(8*np) - 1
	}
	for fb := 0; fb < 256; fb++ {
		var w uint64
		for j := 0; j < np; j++ {
			w |= uint64(cd.mul[fb][c.gen[j]]) << (8 * j)
		}
		cd.genWord[fb] = w
	}
	// contrib[i][v] = advance^i(genWord[v]): the remainder left by byte v
	// at data position i (i advance steps follow its feed). The register
	// update is GF(2)-linear in both the register and the input byte, so
	// the final remainder is the XOR of per-byte contributions.
	top := uint(8 * (np - 1))
	cd.contrib = make([][256]uint64, c.k)
	cd.contrib[0] = cd.genWord
	for i := 1; i < c.k; i++ {
		prev, cur := &cd.contrib[i-1], &cd.contrib[i]
		for v := 0; v < 256; v++ {
			rem := prev[v]
			fb := byte(rem >> top)
			cur[v] = ((rem << 8) & cd.remMask) ^ cd.genWord[fb]
		}
	}
	for j := 0; j < np; j++ {
		cd.synMul[j] = byte(f.Alpha(c.fcr + j))
	}
	cd.xinv = make([]byte, c.n)
	cd.xmag = make([]byte, c.n)
	for i := 0; i < c.n; i++ {
		cd.xinv[i] = byte(f.Alpha(-i))
		cd.xmag[i] = byte(f.Pow(f.Alpha(i), 1-c.fcr))
	}
	return cd
}

// EncodeParity writes the np parity bytes of the systematic codeword for
// data into parity (len ≥ np). data holds the leading data bytes; any
// missing bytes up to k are treated as zero, matching the zero-padded
// tail block of the byte-stream FEC without the caller staging a padded
// copy. Byte i of data is codeword coefficient np+i, parity[j] is
// coefficient j — identical layout to Code.EncodeTo.
func (cd *Codec8) EncodeParity(parity, data []byte) {
	// Implicit zero padding at positions i ≥ len(data) contributes
	// nothing (contrib[i][0] == 0), so only the present bytes are
	// accumulated. The four independent accumulators let the table loads
	// pipeline; XOR order is irrelevant.
	var r0, r1, r2, r3 uint64
	i := 0
	for ; i+4 <= len(data); i += 4 {
		r0 ^= cd.contrib[i][data[i]]
		r1 ^= cd.contrib[i+1][data[i+1]]
		r2 ^= cd.contrib[i+2][data[i+2]]
		r3 ^= cd.contrib[i+3][data[i+3]]
	}
	for ; i < len(data); i++ {
		r0 ^= cd.contrib[i][data[i]]
	}
	rem := r0 ^ r1 ^ r2 ^ r3
	for j := 0; j < cd.np; j++ {
		parity[j] = byte(rem >> (8 * uint(j)))
	}
}

// Clean reports whether block (len n, coefficient order: parity first)
// is a codeword, without modifying it. A systematic codeword's parity is
// exactly the encoder's output for its data bytes, so one table-XOR
// encode pass answers the question np times cheaper than the syndrome
// check (which Decode still uses, since it needs the syndrome values).
func (cd *Codec8) Clean(block []byte) bool {
	var parity [maxParity8]byte
	cd.EncodeParity(parity[:cd.np], block[cd.np:])
	var diff byte
	for j := 0; j < cd.np; j++ {
		diff |= parity[j] ^ block[j]
	}
	return diff == 0
}

// syndromes fills syn and reports whether all are zero.
func (cd *Codec8) syndromes(syn *[maxParity8]byte, block []byte) bool {
	var dirty byte
	for j := 0; j < cd.np; j++ {
		row := &cd.mul[cd.synMul[j]]
		var acc byte
		for i := cd.n - 1; i >= 0; i-- {
			acc = row[acc] ^ block[i]
		}
		syn[j] = acc
		dirty |= acc
	}
	return dirty == 0
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
// syndrome verification — matches Code.DecodeErasures(block, nil).
func (cd *Codec8) Decode(block []byte) (int, error) {
	var syn [maxParity8]byte
	if cd.syndromes(&syn, block) {
		return 0, nil
	}
	mul := cd.mul
	np := cd.np

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
	var check [maxParity8]byte
	if !cd.syndromes(&check, block) {
		for pi := 0; pi < npos; pi++ {
			block[positions[pi]] ^= mags[pi]
		}
		return 0, ErrTooManyErrors
	}
	return npos, nil
}
