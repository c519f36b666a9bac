// Package refmodel holds naive, transparently-correct reference
// implementations of every optimized stage in the PHY/MAC hot path:
// GF(256) arithmetic by shift-and-add, Reed-Solomon encoding by solving
// the root conditions with Gaussian elimination and decoding by
// brute-force bounded-distance search, a bit-history scrambler, a
// fresh-allocation channel framer, a list-based striper, a lockstep
// go-back-N MAC, and a serial end-to-end pipeline built from all of the
// above (including its own 64b/66b block codec and bitwise CRC32).
//
// Nothing here shares code with the optimized implementations — the
// models import only the standard library — and nothing here is fast.
// That is the point: the package's fuzz targets (fuzz_test.go) drive the
// optimized and reference implementations over the same randomized
// inputs and any disagreement convicts one of them. Goldens pin one
// trajectory; these models pin the algorithm. The package is test code
// only: no non-test file, and nothing outside it imports it.
package refmodel

// gfPoly is the primitive polynomial for GF(2^8), x^8+x^4+x^3+x^2+1,
// written independently of internal/coding/gf (which uses the same
// conventional polynomial — that is what makes the fields comparable).
const gfPoly = 0x11d

// GFAdd returns a+b in GF(256): carry-less, so XOR.
func GFAdd(a, b int) int { return a ^ b }

// GFMul multiplies in GF(256) by textbook shift-and-add: for each set bit
// i of b, add a·x^i, reducing by the field polynomial one shift at a time.
func GFMul(a, b int) int {
	p := 0
	for i := 0; i < 8; i++ {
		if b&(1<<i) == 0 {
			continue
		}
		s := a
		for j := 0; j < i; j++ {
			s <<= 1
			if s&0x100 != 0 {
				s ^= gfPoly
			}
		}
		p ^= s
	}
	return p
}

// GFPow raises a to a non-negative power by repeated multiplication.
func GFPow(a, n int) int {
	out := 1
	for i := 0; i < n; i++ {
		out = GFMul(out, a)
	}
	return out
}

// GFInv finds the multiplicative inverse by exhaustive search.
func GFInv(a int) int {
	for b := 1; b < 256; b++ {
		if GFMul(a, b) == 1 {
			return b
		}
	}
	panic("refmodel: inverse of zero")
}

// GFAlpha returns alpha^i for the primitive element alpha = x (the value
// 2), with any integer exponent. The multiplicative group has order 255.
func GFAlpha(i int) int {
	i %= 255
	if i < 0 {
		i += 255
	}
	return GFPow(2, i)
}

// gfSolve solves the square linear system M·y = rhs over GF(256) by
// Gaussian elimination with partial pivoting (any nonzero pivot works in
// a field). It returns false when the system is singular. M is modified.
func gfSolve(m [][]int, rhs []int) ([]int, bool) {
	n := len(rhs)
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := GFInv(m[col][col])
		for c := col; c < n; c++ {
			m[col][c] = GFMul(m[col][c], inv)
		}
		rhs[col] = GFMul(rhs[col], inv)
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for c := col; c < n; c++ {
				m[r][c] = GFAdd(m[r][c], GFMul(f, m[col][c]))
			}
			rhs[r] = GFAdd(rhs[r], GFMul(f, rhs[col]))
		}
	}
	return rhs, true
}

// CRC32 computes the IEEE CRC-32 (reflected, polynomial 0xEDB88320) one
// bit at a time — the reference for every CRC the framing layers use.
func CRC32(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}
