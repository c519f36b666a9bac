package scenario

import (
	"math/bits"
	"math/rand"
)

// goSource is Go 1's seeded math/rand source — the additive lagged
// Fibonacci generator x[n] = x[n-607] + x[n-273] mod 2⁶⁴ — as a concrete
// type, so that the hot draws (permHead's bounded draws, the radiation
// environment's per-link Float64) are inlined loads and adds instead of
// interface calls into math/rand. Its stream is rand.NewSource's, bit for
// bit: newGoSource recovers the register from that source's own output.
// It implements rand.Source64, so rand.New over it serves the cold draws
// (size samples) from the same stream.
type goSource struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen = 607 // register length: the long lag
	srcTap = 273 // the short lag
)

// newGoSource returns the source rand.NewSource(seed) returns, at its
// first draw. Draw k (from 1) adds vec[-k] into vec[srcLen-srcTap-k]
// (indices mod srcLen) and returns the sum, so the first srcLen draws
// write each slot once: after them the register is those draws. Undoing
// the draws last to first (each subtracts the slot it added, which it
// did not write) leaves the register the seeding made, with no table of
// rand's seeding constants copied here.
func newGoSource(seed int64) *goSource {
	ref := rand.NewSource(seed).(rand.Source64)
	s := &goSource{feed: srcLen - srcTap}
	for k := 1; k <= srcLen; k++ {
		s.vec[(2*srcLen-srcTap-k)%srcLen] = int64(ref.Uint64())
	}
	for k := srcLen; k >= 1; k-- {
		s.vec[(2*srcLen-srcTap-k)%srcLen] -= s.vec[(srcLen-k)%srcLen]
	}
	return s
}

// Uint64 is rand.Source64's Uint64: one step of the recurrence.
func (s *goSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rand.Source's Int63: the low 63 bits of a step.
func (s *goSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed restarts s as newGoSource(seed).
func (s *goSource) Seed(seed int64) { *s = *newGoSource(seed) }

// float64 is rand.Rand.Float64: Int63 scaled into [0,1), redrawn in the
// (never seen) case that rounding lands it on 1.
func (s *goSource) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// A bound is what rand.Rand.Int31n(m) needs to draw below m, computed
// once so that a draw divides nothing: the largest 31-bit draw it
// accepts, 2³¹−1−(2³¹ mod m), and ⌈2⁶⁴/m⌉ (0 for m = 1), with which
// v mod m = ⌊(⌈2⁶⁴/m⌉·v mod 2⁶⁴)·m / 2⁶⁴⌋ for every v, m < 2³².
type bound struct {
	m, max uint32
	mul    uint64
}

func newBound(m int) bound {
	return bound{m: uint32(m), max: uint32(1<<31 - 1 - (1<<31)%uint64(m)), mul: ^uint64(0)/uint64(m) + 1}
}

// newBounds returns the bounds of m = 1 … n, bounds[m-1] for m.
func newBounds(n int) []bound {
	bs := make([]bound, n)
	for i := range bs {
		bs[i] = newBound(i + 1)
	}
	return bs
}

// int31 is rand.Rand.Int31: bits 32–62 of a step.
func (s *goSource) int31() uint32 { return uint32(s.Uint64()>>32) &^ (1 << 31) }

// int31n is rand.Rand.Int31n(b.m), draw for draw: Int31 redrawn above
// b.max, then reduced mod m. Int31n's power-of-two shortcut needs no
// branch here: for m = 2ʲ the bound accepts every draw and v mod m is
// its mask.
func (s *goSource) int31n(b bound) int {
	v := s.int31()
	for v > b.max {
		v = s.int31()
	}
	return b.mod(v)
}

// mod is v mod b.m, by multiplication.
func (b bound) mod(v uint32) int {
	hi, _ := bits.Mul64(b.mul*uint64(v), uint64(b.m))
	return int(hi)
}
