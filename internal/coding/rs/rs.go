// Package rs implements systematic Reed-Solomon codes over GF(2^m): an
// allocation-free LFSR encoder (EncodeTo) and a hard-decision
// bounded-distance decoder (DecodeTo: syndromes, Berlekamp-Massey, Chien
// search, Forney algorithm), plus the byte-domain fast codec Codec8 that
// GF(2^8) codes run on the link's hot path.
//
// Two code families matter to this reproduction:
//
//   - RS(544,514) over GF(2^10) — "KP4", the heavyweight FEC every 100G/lane
//     PAM4 Ethernet link must run, part of the DSP power Mosaic eliminates.
//   - Short high-rate codes over GF(2^8) (e.g. RS(68,64)) — the class of
//     lightweight per-link FEC a wide-and-slow design can afford, because
//     each 2 Gbps channel is nearly error-free to begin with.
package rs

import (
	"errors"
	"fmt"
	"sync"

	"mosaic/internal/coding/gf"
)

// Code is a systematic RS(n,k) code. Construct with New. A Code is
// immutable and safe for concurrent use.
type Code struct {
	field *gf.Field
	n, k  int
	t     int   // correctable symbol errors = (n-k)/2
	fcr   int   // first consecutive root exponent (alpha^fcr ... )
	gen   []int // generator polynomial, degree n-k, low-to-high

	// Lazily built byte-domain fast codec (codec8.go); nil outside its
	// envelope. Guarded by fast8Once so concurrent lanes share one build.
	fast8Once sync.Once
	fast8     *Codec8
}

// New builds RS(n,k) over the given field with first consecutive root
// alpha^fcr (0 is conventional). Requires 0 < k < n <= field.Order(); an
// odd n-k is allowed, its spare parity symbol only detecting.
func New(field *gf.Field, n, k, fcr int) (*Code, error) {
	if field == nil {
		return nil, errors.New("rs: nil field")
	}
	if k <= 0 || n <= k || n > field.Order() {
		return nil, fmt.Errorf("rs: invalid (n,k)=(%d,%d) for %v", n, k, field)
	}
	c := &Code{field: field, n: n, k: k, t: (n - k) / 2, fcr: fcr}
	// g(x) = prod_{i=0}^{n-k-1} (x - alpha^{fcr+i})
	g := []int{1}
	for i := 0; i < n-k; i++ {
		root := field.Alpha(fcr + i)
		g = field.PolyMul(g, []int{root, 1}) // (x + root) in char 2
	}
	c.gen = g
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(field *gf.Field, n, k, fcr int) *Code {
	c, err := New(field, n, k, fcr)
	if err != nil {
		panic(err)
	}
	return c
}

// codeCache shares Code instances for the canonical constructors below.
// A Code is immutable after construction (the lazily-built Codec8 hides
// behind a sync.Once), so handing every caller the same pointer is safe
// and means the generator polynomial and the Codec8's contribution
// tables are built once per process instead of once per link.
var codeCache sync.Map // (m<<32 | n<<16 | k) -> *Code

func cachedCode(m, n, k int) (*Code, error) {
	key := uint64(m)<<32 | uint64(n)<<16 | uint64(k)
	if c, ok := codeCache.Load(key); ok {
		return c.(*Code), nil
	}
	f, err := gf.Default(m)
	if err != nil {
		return nil, err
	}
	c, err := New(f, n, k, 0)
	if err != nil {
		return nil, err
	}
	actual, _ := codeCache.LoadOrStore(key, c)
	return actual.(*Code), nil
}

// KP4 returns RS(544,514) over GF(2^10): t=15, the 100G-per-lane Ethernet
// FEC (IEEE 802.3 clause 91/161 class).
func KP4() *Code {
	c, err := cachedCode(10, 544, 514)
	if err != nil {
		panic(err)
	}
	return c
}

// Lite returns a short byte-oriented RS(n,k) over GF(2^8) suitable as a
// lightweight per-channel FEC (e.g. Lite(68,64) corrects t=2 bytes per
// 68-byte block at 6.25%% overhead). Every Lite code shares the
// process-wide GF(2^8) field — and the Code itself is cached, so the
// Codec8 fast-path tables behind it are built once per process.
func Lite(n, k int) (*Code, error) { return cachedCode(8, n, k) }

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the number of data symbols per codeword.
func (c *Code) K() int { return c.k }

// T returns the number of correctable symbol errors.
func (c *Code) T() int { return c.t }

// Parity returns the number of parity symbols, n-k.
func (c *Code) Parity() int { return c.n - c.k }

// OverheadFraction returns (n-k)/k, the rate overhead the code adds.
func (c *Code) OverheadFraction() float64 {
	return float64(c.n-c.k) / float64(c.k)
}

// Field returns the underlying field.
func (c *Code) Field() *gf.Field { return c.field }

// String identifies the code.
func (c *Code) String() string {
	return fmt.Sprintf("RS(%d,%d)/%v", c.n, c.k, c.field)
}

// EncodeTo writes the systematic n-symbol codeword of the k data symbols
// (each in [0, field.Size())) into out, which must have length n, without
// allocating: out's parity section is the division register. The layout is
// parity first (out[0..n-k-1], the low-order coefficients), then the data
// — see Data. data and out must not alias.
func (c *Code) EncodeTo(out, data []int) error {
	if len(data) != c.k {
		return fmt.Errorf("rs: encode needs %d symbols, got %d", c.k, len(data))
	}
	if len(out) != c.n {
		return fmt.Errorf("rs: EncodeTo needs an out of %d symbols, got %d", c.n, len(out))
	}
	for _, s := range data {
		if s < 0 || s >= c.field.Size() {
			return fmt.Errorf("rs: symbol %d out of range for %v", s, c.field)
		}
	}
	// codeword = data·x^(n-k) + (data·x^(n-k) mod g): long division with
	// the data fed from the highest codeword power downward.
	np := c.n - c.k
	f := c.field
	rem := out[:np]
	for i := range rem {
		rem[i] = 0
	}
	for i := c.k - 1; i >= 0; i-- {
		feedback := f.Add(data[i], rem[np-1])
		for j := np - 1; j > 0; j-- {
			rem[j] = f.Add(rem[j-1], f.Mul(feedback, c.gen[j]))
		}
		rem[0] = f.Mul(feedback, c.gen[0])
	}
	copy(out[np:], data)
	return nil
}

// Data extracts the k data symbols from a (possibly corrected) codeword.
func (c *Code) Data(codeword []int) []int {
	return codeword[c.n-c.k:]
}

// SyndromesInto fills syn (which must have length n-k) with the syndromes
// of the received word and reports whether they are all zero, i.e. the
// word is a codeword.
func (c *Code) SyndromesInto(syn, received []int) bool {
	f := c.field
	np := c.n - c.k
	clean := true
	for j := 0; j < np; j++ {
		x := f.Alpha(c.fcr + j)
		s := f.PolyEval(received, x)
		syn[j] = s
		if s != 0 {
			clean = false
		}
	}
	return clean
}

// DecodeTo corrects up to t symbol errors in received into out (both
// length n, not aliased) using synScratch (length n-k) as syndrome
// scratch, and returns the number of symbols corrected. received is not
// modified. The clean-word fast path — the common case for a channel
// running at its design BER — performs no allocation. An uncorrectable
// word returns ErrTooManyErrors and leaves out unspecified.
func (c *Code) DecodeTo(out, received, synScratch []int) (int, error) {
	if len(received) != c.n || len(out) != c.n {
		return 0, fmt.Errorf("rs: DecodeTo needs %d symbols", c.n)
	}
	if len(synScratch) != c.n-c.k {
		return 0, fmt.Errorf("rs: DecodeTo needs %d syndrome scratch symbols", c.n-c.k)
	}
	copy(out, received)
	if c.SyndromesInto(synScratch, received) {
		return 0, nil
	}
	return c.correct(out, synScratch)
}

// ErrTooManyErrors is returned when the decoder detects an uncorrectable
// word (more than t symbol errors, or an inconsistent correction).
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

// correct fixes the errors in word, whose syndromes syn are not all zero,
// in place, and returns how many symbols it changed. syn is overwritten.
func (c *Code) correct(word, syn []int) (int, error) {
	f := c.field
	// Berlekamp-Massey on the syndromes for the error locator.
	lambda := c.berlekampMassey(syn)
	nerr := gf.PolyDeg(lambda)
	// Bounded-distance guard: v errors are only correctable when
	// 2v <= n-k. Without this check a beyond-budget received word can slip
	// through Chien/Forney and the final syndrome verification as a
	// "successful" correction to a codeword at distance greater than t — a
	// miscorrection, not a decode.
	if 2*nerr > c.n-c.k {
		return 0, ErrTooManyErrors
	}

	// Chien search: roots of Lambda give error positions.
	positions := make([]int, 0, nerr)
	for i := 0; i < c.n; i++ {
		// Position i has locator X = alpha^i; Lambda(X^{-1}) == 0.
		if f.PolyEval(lambda, f.Alpha(-i)) == 0 {
			positions = append(positions, i)
		}
	}
	if len(positions) != nerr {
		return 0, ErrTooManyErrors
	}

	// Forney: error evaluator Omega(x) = S(x)·Lambda(x) mod x^(n-k).
	omega := f.PolyMul(syn, lambda)
	if len(omega) > len(syn) {
		omega = omega[:len(syn)]
	}
	// Formal derivative of Lambda (char 2: odd-power terms survive).
	dlambda := make([]int, 0, len(lambda))
	for i := 1; i < len(lambda); i += 2 {
		// derivative coefficient for x^{i-1} is lambda[i] (i odd).
		for len(dlambda) < i {
			dlambda = append(dlambda, 0)
		}
		dlambda = append(dlambda, 0)
		dlambda[i-1] = lambda[i]
	}

	for _, pos := range positions {
		xinv := f.Alpha(-pos)
		den := f.PolyEval(dlambda, xinv)
		if den == 0 {
			return 0, ErrTooManyErrors
		}
		num := f.PolyEval(omega, xinv)
		// e = X^{1-fcr} · Omega(X^{-1}) / Lambda'(X^{-1})
		mag := f.Mul(f.Pow(f.Alpha(pos), 1-c.fcr), f.Div(num, den))
		word[pos] = f.Add(word[pos], mag)
	}

	// Verify the correction really yields a codeword.
	if !c.SyndromesInto(syn, word) {
		return 0, ErrTooManyErrors
	}
	return len(positions), nil
}

// berlekampMassey runs the Berlekamp-Massey recursion over the syndromes
// and returns the error-locator polynomial Lambda.
func (c *Code) berlekampMassey(syn []int) []int {
	f := c.field
	lambda := []int{1}
	b := []int{1}
	l := 0
	m := 1
	bcoef := 1
	for n := range syn {
		// Discrepancy (l <= n, so every syn index is in range).
		d := syn[n]
		for i := 1; i <= l && i < len(lambda); i++ {
			d = f.Add(d, f.Mul(lambda[i], syn[n-i]))
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= n {
			tmp := make([]int, len(lambda))
			copy(tmp, lambda)
			// lambda = lambda - (d/bcoef)·x^m·b
			coef := f.Div(d, bcoef)
			shift := make([]int, m+len(b))
			for i, bi := range b {
				shift[m+i] = f.Mul(coef, bi)
			}
			lambda = f.PolyAdd(lambda, shift)
			l = n + 1 - l
			b = tmp
			bcoef = d
			m = 1
		} else {
			coef := f.Div(d, bcoef)
			shift := make([]int, m+len(b))
			for i, bi := range b {
				shift[m+i] = f.Mul(coef, bi)
			}
			lambda = f.PolyAdd(lambda, shift)
			m++
		}
	}
	// Trim trailing zeros.
	deg := gf.PolyDeg(lambda)
	if deg < 0 {
		return []int{1}
	}
	return lambda[:deg+1]
}
