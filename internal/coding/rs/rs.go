// Package rs implements systematic Reed-Solomon codes over GF(2^m), with a
// full hard-decision decoder (syndromes, Berlekamp-Massey, Chien search,
// Forney algorithm) and erasure support.
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
// alpha^fcr (0 is conventional). Requires 0 < k < n <= field.Order() and
// n-k even for a pure error-correcting code (odd n-k is allowed; the spare
// parity helps only with erasures).
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

// Encode appends n-k parity symbols to the k data symbols and returns the
// n-symbol codeword (data first: systematic). Symbols must be in
// [0, field.Size()).
func (c *Code) Encode(data []int) ([]int, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: encode needs %d symbols, got %d", c.k, len(data))
	}
	for _, s := range data {
		if s < 0 || s >= c.field.Size() {
			return nil, fmt.Errorf("rs: symbol %d out of range for %v", s, c.field)
		}
	}
	// Systematic encoding: codeword = data·x^(n-k) + (data·x^(n-k) mod g).
	// We do polynomial long division with the data in high-order positions.
	np := c.n - c.k
	rem := make([]int, np) // remainder register, rem[0] is lowest order
	f := c.field
	for i := c.k - 1; i >= 0; i-- {
		// Feed data from the highest codeword power downward.
		feedback := f.Add(data[i], rem[np-1])
		for j := np - 1; j > 0; j-- {
			rem[j] = f.Add(rem[j-1], f.Mul(feedback, c.gen[j]))
		}
		rem[0] = f.Mul(feedback, c.gen[0])
	}
	out := make([]int, c.n)
	// Layout: out[0..np-1] = parity (low-order coefficients),
	// out[np..n-1] = data. Callers see data via Data().
	copy(out[:np], rem)
	copy(out[np:], data)
	return out, nil
}

// EncodeTo is Encode without allocation: it writes the n-symbol codeword
// into out (which must have length n), using out's parity section as the
// division register. data and out must not alias.
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

// Syndromes computes the 2t syndromes of the received word. All-zero
// syndromes mean the word is a codeword.
func (c *Code) Syndromes(received []int) ([]int, bool) {
	syn := make([]int, c.n-c.k)
	clean := c.SyndromesInto(syn, received)
	return syn, clean
}

// SyndromesInto is Syndromes without allocation: it fills syn (which must
// have length n-k) and reports whether the word is clean.
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

// DecodeTo corrects received into out (both length n) using synScratch
// (length n-k) as syndrome scratch. The clean-word fast path — the common
// case for a channel running at its design BER — performs no allocation;
// corrupted words fall back to the full errors-and-erasures decoder.
func (c *Code) DecodeTo(out, received, synScratch []int) (int, error) {
	if len(received) != c.n || len(out) != c.n {
		return 0, fmt.Errorf("rs: DecodeTo needs %d symbols", c.n)
	}
	if len(synScratch) != c.n-c.k {
		return 0, fmt.Errorf("rs: DecodeTo needs %d syndrome scratch symbols", c.n-c.k)
	}
	if c.SyndromesInto(synScratch, received) {
		copy(out, received)
		return 0, nil
	}
	fixed, ncorr, err := c.DecodeErasures(received, nil)
	if err != nil {
		return 0, err
	}
	copy(out, fixed)
	return ncorr, nil
}

// ErrTooManyErrors is returned when the decoder detects an uncorrectable
// word (more than t symbol errors, or an inconsistent correction).
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

// Decode corrects up to t symbol errors in place semantics: it returns the
// corrected codeword (a fresh slice), the number of symbols corrected, and
// an error if the word is uncorrectable. The input is not modified.
func (c *Code) Decode(received []int) ([]int, int, error) {
	return c.DecodeErasures(received, nil)
}

// DecodeErasures corrects errors and erasures. erasures lists known-bad
// positions (0-based codeword indices, where index 0 is the lowest-order
// parity symbol and n-1 the last data symbol). An RS code corrects e
// erasures and v errors when 2v+e <= n-k.
func (c *Code) DecodeErasures(received []int, erasures []int) ([]int, int, error) {
	if len(received) != c.n {
		return nil, 0, fmt.Errorf("rs: decode needs %d symbols, got %d", c.n, len(received))
	}
	f := c.field
	np := c.n - c.k
	if len(erasures) > np {
		return nil, 0, ErrTooManyErrors
	}
	for _, e := range erasures {
		if e < 0 || e >= c.n {
			return nil, 0, fmt.Errorf("rs: erasure position %d out of range", e)
		}
	}
	syn, clean := c.Syndromes(received)
	if clean {
		out := make([]int, c.n)
		copy(out, received)
		return out, 0, nil
	}

	// Erasure locator: Gamma(x) = prod (1 - x·alpha^pos).
	gamma := []int{1}
	for _, pos := range erasures {
		gamma = f.PolyMul(gamma, []int{1, f.Alpha(pos)})
	}
	// Modified syndromes: Xi(x) = Gamma(x)·S(x) mod x^(n-k).
	xi := f.PolyMul(gamma, syn)
	if len(xi) > np {
		xi = xi[:np]
	} else {
		pad := make([]int, np)
		copy(pad, xi)
		xi = pad
	}

	// Berlekamp-Massey on the modified syndromes for the error locator.
	lambda := c.berlekampMassey(xi, len(erasures))
	// Full locator Psi = Lambda·Gamma.
	psi := f.PolyMul(lambda, gamma)
	nerr := gf.PolyDeg(psi)
	if nerr < 0 {
		return nil, 0, ErrTooManyErrors
	}
	// Bounded-distance guard: v errors plus e erasures are only
	// correctable when 2v+e <= n-k. Without this check a beyond-budget
	// received word can slip through Chien/Forney and the final syndrome
	// verification as a "successful" correction to a codeword at distance
	// greater than t — a miscorrection, not a decode.
	if v := nerr - len(erasures); v < 0 || 2*v+len(erasures) > np {
		return nil, 0, ErrTooManyErrors
	}

	// Chien search: roots of Psi give error positions.
	positions := make([]int, 0, nerr)
	for i := 0; i < c.n; i++ {
		// Position i has locator X = alpha^i; Psi(X^{-1}) == 0.
		if f.PolyEval(psi, f.Alpha(-i)) == 0 {
			positions = append(positions, i)
		}
	}
	if len(positions) != nerr {
		return nil, 0, ErrTooManyErrors
	}

	// Forney: error evaluator Omega(x) = S(x)·Psi(x) mod x^(n-k).
	omega := f.PolyMul(syn, psi)
	if len(omega) > np {
		omega = omega[:np]
	}
	// Formal derivative of Psi (char 2: odd-power terms survive).
	dpsi := make([]int, 0, len(psi))
	for i := 1; i < len(psi); i += 2 {
		// derivative coefficient for x^{i-1} is psi[i] (i odd).
		for len(dpsi) < i {
			dpsi = append(dpsi, 0)
		}
		dpsi = append(dpsi, 0)
		dpsi[i-1] = psi[i]
	}

	out := make([]int, c.n)
	copy(out, received)
	for _, pos := range positions {
		xinv := f.Alpha(-pos)
		den := f.PolyEval(dpsi, xinv)
		if den == 0 {
			return nil, 0, ErrTooManyErrors
		}
		num := f.PolyEval(omega, xinv)
		// e = X^{1-fcr} · Omega(X^{-1}) / Psi'(X^{-1})
		mag := f.Mul(f.Pow(f.Alpha(pos), 1-c.fcr), f.Div(num, den))
		out[pos] = f.Add(out[pos], mag)
	}

	// Verify the correction really yields a codeword.
	if _, ok := c.Syndromes(out); !ok {
		return nil, 0, ErrTooManyErrors
	}
	return out, len(positions), nil
}

// berlekampMassey runs the Berlekamp-Massey recursion over the (modified)
// syndromes, starting from an effective erasure count, and returns the
// error-locator polynomial Lambda.
func (c *Code) berlekampMassey(syn []int, numErasures int) []int {
	f := c.field
	lambda := []int{1}
	b := []int{1}
	l := 0
	m := 1
	bcoef := 1
	for n := 0; n < len(syn)-numErasures; n++ {
		// Discrepancy.
		d := syn[n+numErasures]
		for i := 1; i <= l && i < len(lambda); i++ {
			if n+numErasures-i >= 0 {
				d = f.Add(d, f.Mul(lambda[i], syn[n+numErasures-i]))
			}
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
