// Package gf implements arithmetic over the finite fields GF(2^m),
// 3 <= m <= 16, using log/antilog tables over a primitive element. It is
// the substrate for the Reed-Solomon codecs used both by the KP4/KR4
// Ethernet FEC baselines and by Mosaic's lightweight per-link FEC.
package gf

import (
	"fmt"
)

// Primitive polynomials for GF(2^m), m = 3..16, given as integers whose bit
// i is the coefficient of x^i (the x^m term included). These are the
// conventional choices (e.g. x^10+x^3+1 for GF(1024) as in RS(544,514)).
var primitivePolys = map[int]uint32{
	3:  0b1011,              // x^3+x+1
	4:  0b10011,             // x^4+x+1
	5:  0b100101,            // x^5+x^2+1
	6:  0b1000011,           // x^6+x+1
	7:  0b10001001,          // x^7+x^3+1
	8:  0b100011101,         // x^8+x^4+x^3+x^2+1 (AES-adjacent, standard RS-255)
	9:  0b1000010001,        // x^9+x^4+1
	10: 0b10000001001,       // x^10+x^3+1
	11: 0b100000000101,      // x^11+x^2+1
	12: 0b1000001010011,     // x^12+x^6+x^4+x+1
	13: 0b10000000011011,    // x^13+x^4+x^3+x+1
	14: 0b100010001000011,   // x^14+x^10+x^6+x+1
	15: 0b1000000000000011,  // x^15+x+1
	16: 0b10001000000001011, // x^16+x^12+x^3+x+1
}

// Field is a finite field GF(2^m). Construct with New. A Field is immutable
// and safe for concurrent use.
type Field struct {
	m    int
	size int // 2^m
	mask int // 2^m - 1 (order of the multiplicative group)
	poly uint32
	exp  []uint16 // exp[i] = alpha^i, doubled length to avoid mod in Mul
	log  []uint16 // log[x] = i such that alpha^i = x; log[0] unused
}

// New returns the field GF(2^m) built over the package's primitive
// polynomial for m. It returns an error for unsupported m.
func New(m int) (*Field, error) {
	poly, ok := primitivePolys[m]
	if !ok {
		return nil, fmt.Errorf("gf: unsupported field GF(2^%d)", m)
	}
	return NewWithPoly(m, poly)
}

// MustNew is New but panics on error; for package-level defaults.
func MustNew(m int) *Field {
	f, err := New(m)
	if err != nil {
		panic(err)
	}
	return f
}

// NewWithPoly builds GF(2^m) over a caller-supplied primitive polynomial
// (bit i = coefficient of x^i, degree exactly m). It verifies that the
// polynomial generates the full multiplicative group and returns an error
// otherwise.
func NewWithPoly(m int, poly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("gf: m=%d out of range [2,16]", m)
	}
	if poly>>uint(m) != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not have degree %d", poly, m)
	}
	f := &Field{
		m:    m,
		size: 1 << uint(m),
		mask: 1<<uint(m) - 1,
		poly: poly,
	}
	f.exp = make([]uint16, 2*f.mask)
	f.log = make([]uint16, f.size)
	x := 1
	for i := 0; i < f.mask; i++ {
		if x == 1 && i != 0 {
			return nil, fmt.Errorf("gf: polynomial %#x is not primitive for m=%d (period %d)", poly, m, i)
		}
		f.exp[i] = uint16(x)
		f.log[x] = uint16(i)
		x <<= 1
		if x&f.size != 0 {
			x ^= int(poly)
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x is not primitive for m=%d", poly, m)
	}
	// Double the exp table so Mul can skip the modular reduction.
	copy(f.exp[f.mask:], f.exp[:f.mask])
	return f, nil
}

// M returns the field's extension degree m.
func (f *Field) M() int { return f.m }

// Size returns the number of field elements, 2^m.
func (f *Field) Size() int { return f.size }

// Order returns the order of the multiplicative group, 2^m - 1.
func (f *Field) Order() int { return f.mask }

// Alpha returns the primitive element's i-th power, alpha^i (i may be any
// integer; negative exponents wrap).
func (f *Field) Alpha(i int) int {
	i %= f.mask
	if i < 0 {
		i += f.mask
	}
	return int(f.exp[i])
}

// Add returns a+b (which equals a-b) in the field.
func (f *Field) Add(a, b int) int { return a ^ b }

// Mul returns a·b in the field.
func (f *Field) Mul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return int(f.exp[int(f.log[a])+int(f.log[b])])
}

// Div returns a/b. It panics if b is zero (a programming error, like
// integer division by zero).
func (f *Field) Div(a, b int) int {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(f.log[a]) - int(f.log[b])
	if d < 0 {
		d += f.mask
	}
	return int(f.exp[d])
}

// Pow returns a^n (n may be negative if a != 0; 0^0 = 1).
func (f *Field) Pow(a, n int) int {
	if a == 0 {
		if n == 0 {
			return 1
		}
		if n < 0 {
			panic("gf: negative power of zero")
		}
		return 0
	}
	e := (int(f.log[a]) * (n % f.mask)) % f.mask
	if e < 0 {
		e += f.mask
	}
	return int(f.exp[e])
}

// PolyEval evaluates the polynomial p (p[i] = coefficient of x^i) at x
// using Horner's rule.
func (f *Field) PolyEval(p []int, x int) int {
	acc := 0
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}

// PolyMul returns the product of polynomials a and b (coefficients low to
// high). The zero polynomial is represented by an empty slice.
func (f *Field) PolyMul(a, b []int) []int {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]int, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= f.Mul(ai, bj)
		}
	}
	return out
}

// PolyAdd returns a+b.
func (f *Field) PolyAdd(a, b []int) []int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int, n)
	copy(out, a)
	for i, bi := range b {
		out[i] ^= bi
	}
	return out
}

// PolyDeg returns the degree of p, or -1 for the zero polynomial.
func PolyDeg(p []int) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// String identifies the field.
func (f *Field) String() string {
	return fmt.Sprintf("GF(2^%d)", f.m)
}
