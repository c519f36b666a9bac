package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllSupportedFieldsConstruct(t *testing.T) {
	for m := 3; m <= 16; m++ {
		f, err := New(m)
		if err != nil {
			t.Fatalf("GF(2^%d): %v", m, err)
		}
		if f.Size() != 1<<uint(m) || f.Order() != 1<<uint(m)-1 {
			t.Errorf("GF(2^%d): wrong size/order", m)
		}
	}
}

func TestUnsupportedField(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Error("GF(2^2) has no table entry; should error")
	}
	if _, err := New(17); err == nil {
		t.Error("GF(2^17) should error")
	}
}

func TestNonPrimitivePolyRejected(t *testing.T) {
	// x^4 + x^3 + x^2 + x + 1 divides x^5-1: period 5, not primitive.
	if _, err := NewWithPoly(4, 0b11111); err == nil {
		t.Error("non-primitive polynomial accepted")
	}
	// Wrong degree.
	if _, err := NewWithPoly(4, 0b100011101); err == nil {
		t.Error("degree-8 polynomial accepted for m=4")
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for _, m := range []int{4, 8, 10} {
		f := MustNew(m)
		for a := 1; a < f.Size(); a++ {
			if got := f.Alpha(int(f.log[a])); got != a {
				t.Fatalf("GF(2^%d): alpha^log(%d) = %d", m, a, got)
			}
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	f := MustNew(8)
	rng := rand.New(rand.NewSource(1))
	r := func() int { return rng.Intn(f.Size()) }
	rnz := func() int { return 1 + rng.Intn(f.Size()-1) }
	for i := 0; i < 5000; i++ {
		a, b, c := r(), r(), r()
		// Commutativity and associativity.
		if f.Mul(a, b) != f.Mul(b, a) {
			t.Fatal("mul not commutative")
		}
		if f.Mul(a, f.Mul(b, c)) != f.Mul(f.Mul(a, b), c) {
			t.Fatal("mul not associative")
		}
		// Distributivity.
		if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
			t.Fatal("not distributive")
		}
		// Identities.
		if f.Mul(a, 1) != a || f.Add(a, 0) != a {
			t.Fatal("identity broken")
		}
		// Characteristic 2.
		if f.Add(a, a) != 0 {
			t.Fatal("a+a != 0")
		}
		// Inverses.
		x := rnz()
		if f.Mul(x, f.Div(1, x)) != 1 {
			t.Fatal("x * x^-1 != 1")
		}
		if f.Div(f.Mul(a, x), x) != a {
			t.Fatal("div does not undo mul")
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	f := MustNew(10)
	mulDistributes := func(ra, rb, rc uint16) bool {
		a, b, c := int(ra)%f.Size(), int(rb)%f.Size(), int(rc)%f.Size()
		return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
	}
	if err := quick.Check(mulDistributes, nil); err != nil {
		t.Error(err)
	}
}

func TestDivInvPanics(t *testing.T) {
	f := MustNew(8)
	assertPanics(t, "Div by zero", func() { f.Div(3, 0) })
	assertPanics(t, "neg pow of zero", func() { f.Pow(0, -1) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestPow(t *testing.T) {
	f := MustNew(8)
	for a := 1; a < 20; a++ {
		acc := 1
		for n := 0; n < 10; n++ {
			if got := f.Pow(a, n); got != acc {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, acc)
			}
			acc = f.Mul(acc, a)
		}
	}
	if f.Pow(0, 0) != 1 || f.Pow(0, 5) != 0 {
		t.Error("powers of zero wrong")
	}
	// Fermat: a^(2^m - 1) = 1.
	for a := 1; a < f.Size(); a++ {
		if f.Pow(a, f.Order()) != 1 {
			t.Fatalf("a^order != 1 for a=%d", a)
		}
	}
}

func TestAlphaWraps(t *testing.T) {
	f := MustNew(8)
	if f.Alpha(0) != 1 {
		t.Error("alpha^0 != 1")
	}
	if f.Alpha(f.Order()) != 1 {
		t.Error("alpha^order != 1")
	}
	if f.Alpha(-1) != f.Div(1, f.Alpha(1)) {
		t.Error("alpha^-1 != inverse of alpha")
	}
}

func TestPolyEval(t *testing.T) {
	f := MustNew(8)
	// p(x) = 5 + 3x + x^2 at x=2: 5 ^ mul(3,2) ^ mul(2, 2)... compute directly.
	p := []int{5, 3, 1}
	want := f.Add(f.Add(5, f.Mul(3, 2)), f.Mul(1, f.Mul(2, 2)))
	if got := f.PolyEval(p, 2); got != want {
		t.Errorf("PolyEval = %d, want %d", got, want)
	}
	if f.PolyEval(nil, 7) != 0 {
		t.Error("empty polynomial should evaluate to 0")
	}
}

func TestPolyMulAddScale(t *testing.T) {
	f := MustNew(8)
	rng := rand.New(rand.NewSource(2))
	randPoly := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = rng.Intn(f.Size())
		}
		return p
	}
	for i := 0; i < 200; i++ {
		a, b := randPoly(1+rng.Intn(8)), randPoly(1+rng.Intn(8))
		x := rng.Intn(f.Size())
		// Evaluation homomorphism: (a*b)(x) = a(x)*b(x); (a+b)(x)=a(x)+b(x).
		if f.PolyEval(f.PolyMul(a, b), x) != f.Mul(f.PolyEval(a, x), f.PolyEval(b, x)) {
			t.Fatal("PolyMul breaks evaluation homomorphism")
		}
		if f.PolyEval(f.PolyAdd(a, b), x) != f.Add(f.PolyEval(a, x), f.PolyEval(b, x)) {
			t.Fatal("PolyAdd breaks evaluation homomorphism")
		}
	}
	if f.PolyMul(nil, []int{1, 2}) != nil {
		t.Error("zero polynomial times anything should be nil")
	}
}

func TestPolyDeg(t *testing.T) {
	if PolyDeg(nil) != -1 || PolyDeg([]int{0, 0}) != -1 {
		t.Error("zero polynomial degree should be -1")
	}
	if PolyDeg([]int{1}) != 0 || PolyDeg([]int{0, 5, 0}) != 1 {
		t.Error("degree wrong")
	}
}

func TestStringer(t *testing.T) {
	if MustNew(10).String() != "GF(2^10)" {
		t.Error("bad String")
	}
}

func BenchmarkMulGF10(b *testing.B) {
	f := MustNew(10)
	acc := 1
	for i := 0; i < b.N; i++ {
		acc = f.Mul(acc|1, (i&1023)|1)
	}
	_ = acc
}
