package rs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mosaic/internal/coding/gf"
)

func randData(rng *rand.Rand, c *Code) []int {
	d := make([]int, c.K())
	for i := range d {
		d[i] = rng.Intn(c.Field().Size())
	}
	return d
}

func corrupt(rng *rand.Rand, word []int, nerr, size int) []int {
	out := make([]int, len(word))
	copy(out, word)
	positions := rng.Perm(len(word))[:nerr]
	for _, p := range positions {
		old := out[p]
		for out[p] == old {
			out[p] = rng.Intn(size)
		}
	}
	return out
}

func TestConstructors(t *testing.T) {
	if KP4().T() != 15 || KP4().N() != 544 || KP4().K() != 514 {
		t.Error("KP4 parameters wrong")
	}
	lite, err := Lite(68, 64)
	if err != nil || lite.T() != 2 {
		t.Errorf("Lite(68,64): %v, t=%d", err, lite.T())
	}
	if _, err := New(gf.MustNew(8), 300, 100, 0); err == nil {
		t.Error("n > field order accepted")
	}
	if _, err := New(gf.MustNew(8), 100, 100, 0); err == nil {
		t.Error("k >= n accepted")
	}
	if _, err := New(nil, 10, 5, 0); err == nil {
		t.Error("nil field accepted")
	}
}

func TestEncodeProducesCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*Code{MustNew(gf.MustNew(8), 20, 12, 0), KP4()} {
		for i := 0; i < 20; i++ {
			w, err := c.Encode(randData(rng, c))
			if err != nil {
				t.Fatal(err)
			}
			if len(w) != c.N() {
				t.Fatalf("codeword length %d != n %d", len(w), c.N())
			}
			if _, clean := c.Syndromes(w); !clean {
				t.Fatal("encoded word has nonzero syndromes")
			}
		}
	}
}

func TestEncodeSystematic(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 0)
	rng := rand.New(rand.NewSource(2))
	d := randData(rng, c)
	w, err := c.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Data(w)
	for i := range d {
		if got[i] != d[i] {
			t.Fatalf("systematic data mismatch at %d", i)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 0)
	if _, err := c.Encode(make([]int, 5)); err == nil {
		t.Error("short data accepted")
	}
	bad := make([]int, 12)
	bad[3] = 999
	if _, err := c.Encode(bad); err == nil {
		t.Error("out-of-range symbol accepted")
	}
}

func TestDecodeCleanWord(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 0)
	rng := rand.New(rand.NewSource(3))
	w, _ := c.Encode(randData(rng, c))
	got, n, err := c.Decode(w)
	if err != nil || n != 0 {
		t.Fatalf("clean decode: n=%d err=%v", n, err)
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatal("clean word modified")
		}
	}
}

func TestDecodeCorrectsUpToT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	codes := []*Code{
		MustNew(gf.MustNew(8), 20, 12, 0),   // t=4
		MustNew(gf.MustNew(8), 68, 64, 0),   // t=2, the Mosaic-lite class
		MustNew(gf.MustNew(10), 100, 80, 0), // t=10
	}
	for _, c := range codes {
		for trial := 0; trial < 50; trial++ {
			d := randData(rng, c)
			w, _ := c.Encode(d)
			nerr := 1 + rng.Intn(c.T())
			r := corrupt(rng, w, nerr, c.Field().Size())
			got, n, err := c.Decode(r)
			if err != nil {
				t.Fatalf("%v: decode failed with %d errors: %v", c, nerr, err)
			}
			if n != nerr {
				t.Fatalf("%v: corrected %d, injected %d", c, n, nerr)
			}
			data := c.Data(got)
			for i := range d {
				if data[i] != d[i] {
					t.Fatalf("%v: data corrupted after decode", c)
				}
			}
		}
	}
}

func TestDecodeKP4FullLoad(t *testing.T) {
	c := KP4()
	rng := rand.New(rand.NewSource(5))
	d := randData(rng, c)
	w, _ := c.Encode(d)
	r := corrupt(rng, w, c.T(), c.Field().Size()) // all 15 errors
	got, n, err := c.Decode(r)
	if err != nil || n != c.T() {
		t.Fatalf("KP4 at full load: n=%d err=%v", n, err)
	}
	data := c.Data(got)
	for i := range d {
		if data[i] != d[i] {
			t.Fatal("KP4 data corrupted")
		}
	}
}

func TestDecodeDetectsOverload(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 0) // t=4
	rng := rand.New(rand.NewSource(6))
	detected := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		w, _ := c.Encode(randData(rng, c))
		r := corrupt(rng, w, c.T()+3, c.Field().Size())
		if _, _, err := c.Decode(r); err != nil {
			detected++
		}
	}
	// Beyond-capacity words are usually flagged (miscorrection is rare but
	// legal for RS). Require a strong majority detected.
	if detected < trials*80/100 {
		t.Errorf("only %d/%d overloaded words detected", detected, trials)
	}
}

func TestDecodeErasuresOnly(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 0) // n-k = 8: up to 8 erasures
	rng := rand.New(rand.NewSource(7))
	d := randData(rng, c)
	w, _ := c.Encode(d)
	r := make([]int, len(w))
	copy(r, w)
	erasures := []int{1, 4, 9, 13, 17, 19, 0, 6}
	for _, p := range erasures {
		r[p] = rng.Intn(c.Field().Size())
	}
	got, _, err := c.DecodeErasures(r, erasures)
	if err != nil {
		t.Fatalf("erasure decode: %v", err)
	}
	data := c.Data(got)
	for i := range d {
		if data[i] != d[i] {
			t.Fatal("erasure decode corrupted data")
		}
	}
}

func TestDecodeErrorsAndErasures(t *testing.T) {
	c := MustNew(gf.MustNew(8), 24, 16, 0) // n-k=8: 2v+e<=8
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		d := randData(rng, c)
		w, _ := c.Encode(d)
		r := make([]int, len(w))
		copy(r, w)
		// 2 errors + 4 erasures: 2*2+4 = 8 = n-k, exactly at capacity.
		perm := rng.Perm(c.N())
		erasures := perm[:4]
		errsAt := perm[4:6]
		for _, p := range erasures {
			r[p] = rng.Intn(c.Field().Size())
		}
		for _, p := range errsAt {
			old := r[p]
			for r[p] == old {
				r[p] = rng.Intn(c.Field().Size())
			}
		}
		got, _, err := c.DecodeErasures(r, erasures)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		data := c.Data(got)
		for i := range d {
			if data[i] != d[i] {
				t.Fatalf("trial %d: data corrupted", trial)
			}
		}
	}
}

func TestDecodeErasureValidation(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 0)
	w, _ := c.Encode(make([]int, 12))
	if _, _, err := c.DecodeErasures(w, []int{25}); err == nil {
		t.Error("out-of-range erasure accepted")
	}
	if _, _, err := c.DecodeErasures(w, make([]int, 9)); err == nil {
		t.Error("too many erasures accepted")
	}
	if _, _, err := c.Decode(make([]int, 3)); err == nil {
		t.Error("short word accepted")
	}
}

func TestDecodeInputNotModified(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 0)
	rng := rand.New(rand.NewSource(9))
	w, _ := c.Encode(randData(rng, c))
	r := corrupt(rng, w, 2, 256)
	snapshot := make([]int, len(r))
	copy(snapshot, r)
	if _, _, err := c.Decode(r); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if r[i] != snapshot[i] {
			t.Fatal("Decode modified its input")
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	c := MustNew(gf.MustNew(8), 32, 24, 0) // t=4
	rng := rand.New(rand.NewSource(10))
	prop := func(seed int64, rawN uint8) bool {
		local := rand.New(rand.NewSource(seed))
		d := randData(local, c)
		w, err := c.Encode(d)
		if err != nil {
			return false
		}
		nerr := int(rawN) % (c.T() + 1)
		r := w
		if nerr > 0 {
			r = corrupt(local, w, nerr, 256)
		}
		got, n, err := c.Decode(r)
		if err != nil || n != nerr {
			return false
		}
		data := c.Data(got)
		for i := range d {
			if data[i] != d[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestOverheadFraction(t *testing.T) {
	if got := KP4().OverheadFraction(); got < 0.058 || got > 0.059 {
		t.Errorf("KP4 overhead = %v, want ~5.84%%", got)
	}
	lite, _ := Lite(68, 64)
	if got := lite.OverheadFraction(); got != 4.0/64.0 {
		t.Errorf("Lite overhead = %v", got)
	}
}

func TestNonzeroFCR(t *testing.T) {
	c := MustNew(gf.MustNew(8), 20, 12, 1) // fcr=1 variant
	rng := rand.New(rand.NewSource(11))
	d := randData(rng, c)
	w, _ := c.Encode(d)
	r := corrupt(rng, w, 3, 256)
	got, n, err := c.Decode(r)
	if err != nil || n != 3 {
		t.Fatalf("fcr=1 decode: n=%d err=%v", n, err)
	}
	data := c.Data(got)
	for i := range d {
		if data[i] != d[i] {
			t.Fatal("fcr=1 data corrupted")
		}
	}
}

func TestStringer(t *testing.T) {
	if KP4().String() != "RS(544,514)/GF(2^10)" {
		t.Errorf("String = %q", KP4().String())
	}
}

func BenchmarkKP4Encode(b *testing.B) {
	c := KP4()
	rng := rand.New(rand.NewSource(1))
	d := randData(rng, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(d); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(c.K() * 10 / 8))
}

func BenchmarkKP4DecodeWorstCase(b *testing.B) {
	c := KP4()
	rng := rand.New(rand.NewSource(1))
	w, _ := c.Encode(randData(rng, c))
	r := corrupt(rng, w, c.T(), c.Field().Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decode(r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(c.K() * 10 / 8))
}

func BenchmarkLiteDecode(b *testing.B) {
	c, _ := Lite(68, 64)
	rng := rand.New(rand.NewSource(1))
	w, _ := c.Encode(randData(rng, c))
	r := corrupt(rng, w, c.T(), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Decode(r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(c.K()))
}
