package rs

import (
	"errors"
	"math/rand"
	"testing"

	"mosaic/internal/coding/gf"
)

func TestMustNew(t *testing.T) {
	c := MustNew(gf.MustNew(8), 68, 64, 0)
	if c.T() != 2 {
		t.Fatalf("MustNew(68,64) t=%d, want 2", c.T())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with k >= n did not panic")
		}
	}()
	MustNew(gf.MustNew(8), 10, 10, 0)
}

// TestEncodeTo checks that the encoder writes the systematic codeword of
// its data — the data in place, syndromes all zero, whatever out held
// before — and exercises every argument-validation path.
func TestEncodeTo(t *testing.T) {
	c, err := Lite(24, 18)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	out := make([]int, c.N())
	for trial := 0; trial < 50; trial++ {
		data := randData(rng, c)
		for i := range out {
			out[i] = rng.Intn(256)
		}
		if err := c.EncodeTo(out, data); err != nil {
			t.Fatal(err)
		}
		if !isCodeword(c, out) {
			t.Fatal("EncodeTo wrote a word with nonzero syndromes")
		}
		for i, s := range c.Data(out) {
			if s != data[i] {
				t.Fatalf("EncodeTo moved data symbol %d", i)
			}
		}
	}
	if err := c.EncodeTo(out, make([]int, c.K()-1)); err == nil {
		t.Error("short data accepted")
	}
	if err := c.EncodeTo(make([]int, c.N()-1), make([]int, c.K())); err == nil {
		t.Error("short out accepted")
	}
	bad := make([]int, c.K())
	bad[3] = 256
	if err := c.EncodeTo(out, bad); err == nil {
		t.Error("out-of-range symbol accepted")
	}
}

// TestDecodeTo covers the clean fast path, the correction fallback, the
// uncorrectable path, and the scratch-length validation.
func TestDecodeTo(t *testing.T) {
	c, err := Lite(24, 18)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	out := make([]int, c.N())
	syn := make([]int, c.N()-c.K())
	for trial := 0; trial < 50; trial++ {
		cw, err := encode(c, randData(rng, c))
		if err != nil {
			t.Fatal(err)
		}
		for nerr := 0; nerr <= c.T(); nerr++ {
			recv := corrupt(rng, cw, nerr, c.Field().Size())
			ncorr, err := c.DecodeTo(out, recv, syn)
			if err != nil {
				t.Fatalf("%d errors: %v", nerr, err)
			}
			if ncorr != nerr {
				t.Fatalf("corrected %d symbols, injected %d", ncorr, nerr)
			}
			for i := range out {
				if out[i] != cw[i] {
					t.Fatalf("%d errors: symbol %d not restored", nerr, i)
				}
			}
		}
	}
	// Uncorrectable: overwhelm the code and require an explicit error.
	cw, _ := encode(c, randData(rng, c))
	uncorrectableSeen := false
	for trial := 0; trial < 20 && !uncorrectableSeen; trial++ {
		recv := corrupt(rng, cw, c.T()+2, c.Field().Size())
		if _, err := c.DecodeTo(out, recv, syn); errors.Is(err, ErrTooManyErrors) {
			uncorrectableSeen = true
		}
	}
	if !uncorrectableSeen {
		t.Error("t+2 errors never reported as uncorrectable")
	}
	if _, err := c.DecodeTo(out, make([]int, c.N()-1), syn); err == nil {
		t.Error("short received accepted")
	}
	if _, err := c.DecodeTo(out, make([]int, c.N()), make([]int, 1)); err == nil {
		t.Error("short syndrome scratch accepted")
	}
}

// TestDecodeErasureBounds holds the decoder to its 2v <= n-k budget on an
// even and an odd n-k: t errors — all in the parity, all in the data, or
// anywhere — are corrected, and no word with t+1 errors decodes to a
// codeword more than t symbols from it. Over GF(16) about one such word
// in a hundred has a degree-(t+1) locator with t+1 roots that Forney turns
// into a codeword, so only the bounded-distance guard refuses it. (The name is from when it held
// the erasure decoder to its 2v+e <= n-k budget; that decoder is gone.)
func TestDecodeErasureBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, c := range []*Code{MustNew(gf.MustNew(8), 24, 18, 0), MustNew(gf.MustNew(8), 23, 18, 0), MustNew(gf.MustNew(4), 15, 11, 0)} {
		np := c.Parity()
		for trial := 0; trial < 300; trial++ {
			cw, err := encode(c, randData(rng, c))
			if err != nil {
				t.Fatal(err)
			}
			inData := rng.Perm(c.K())
			for i := range inData {
				inData[i] += np
			}
			for _, where := range [][]int{rng.Perm(np), rng.Perm(c.N()), inData} {
				recv := append([]int(nil), cw...)
				for _, p := range where[:c.T()] {
					recv[p] ^= 1 + rng.Intn(c.Field().Size()-1)
				}
				fixed, ncorr, err := decode(c, recv)
				if err != nil || ncorr != c.T() {
					t.Fatalf("%v: t errors at %v: corrected %d, err %v", c, where[:c.T()], ncorr, err)
				}
				for i := range fixed {
					if fixed[i] != cw[i] {
						t.Fatalf("%v: t errors: symbol %d not restored", c, i)
					}
				}
			}
			recv := corrupt(rng, cw, c.T()+1, c.Field().Size())
			if fixed, ncorr, err := decode(c, recv); err == nil {
				dist := 0
				for i := range fixed {
					if fixed[i] != recv[i] {
						dist++
					}
				}
				if ncorr > c.T() || dist > c.T() {
					t.Fatalf("%v: t+1 errors decoded %d symbols away (%d claimed)", c, dist, ncorr)
				}
			}
		}
	}
}

// TestBoundedDistanceGuard pins the miscorrection bug found by
// FuzzRSLiteDecode: a received word at distance t+1 from a codeword must
// never decode "successfully" to that codeword — bounded-distance decoding
// only claims the radius-t ball.
func TestBoundedDistanceGuard(t *testing.T) {
	c, err := Lite(68, 64) // t = 2
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 200; trial++ {
		cw, err := encode(c, randData(rng, c))
		if err != nil {
			t.Fatal(err)
		}
		recv := corrupt(rng, cw, c.T()+1, c.Field().Size())
		fixed, ncorr, err := decode(c, recv)
		if err != nil {
			continue // detected as uncorrectable: correct behavior
		}
		// A successful decode must have landed on a codeword within
		// distance t of the received word — never further.
		if ncorr > c.T() {
			t.Fatalf("decoder claimed %d corrections with t=%d", ncorr, c.T())
		}
		dist := 0
		for i := range fixed {
			if fixed[i] != recv[i] {
				dist++
			}
		}
		if dist > c.T() {
			t.Fatalf("decoder accepted a codeword at distance %d with t=%d", dist, c.T())
		}
	}
}
