package rs

import (
	"math/rand"
	"testing"

	"mosaic/internal/coding/gf"
)

// TestCodewordLinearity: RS codes are linear — the sum (XOR) of two
// codewords is a codeword.
func TestCodewordLinearity(t *testing.T) {
	c := MustNew(gf.MustNew(8), 32, 24, 0)
	rng := rand.New(rand.NewSource(20))
	f := c.Field()
	for trial := 0; trial < 100; trial++ {
		a, _ := encode(c, randData(rng, c))
		b, _ := encode(c, randData(rng, c))
		sum := make([]int, c.N())
		for i := range sum {
			sum[i] = f.Add(a[i], b[i])
		}
		if !isCodeword(c, sum) {
			t.Fatal("sum of codewords is not a codeword")
		}
	}
}

// TestBurstErrors: a contiguous burst of up to t symbols is just t symbol
// errors — RS corrects it without interleaving.
func TestBurstErrors(t *testing.T) {
	c := MustNew(gf.MustNew(8), 64, 48, 0) // t=8
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		d := randData(rng, c)
		w, _ := encode(c, d)
		r := make([]int, len(w))
		copy(r, w)
		burstLen := 1 + rng.Intn(c.T())
		start := rng.Intn(c.N() - burstLen)
		for i := start; i < start+burstLen; i++ {
			r[i] ^= 1 + rng.Intn(255)
		}
		got, n, err := decode(c, r)
		if err != nil {
			t.Fatalf("burst of %d at %d: %v", burstLen, start, err)
		}
		if n != burstLen {
			// Some burst symbols may XOR to the original value; n <= burstLen.
			if n > burstLen {
				t.Fatalf("corrected %d > burst %d", n, burstLen)
			}
		}
		data := c.Data(got)
		for i := range d {
			if data[i] != d[i] {
				t.Fatal("burst decode corrupted data")
			}
		}
	}
}

// TestSystematicShiftInvariance: encoding all-zero data gives the zero
// codeword (linearity's identity).
func TestZeroCodeword(t *testing.T) {
	c := MustNew(gf.MustNew(10), 100, 80, 0)
	w, err := encode(c, make([]int, c.K()))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w {
		if s != 0 {
			t.Fatalf("zero data produced nonzero symbol at %d", i)
		}
	}
}

// TestScaledCodeword: scaling a codeword by a field constant keeps it a
// codeword (linearity over GF).
func TestScaledCodeword(t *testing.T) {
	c := MustNew(gf.MustNew(8), 32, 24, 0)
	f := c.Field()
	rng := rand.New(rand.NewSource(23))
	w, _ := encode(c, randData(rng, c))
	for _, k := range []int{2, 7, 255} {
		scaled := make([]int, len(w))
		for i, s := range w {
			scaled[i] = f.Mul(s, k)
		}
		if !isCodeword(c, scaled) {
			t.Fatalf("scaling by %d broke the codeword", k)
		}
	}
}

// TestDecodeAtExactlyTPlusOne: t+1 random errors must virtually never
// decode silently back to the *original* data.
func TestDecodeBeyondCapacityNeverRestoresSilently(t *testing.T) {
	c := MustNew(gf.MustNew(8), 24, 16, 0) // t=4
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		d := randData(rng, c)
		w, _ := encode(c, d)
		r := corrupt(rng, w, c.T()+1, 256)
		got, _, err := decode(c, r)
		if err != nil {
			continue // detected: fine
		}
		// Miscorrection happened (legal); it must not equal the original
		// (that would mean we "corrected" t+1 errors, impossible).
		same := true
		data := c.Data(got)
		for i := range d {
			if data[i] != d[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("decoded t+1 errors back to original data")
		}
	}
}
