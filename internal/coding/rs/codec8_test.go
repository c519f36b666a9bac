package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"mosaic/internal/coding/gf"
)

// codec8Codes lists the GF(2^8) codes inside the fast-codec envelope
// that the PHY actually runs.
func codec8Codes(t *testing.T) []*Code {
	t.Helper()
	var out []*Code
	for _, p := range [][2]int{{68, 64}, {24, 18}, {15, 11}} {
		c, err := Lite(p[0], p[1])
		if err != nil {
			t.Fatalf("Lite(%d,%d): %v", p[0], p[1], err)
		}
		out = append(out, c)
	}
	return out
}

// wideCode fills the envelope's corners the PHY's codes leave open: all
// eight parity bytes (the register fills its word, no alignment shift)
// and a first consecutive root other than alpha^0.
var wideCode = MustNew(gf.MustNew(8), 40, 32, 1)

func TestCodec8Envelope(t *testing.T) {
	for _, c := range codec8Codes(t) {
		cd := c.Codec8()
		if cd == nil {
			t.Fatalf("%v: inside the envelope but Codec8() == nil", c)
		}
		if cd.n != c.N() || cd.k != c.K() || cd.np != c.Parity() {
			t.Errorf("%v: codec geometry %d/%d/%d != code %d/%d/%d",
				c, cd.n, cd.k, cd.np, c.N(), c.K(), c.Parity())
		}
		if c.Codec8() != cd {
			t.Errorf("%v: Codec8 not cached", c)
		}
	}
	// KP4 lives in GF(2^10): outside the byte-domain envelope.
	if KP4().Codec8() != nil {
		t.Error("KP4 (m=10) should have no byte-domain fast codec")
	}
}

// TestCodec8TablesFitL1 holds the codec's inline tables (the sliced
// encode tables and synPow; the shared 64 KB product table hangs off a
// pointer) to 24 KB for any k: the encoder runs beside the stream it
// encodes in a 32-48 KB L1d.
func TestCodec8TablesFitL1(t *testing.T) {
	if sz := unsafe.Sizeof(Codec8{}); sz > 24<<10 {
		t.Fatalf("Codec8 is %d bytes inline, want <= %d", sz, 24<<10)
	}
}

// TestCodec8EncodeParityMatchesLFSR pins the sliced-table encoder
// against the general LFSR encoder (Code.EncodeTo) at every data length
// 1..k — each length%8 top word and each count of eight-byte steps —
// where the implicit zero padding of a short slice must contribute
// nothing.
func TestCodec8EncodeParityMatchesLFSR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range append(codec8Codes(t), wideCode) {
		cd := c.Codec8()
		n, k, np := c.N(), c.K(), c.Parity()
		ref := make([]int, n)
		data := make([]int, k)
		parity := make([]byte, np)
		for dlen := 1; dlen <= k; dlen++ {
			for trial := 0; trial < 8; trial++ {
				dataB := make([]byte, dlen)
				rng.Read(dataB)
				for i := range data {
					data[i] = 0
					if i < dlen {
						data[i] = int(dataB[i])
					}
				}
				if err := c.EncodeTo(ref, data); err != nil {
					t.Fatalf("%v: EncodeTo: %v", c, err)
				}
				cd.EncodeParity(parity, dataB)
				for j := 0; j < np; j++ {
					if int(parity[j]) != ref[j] {
						t.Fatalf("%v dlen %d trial %d: parity[%d] = %d, LFSR says %d",
							c, dlen, trial, j, parity[j], ref[j])
					}
				}
			}
		}
	}
}

// hornerSyndromes is the definition diffSyndromes replaced: each
// syndrome is the whole received block evaluated at alpha^(fcr+j) by
// Horner's rule, one dependent product per byte.
func hornerSyndromes(cd *Codec8, f *gf.Field, block []byte) (syn [maxParity8]byte) {
	for j := 0; j < cd.np; j++ {
		row := &cd.mul[byte(f.Alpha(cd.fcr+j))]
		var acc byte
		for i := cd.n - 1; i >= 0; i-- {
			acc = row[acc] ^ block[i]
		}
		syn[j] = acc
	}
	return syn
}

// TestCodec8DiffSyndromesMatchHorner checks that the syndromes taken
// from the np-byte parity difference are the Horner syndromes of the
// whole block, value for value, for 0..np+2 errors anywhere, errors
// confined to the parity bytes, and errors confined to the data bytes.
func TestCodec8DiffSyndromesMatchHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range append(codec8Codes(t), wideCode) {
		cd := c.Codec8()
		n, np := c.N(), c.Parity()
		regions := []struct {
			name   string
			lo, hi int
		}{{"anywhere", 0, n}, {"parity", 0, np}, {"data", np, n}}
		for _, reg := range regions {
			for nerr := 0; nerr <= np+2 && nerr <= reg.hi-reg.lo; nerr++ {
				for trial := 0; trial < 50; trial++ {
					block := make([]byte, n)
					rng.Read(block[np:])
					cd.EncodeParity(block, block[np:])
					for _, pos := range rng.Perm(reg.hi - reg.lo)[:nerr] {
						block[reg.lo+pos] ^= byte(1 + rng.Intn(255))
					}
					got, want := cd.diffSyndromes(cd.parityDiff(block)), hornerSyndromes(cd, c.Field(), block)
					if got != want {
						t.Fatalf("%v, %d errors in %s: parity-difference syndromes %v, Horner %v",
							c, nerr, reg.name, got, want)
					}
				}
			}
		}
	}
}

// parityDiff returns received parity XOR re-encoded parity, packed like
// parityWord: zero exactly when block is a codeword, since a systematic
// codeword's parity is exactly the encoder's output for its data bytes.
func (cd *Codec8) parityDiff(block []byte) uint64 {
	var recv uint64
	for j := 0; j < cd.np; j++ {
		recv |= uint64(block[j]) << (8 * uint(j))
	}
	return recv ^ cd.parityWord(block[cd.np:])
}

// TestCodec8CleanIsCodewordTest checks that a zero parity difference
// marks exactly the codewords — every encode output is clean, any
// single-byte corruption is not (distance ≥ np+1 > 1 for all these
// codes) — and that Decode leaves a codeword's data as it is.
func TestCodec8CleanIsCodewordTest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, c := range codec8Codes(t) {
		cd := c.Codec8()
		n, k := c.N(), c.K()
		for trial := 0; trial < 100; trial++ {
			data := make([]byte, k)
			rng.Read(data)
			block := make([]byte, n)
			cd.EncodeParity(block[:n-k], data)
			copy(block[n-k:], data)
			if cd.parityDiff(block) != 0 {
				t.Fatalf("%v: a codeword has a parity difference", c)
			}
			got := append([]byte(nil), data...)
			if corr, err := cd.Decode(got, block); err != nil || corr != 0 || !bytes.Equal(got, data) {
				t.Fatalf("%v: Decode of a codeword made %d corrections, %v", c, corr, err)
			}
			pos := rng.Intn(n)
			block[pos] ^= byte(1 + rng.Intn(255))
			if cd.parityDiff(block) == 0 {
				t.Fatalf("%v: a corrupted block (byte %d) has no parity difference", c, pos)
			}
		}
	}
}

// TestCodec8DecodeMatchesReference drives the stack-array decoder and
// the general int-symbol decoder over identical received words with
// 0..t+2 errors — spanning clean, correctable, and overloaded blocks,
// the beyond-t patterns included — and requires identical bytes,
// correction counts, and accept/reject decisions, with the received
// block never written. Data bytes suffice: a codeword's data fixes its
// parity, and Decode verifies it corrected to a codeword.
func TestCodec8DecodeMatchesReference(t *testing.T) {
	// After the 300 mixed trials per code, overloaded blocks only: on
	// RS(68,64) about one in 900 of them gets through Berlekamp-Massey and
	// Forney and is refused by the final verification alone.
	const overloaded = 5000
	rng := rand.New(rand.NewSource(9))
	for _, c := range append(codec8Codes(t), wideCode) {
		cd := c.Codec8()
		n, k := c.N(), c.K()
		for trial := 0; trial < 300+overloaded; trial++ {
			data := make([]int, k)
			for i := range data {
				data[i] = rng.Intn(256)
			}
			cw, err := encode(c, data)
			if err != nil {
				t.Fatal(err)
			}
			var nerr int
			if trial < 300 {
				nerr = rng.Intn(c.T() + 3)
			} else {
				nerr = c.T() + 1 + rng.Intn(c.Parity())
			}
			recv := append([]int(nil), cw...)
			for _, pos := range rng.Perm(n)[:nerr] {
				recv[pos] ^= 1 + rng.Intn(255)
			}
			refOut, refCorr, refErr := decode(c, append([]int(nil), recv...))

			blk := make([]byte, n)
			for i, s := range recv {
				blk[i] = byte(s)
			}
			got := append([]byte(nil), blk...)
			out := append([]byte(nil), blk[n-k:]...)
			corr, err := cd.Decode(out, got)
			if !bytes.Equal(got, blk) {
				t.Fatalf("%v trial %d: Decode wrote the received block", c, trial)
			}
			if (err != nil) != (refErr != nil) {
				t.Fatalf("%v trial %d (%d errors): codec err %v, reference err %v",
					c, trial, nerr, err, refErr)
			}
			if err != nil {
				if !errors.Is(err, ErrTooManyErrors) {
					t.Fatalf("%v: unexpected error type %v", c, err)
				}
				// Uncorrectable: the data passes through as received.
				if corr != 0 || !bytes.Equal(out, blk[n-k:]) {
					t.Fatalf("%v trial %d: failed decode returned %d corrections and other data", c, trial, corr)
				}
				continue
			}
			if corr != refCorr {
				t.Fatalf("%v trial %d (%d errors): corrections %d, reference %d",
					c, trial, nerr, corr, refCorr)
			}
			for i, b := range out {
				if int(b) != refOut[n-k+i] {
					t.Fatalf("%v trial %d: data byte %d is %d, reference %d",
						c, trial, i, b, refOut[n-k+i])
				}
			}
		}
	}
}

// chienPositions is the definition errorPositions' closed forms
// replaced: every position i < n where the locator vanishes at
// alpha^-i, in ascending order.
func chienPositions(cd *Codec8, lambda *[2*maxParity8 + 2]byte, nerr int) []int {
	var out []int
	for i := 0; i < cd.n; i++ {
		if cd.polyEval8(lambda, nerr+1, cd.xinv[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// TestCodec8ClosedFormMatchesScan tries every degree-1 locator 1 + Λ1·x
// and every degree-2 locator 1 + Λ1·x + Λ2·x² — Λ1 = 0 double roots,
// irreducible quadratics and roots at positions ≥ n of the shortened
// codes included — on every code in the envelope, and wants
// errorPositions to accept exactly the locators whose scan finds as many
// positions as the degree, with those positions in the same order.
func TestCodec8ClosedFormMatchesScan(t *testing.T) {
	for _, c := range append(codec8Codes(t), wideCode) {
		cd := c.Codec8()
		var accepted [3]int
		check := func(lambda *[2*maxParity8 + 2]byte, nerr int) {
			var pos [maxParity8]int
			ok := cd.errorPositions(lambda, nerr, &pos)
			want := chienPositions(cd, lambda, nerr)
			if ok != (len(want) == nerr) {
				t.Fatalf("%v: locator %v: closed form accepts %v, scan finds %v", c, lambda[:nerr+1], ok, want)
			}
			if !ok {
				return
			}
			accepted[nerr]++
			for i, p := range want {
				if pos[i] != p {
					t.Fatalf("%v: locator %v: closed form says %v, scan %v", c, lambda[:nerr+1], pos[:nerr], want)
				}
			}
		}
		var lambda [2*maxParity8 + 2]byte
		lambda[0] = 1
		for l1 := 1; l1 < 256; l1++ {
			lambda[1] = byte(l1)
			check(&lambda, 1)
		}
		for l1 := 0; l1 < 256; l1++ {
			for l2 := 1; l2 < 256; l2++ {
				lambda[1], lambda[2] = byte(l1), byte(l2)
				check(&lambda, 2)
			}
		}
		// Each position pair of the code is one split locator: n and
		// n·(n-1)/2 of them.
		if n := c.N(); accepted[1] != n || accepted[2] != n*(n-1)/2 {
			t.Errorf("%v: accepted %d degree-1 and %d degree-2 locators, want %d and %d",
				c, accepted[1], accepted[2], n, n*(n-1)/2)
		}
	}
}

func TestCachedCodeSharesInstances(t *testing.T) {
	a, err := Lite(68, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lite(68, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Lite(68,64) returned distinct codes; want one shared instance")
	}
	if KP4() != KP4() {
		t.Error("KP4 not cached")
	}
	if _, err := Lite(3, 5); err == nil {
		t.Error("Lite(3,5) (k >= n) should error")
	}
}
