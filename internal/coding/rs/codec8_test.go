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
func hornerSyndromes(cd *Codec8, block []byte) (syn [maxParity8]byte) {
	for j := 0; j < cd.np; j++ {
		row := &cd.mul[byte(cd.field.Alpha(cd.fcr+j))]
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
					got, want := cd.diffSyndromes(cd.parityDiff(block)), hornerSyndromes(cd, block)
					if got != want {
						t.Fatalf("%v, %d errors in %s: parity-difference syndromes %v, Horner %v",
							c, nerr, reg.name, got, want)
					}
				}
			}
		}
	}
}

// TestCodec8CleanIsCodewordTest checks that Clean accepts exactly the
// codewords: every encode output passes, and any single-byte corruption
// fails (distance ≥ np+1 > 1 for all these codes).
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
			if !cd.Clean(block) {
				t.Fatalf("%v: Clean rejected a codeword", c)
			}
			pos := rng.Intn(n)
			block[pos] ^= byte(1 + rng.Intn(255))
			if cd.Clean(block) {
				t.Fatalf("%v: Clean accepted a corrupted block (byte %d)", c, pos)
			}
		}
	}
}

// TestCodec8DecodeMatchesReference drives the stack-array decoder and
// the general int-symbol decoder over identical received words with
// 0..t+2 errors — spanning clean, correctable, and overloaded blocks,
// the beyond-t patterns included — and requires identical bytes,
// correction counts, and accept/reject decisions.
func TestCodec8DecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range append(codec8Codes(t), wideCode) {
		cd := c.Codec8()
		n, k := c.N(), c.K()
		for trial := 0; trial < 300; trial++ {
			data := make([]int, k)
			for i := range data {
				data[i] = rng.Intn(256)
			}
			cw, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			nerr := rng.Intn(c.T() + 3)
			recv := append([]int(nil), cw...)
			for _, pos := range rng.Perm(n)[:nerr] {
				recv[pos] ^= 1 + rng.Intn(255)
			}
			refOut, refCorr, refErr := c.DecodeErasures(append([]int(nil), recv...), nil)

			blk := make([]byte, n)
			for i, s := range recv {
				blk[i] = byte(s)
			}
			got := append([]byte(nil), blk...)
			corr, err := cd.Decode(got)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("%v trial %d (%d errors): codec err %v, reference err %v",
					c, trial, nerr, err, refErr)
			}
			if err != nil {
				if !errors.Is(err, ErrTooManyErrors) {
					t.Fatalf("%v: unexpected error type %v", c, err)
				}
				// Uncorrectable: the block must be exactly as received.
				if !bytes.Equal(got, blk) {
					t.Fatalf("%v trial %d: failed decode modified the block", c, trial)
				}
				continue
			}
			if corr != refCorr {
				t.Fatalf("%v trial %d (%d errors): corrections %d, reference %d",
					c, trial, nerr, corr, refCorr)
			}
			for i := range refOut {
				if int(got[i]) != refOut[i] {
					t.Fatalf("%v trial %d: byte %d is %d, reference %d",
						c, trial, i, got[i], refOut[i])
				}
			}
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
