package hamming

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// flipDataBit returns cw with data bit i flipped.
func flipDataBit(cw Codeword, i int) Codeword {
	cw.Data ^= 1 << uint(i%64)
	return cw
}

// flipCheckBit returns cw with check bit i flipped.
func flipCheckBit(cw Codeword, i int) Codeword {
	cw.Check ^= 1 << uint(i%8)
	return cw
}

func TestCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := rng.Uint64()
		got, res, err := Decode(Encode(d))
		if err != nil || res != Clean || got != d {
			t.Fatalf("clean decode of %#x: got %#x res=%v err=%v", d, got, res, err)
		}
	}
}

func TestCorrectsEverySingleDataBit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		d := rng.Uint64()
		cw := Encode(d)
		for bit := 0; bit < 64; bit++ {
			got, res, err := Decode(flipDataBit(cw, bit))
			if err != nil || res != Corrected {
				t.Fatalf("bit %d: res=%v err=%v", bit, res, err)
			}
			if got != d {
				t.Fatalf("bit %d: data not corrected", bit)
			}
		}
	}
}

func TestCorrectsEveryCheckBit(t *testing.T) {
	d := uint64(0x0123456789abcdef)
	cw := Encode(d)
	for bit := 0; bit < 8; bit++ {
		got, res, err := Decode(flipCheckBit(cw, bit))
		if err != nil || res != Corrected {
			t.Fatalf("check bit %d: res=%v err=%v", bit, res, err)
		}
		if got != d {
			t.Fatalf("check bit %d: data damaged", bit)
		}
	}
}

func TestDetectsDoubleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		d := rng.Uint64()
		cw := Encode(d)
		i := rng.Intn(64)
		j := rng.Intn(64)
		for j == i {
			j = rng.Intn(64)
		}
		bad := flipDataBit(flipDataBit(cw, i), j)
		_, res, err := Decode(bad)
		if err == nil || res != Detected {
			t.Fatalf("double error (%d,%d) not detected: res=%v err=%v", i, j, res, err)
		}
	}
}

func TestDetectsDataPlusCheckDouble(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	misdecoded := 0
	const trials = 500
	for trial := 0; trial < trials; trial++ {
		d := rng.Uint64()
		cw := Encode(d)
		bad := flipCheckBit(flipDataBit(cw, rng.Intn(64)), rng.Intn(7))
		got, res, _ := Decode(bad)
		// A data+check double error either gets detected or, in some
		// patterns, miscorrected — but it must never be reported Clean
		// with wrong data.
		if res == Clean && got != d {
			t.Fatal("double error reported clean with wrong data")
		}
		if res == Corrected && got != d {
			misdecoded++
		}
	}
	// SEC-DED guarantees detection for double errors within its coverage;
	// data+check pairs are still double errors and must be caught.
	if misdecoded > 0 {
		t.Errorf("%d/%d data+check double errors were miscorrected", misdecoded, trials)
	}
}

func TestQuickSingleErrorProperty(t *testing.T) {
	prop := func(d uint64, bit uint8) bool {
		cw := flipDataBit(Encode(d), int(bit)%64)
		got, res, err := Decode(cw)
		return err == nil && res == Corrected && got == d
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestOverhead(t *testing.T) {
	if Overhead() != 0.125 {
		t.Errorf("overhead = %v", Overhead())
	}
}

func TestDataPosDistinct(t *testing.T) {
	seen := map[int]bool{}
	for i, p := range dataPos {
		if p < 1 || p > 72 {
			t.Fatalf("dataPos[%d] = %d out of range", i, p)
		}
		if p&(p-1) == 0 {
			t.Fatalf("dataPos[%d] = %d is a parity position", i, p)
		}
		if seen[p] {
			t.Fatalf("dataPos[%d] = %d duplicated", i, p)
		}
		seen[p] = true
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
	b.SetBytes(8)
}

func BenchmarkDecodeCorrecting(b *testing.B) {
	cw := flipDataBit(Encode(0xfeedfacecafebeef), 17)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}
