package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBRoundTrip(t *testing.T) {
	for _, ratio := range []float64{1e-6, 0.5, 1, 2, 10, 1234.5} {
		db := DB(ratio)
		if got := FromDB(db); !ApproxEqual(got, ratio, 1e-12) {
			t.Errorf("FromDB(DB(%v)) = %v", ratio, got)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	cases := []struct {
		ratio, db float64
	}{
		{1, 0},
		{10, 10},
		{100, 20},
		{0.1, -10},
		{2, 3.0102999566},
	}
	for _, c := range cases {
		if got := DB(c.ratio); math.Abs(got-c.db) > 1e-9 {
			t.Errorf("DB(%v) = %v, want %v", c.ratio, got, c.db)
		}
	}
}

func TestDBNonPositive(t *testing.T) {
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be -Inf")
	}
	if !math.IsInf(DB(-1), -1) {
		t.Error("DB(-1) should be -Inf")
	}
}

func TestDBmKnownValues(t *testing.T) {
	if got := DBm(1e-3); math.Abs(got) > 1e-12 {
		t.Errorf("DBm(1mW) = %v, want 0", got)
	}
	if got := DBm(1); math.Abs(got-30) > 1e-9 {
		t.Errorf("DBm(1W) = %v, want 30", got)
	}
}

func TestBERFromQKnownValues(t *testing.T) {
	// Classic optical-communications anchor points.
	cases := []struct {
		q, ber, tol float64
	}{
		{0, 0.5, 1e-12},
		{6, 1e-9, 2e-10}, // Q=6 is the canonical 1e-9 point (9.87e-10)
		{7, 1.28e-12, 5e-13},
	}
	for _, c := range cases {
		if got := BERFromQ(c.q); math.Abs(got-c.ber) > c.tol {
			t.Errorf("BERFromQ(%v) = %v, want ~%v", c.q, got, c.ber)
		}
	}
}

func TestBERQMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		qa := math.Abs(math.Mod(a, 20))
		qb := math.Abs(math.Mod(b, 20))
		if qa > qb {
			qa, qb = qb, qa
		}
		return BERFromQ(qa) >= BERFromQ(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShotNoise(t *testing.T) {
	want := 2 * ElectronCharge * 1e-3 * 1e9
	if got := ShotNoiseCurrentSq(1e-3, 1e9); !ApproxEqual(got, want, 1e-12) {
		t.Errorf("shot noise = %v, want %v", got, want)
	}
	if ShotNoiseCurrentSq(-1e-3, 1e9) != 0 {
		t.Error("negative current should give zero noise")
	}
}

func TestRINNoise(t *testing.T) {
	// RIN -130 dB/Hz, 1 mA, 1 GHz: 1e-13 * 1e-6 * 1e9 = 1e-10.
	if got := RINNoiseCurrentSq(1e-3, -130, 1e9); !ApproxEqual(got, 1e-10, 1e-9) {
		t.Errorf("RIN noise = %v, want 1e-10", got)
	}
}

func TestWavelengthFreq(t *testing.T) {
	// 850 nm -> ~352.7 THz.
	f := WavelengthToFreq(850e-9)
	if !ApproxEqual(f, 3.527e14, 1e-3) {
		t.Errorf("freq(850nm) = %v", f)
	}
	e := PhotonEnergy(850e-9)
	if !ApproxEqual(e, 2.337e-19, 1e-3) {
		t.Errorf("photon energy(850nm) = %v", e)
	}
}

func TestFormatting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Bandwidth(3.5e9).String(), "3.5GHz"},
		{Bandwidth(250e6).String(), "250MHz"},
		{DataRate(800e9).String(), "800Gbps"},
		{DataRate(1.6e12).String(), "1.6Tbps"},
		{Power(13.2).String(), "13.2W"},
		{Power(0.85).String(), "850mW"},
		{Power(0).String(), "0W"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("format: got %q want %q", c.got, c.want)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(100, 100.05, 1e-3) {
		t.Error("should be approx equal")
	}
	if ApproxEqual(100, 101, 1e-3) {
		t.Error("should not be approx equal")
	}
	if !ApproxEqual(0, 1e-9, 1e-6) {
		t.Error("near-zero absolute tolerance failed")
	}
}
