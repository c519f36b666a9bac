package photonics

import (
	"math"
	"testing"
	"testing/quick"

	"mosaic/internal/units"
)

func TestDefaultMicroLEDValid(t *testing.T) {
	if err := DefaultMicroLED().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMicroLEDValidateRejects(t *testing.T) {
	cases := []func(*MicroLED){
		func(m *MicroLED) { m.DiameterM = 0 },
		func(m *MicroLED) { m.ActiveThickness = -1 },
		func(m *MicroLED) { m.B = 0 },
		func(m *MicroLED) { m.WavelengthM = 0 },
		func(m *MicroLED) { m.ExtractionEff = 0 },
		func(m *MicroLED) { m.ExtractionEff = 1.5 },
	}
	for i, mutate := range cases {
		m := DefaultMicroLED()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid device", i)
		}
	}
}

func TestCarrierDensitySolvesBalance(t *testing.T) {
	m := DefaultMicroLED()
	for _, i := range []float64{10e-6, 100e-6, 500e-6, 2e-3} {
		n := m.CarrierDensity(i)
		vol := m.AreaM2() * m.ActiveThickness
		gen := i / (units.ElectronCharge * vol)
		got := m.A*n + m.B*n*n + m.C*n*n*n
		if !units.ApproxEqual(got, gen, 1e-6) {
			t.Errorf("I=%v: recombination %v != generation %v", i, got, gen)
		}
	}
}

func TestCarrierDensityMonotone(t *testing.T) {
	m := DefaultMicroLED()
	f := func(a, b float64) bool {
		ia := math.Abs(math.Mod(a, 5e-3))
		ib := math.Abs(math.Mod(b, 5e-3))
		if ia > ib {
			ia, ib = ib, ia
		}
		return m.CarrierDensity(ia) <= m.CarrierDensity(ib)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIQEDroop(t *testing.T) {
	m := DefaultMicroLED()
	// IQE rises from low current, peaks, then droops under strong Auger.
	low := m.IQE(1e-6)
	mid := m.IQE(200e-6)
	high := m.IQE(20e-3)
	if !(mid > low) {
		t.Errorf("IQE should rise from low drive: low=%v mid=%v", low, mid)
	}
	if !(high < mid) {
		t.Errorf("IQE should droop at very high drive: mid=%v high=%v", mid, high)
	}
	for _, i := range []float64{1e-6, 1e-4, 1e-2} {
		if q := m.IQE(i); q < 0 || q > 1 {
			t.Errorf("IQE(%v) = %v out of [0,1]", i, q)
		}
	}
}

func TestOpticalPowerOperatingPoint(t *testing.T) {
	m := DefaultMicroLED()
	// At a few kA/cm² (the paper's class of drive), a 4 µm device should
	// emit tens of microwatts — enough for a 50 m imaging-fiber budget.
	i := m.NominalCurrent()
	p := m.OpticalPower(i)
	if p < 10e-6 || p > 500e-6 {
		t.Errorf("optical power at nominal drive = %v W, want tens of uW", p)
	}
	if m.OpticalPower(0) != 0 || m.OpticalPower(-1) != 0 {
		t.Error("non-positive drive should emit nothing")
	}
}

func TestBandwidthSupports2Gbps(t *testing.T) {
	m := DefaultMicroLED()
	i := m.NominalCurrent()
	bw := m.Bandwidth(i)
	// NRZ at 2 Gbps wants >= ~0.6-0.7 x bitrate of bandwidth.
	if bw < 0.9e9 {
		t.Errorf("bandwidth at nominal drive = %v Hz, too slow for 2 Gbps NRZ", bw)
	}
	if bw > 20e9 {
		t.Errorf("bandwidth at nominal drive = %v Hz, implausibly fast for an LED", bw)
	}
}

func TestBandwidthIncreasesWithDrive(t *testing.T) {
	m := DefaultMicroLED()
	m.CapacitanceF = 1e-18 // isolate the carrier-lifetime term
	b1 := m.Bandwidth(50e-6)
	b2 := m.Bandwidth(500e-6)
	b3 := m.Bandwidth(5e-3)
	if !(b1 < b2 && b2 < b3) {
		t.Errorf("carrier bandwidth should increase with drive: %v %v %v", b1, b2, b3)
	}
}

func TestRCBandwidthLimits(t *testing.T) {
	m := DefaultMicroLED()
	rc := (m.SeriesOhm + m.LoadOhm) * m.CapacitanceF
	want := 1 / (2 * math.Pi * rc)
	if got := m.RCBandwidth(); !units.ApproxEqual(got, want, 1e-12) {
		t.Errorf("RCBandwidth = %v, want %v", got, want)
	}
	m.CapacitanceF = 0
	if !math.IsInf(m.RCBandwidth(), 1) {
		t.Error("zero capacitance should be unlimited")
	}
}

func TestCombinedBandwidthBelowBoth(t *testing.T) {
	m := DefaultMicroLED()
	i := 1e-3
	fc, fr, f := m.CarrierBandwidth(i), m.RCBandwidth(), m.Bandwidth(i)
	if f > fc || f > fr {
		t.Errorf("combined bandwidth %v exceeds a pole (carrier %v, RC %v)", f, fc, fr)
	}
}

func TestEQEBelowExtraction(t *testing.T) {
	m := DefaultMicroLED()
	for _, i := range []float64{1e-5, 1e-4, 1e-3} {
		if e := m.EQE(i); e > m.ExtractionEff {
			t.Errorf("EQE(%v) = %v exceeds extraction efficiency", i, e)
		}
	}
}
