package photonics

import (
	"math"
	"strings"
	"testing"
)

func TestLaserString(t *testing.T) {
	l := VCSEL850()
	if !strings.Contains(l.String(), "VCSEL") {
		t.Errorf("String = %q", l.String())
	}
}

func TestLaserValidateWavelength(t *testing.T) {
	l := VCSEL850()
	l.WavelengthM = 0
	if l.Validate() == nil {
		t.Error("zero wavelength accepted")
	}
}

func TestLaserTempDerateFloor(t *testing.T) {
	l := VCSEL850()
	l.OperatingTempK = 3000 // absurd: derate clamps at 0.1
	p1 := l.OpticalPower(10e-3)
	l2 := VCSEL850()
	l2.OperatingTempK = 300
	p2 := l2.OpticalPower(10e-3)
	if !(p1 > 0 && p1 < p2) {
		t.Errorf("derate floor broken: %v vs %v", p1, p2)
	}
}

func TestMicroLEDStringAndExtremes(t *testing.T) {
	m := DefaultMicroLED()
	if !strings.Contains(m.String(), "microLED") {
		t.Errorf("String = %q", m.String())
	}
	if m.CarrierDensity(0) != 0 || m.CarrierDensity(-1) != 0 {
		t.Error("nonpositive drive should have zero carriers")
	}
	if m.IQE(0) != 0 {
		t.Error("zero drive should have zero IQE")
	}
	// Pathological drive saturates instead of looping forever.
	if n := m.CarrierDensity(1e20); n < 1e30 {
		t.Errorf("huge drive carrier density = %v", n)
	}
	// Degenerate device: zero recombination denominators.
	z := m
	z.A, z.B, z.C = 0, 1e-30, 0
	if z.CarrierBandwidth(0) != 0 {
		t.Error("zero-carrier bandwidth should be 0")
	}
}

func TestMicroLEDBandwidthWithoutRC(t *testing.T) {
	m := DefaultMicroLED()
	m.CapacitanceF = 0 // RC pole vanishes
	i := m.NominalCurrent()
	if got, want := m.Bandwidth(i), m.CarrierBandwidth(i); math.Abs(got-want) > 1e-6*want {
		t.Errorf("bandwidth without RC = %v, want carrier-only %v", got, want)
	}
	// At zero drive the carrier lifetime degenerates to the SRH constant:
	// a finite (and small) bandwidth, not zero.
	if bw := m.Bandwidth(0); bw <= 0 || bw > m.Bandwidth(i) {
		t.Errorf("zero-drive bandwidth = %v", bw)
	}
}

func TestReceiverValidatePropagates(t *testing.T) {
	r := MosaicReceiver()
	r.PD.DiameterM = 0
	if r.Validate() == nil {
		t.Error("bad PD accepted")
	}
	r = MosaicReceiver()
	r.Amp.BandwidthHz = 0
	if r.Validate() == nil {
		t.Error("bad TIA accepted")
	}
}

func TestLEDPenaltyDarkEdge(t *testing.T) {
	m := DefaultMicroLED()
	// Zero drive: both reference and hot power are zero -> infinite penalty
	// by convention (no signal to compare).
	if !math.IsInf(m.PowerPenaltyDB(0, 350), 1) {
		t.Error("zero-drive penalty should be infinite")
	}
}
