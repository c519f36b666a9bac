package photonics

import (
	"math"
	"testing"

	"mosaic/internal/units"
)

func TestLaserCatalogValid(t *testing.T) {
	for _, l := range []Laser{VCSEL850(), DFB1310()} {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", l.Name, err)
		}
	}
}

func TestLaserValidateRejects(t *testing.T) {
	l := VCSEL850()
	l.MaxCurrentA = l.ThresholdA / 2
	if err := l.Validate(); err == nil {
		t.Error("accepted max current below threshold")
	}
	l = VCSEL850()
	l.SlopeEffWPerA = 0
	if err := l.Validate(); err == nil {
		t.Error("accepted zero slope efficiency")
	}
}

func TestLaserThresholdBehaviour(t *testing.T) {
	l := VCSEL850()
	if p := l.OpticalPower(l.ThresholdA / 2); p != 0 {
		t.Errorf("below threshold should emit 0, got %v", p)
	}
	if p := l.OpticalPower(l.ThresholdA); p != 0 {
		t.Errorf("at threshold should emit 0, got %v", p)
	}
	if p := l.OpticalPower(2 * l.ThresholdA); p <= 0 {
		t.Error("above threshold should emit")
	}
}

func TestLaserLinearAboveThreshold(t *testing.T) {
	l := VCSEL850()
	p1 := l.OpticalPower(l.ThresholdA + 1e-3)
	p2 := l.OpticalPower(l.ThresholdA + 2e-3)
	if !units.ApproxEqual(p2, 2*p1, 1e-9) {
		t.Errorf("L-I should be linear above threshold: %v vs %v", p1, p2)
	}
}

func TestCurrentForPowerRoundTrip(t *testing.T) {
	for _, l := range []Laser{VCSEL850(), DFB1310()} {
		want := 1e-3 // 0 dBm
		i, err := l.CurrentForPower(want)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if got := l.OpticalPower(i); !units.ApproxEqual(got, want, 1e-9) {
			t.Errorf("%s: round trip %v != %v", l.Name, got, want)
		}
	}
}

func TestCurrentForPowerOverMax(t *testing.T) {
	l := VCSEL850()
	if _, err := l.CurrentForPower(1.0); err == nil {
		t.Error("1 W from a VCSEL should be rejected")
	}
	if i, err := l.CurrentForPower(0); err != nil || i != l.ThresholdA {
		t.Errorf("zero power should bias at threshold, got %v, %v", i, err)
	}
}

func TestLaserTempDerating(t *testing.T) {
	cold := VCSEL850()
	cold.OperatingTempK = 300
	hot := VCSEL850()
	hot.OperatingTempK = 360
	i := 5e-3
	if !(hot.OpticalPower(i) < cold.OpticalPower(i)) {
		t.Error("hot laser should emit less at same drive")
	}
}

func TestMicroLEDTransmitterEnergyPerBit(t *testing.T) {
	// The wide-and-slow premise: a microLED channel (diode + trivial CMOS
	// driver) costs only a couple of pJ/bit at the transmitter — the power
	// win over optics comes from there being no DSP, CDR, or laser driver.
	led := DefaultMicroLED()
	i := led.NominalCurrent()
	p := i * (led.ForwardVoltage + i*led.SeriesOhm) // I·(Vf + I·Rs)
	if p > 5e-3 {
		t.Errorf("per-channel diode power %v W too high", p)
	}
	pj := p / 2e9 * 1e12 // at 2 Gbps
	if pj > 3 {
		t.Errorf("transmitter energy %v pJ/bit exceeds the wide-and-slow budget", pj)
	}
	if math.IsNaN(pj) || pj <= 0 {
		t.Errorf("invalid energy per bit: %v", pj)
	}
}
