package photonics

import (
	"errors"
	"fmt"
	"math"
)

// Laser models a semiconductor laser transmitter above threshold. It covers
// both the 850 nm VCSELs used in multimode AOCs and the 1310 nm DFB/EML
// sources used in single-mode DR/FR modules; the two differ only in
// parameter values.
//
// Lasers are the power and reliability baseline Mosaic is measured against:
// they need threshold bias, temperature-sensitive drive, and (for EML) a
// separate modulator — and their wear-out FIT dominates optical-link
// failures.
type Laser struct {
	Name           string
	WavelengthM    float64 // emission wavelength, metres
	ThresholdA     float64 // threshold current, amperes
	SlopeEffWPerA  float64 // slope efficiency above threshold, W/A
	MaxCurrentA    float64 // absolute maximum drive current
	RINdBHz        float64 // relative intensity noise, dB/Hz
	BandwidthHz    float64 // small-signal modulation bandwidth at nominal bias
	ForwardVoltage float64 // forward voltage at operating point
	CouplingLossDB float64 // laser-to-fiber coupling loss, dB
	FITper1e9Hours float64 // failure rate in FIT (failures per 1e9 device-hours)
	TempCoeffPerK  float64 // fractional slope-efficiency loss per kelvin above 300K
	OperatingTempK float64 // junction temperature at operating point
}

// VCSEL850 returns a typical 850 nm datacom VCSEL (per-lane 25G-class device
// as used in 100G SR4 / AOC modules).
func VCSEL850() Laser {
	return Laser{
		Name:           "VCSEL-850",
		WavelengthM:    850e-9,
		ThresholdA:     0.6e-3,
		SlopeEffWPerA:  0.5,
		MaxCurrentA:    12e-3,
		RINdBHz:        -135,
		BandwidthHz:    22e9,
		ForwardVoltage: 2.0,
		CouplingLossDB: 2.0,
		FITper1e9Hours: 100, // datacom VCSELs: O(100) FIT at elevated temp
		TempCoeffPerK:  0.004,
		OperatingTempK: 330,
	}
}

// DFB1310 returns a typical 1310 nm DFB laser used (with external or direct
// modulation) in DR4/FR4 single-mode modules.
func DFB1310() Laser {
	return Laser{
		Name:           "DFB-1310",
		WavelengthM:    1310e-9,
		ThresholdA:     8e-3,
		SlopeEffWPerA:  0.35,
		MaxCurrentA:    120e-3,
		RINdBHz:        -150,
		BandwidthHz:    30e9,
		ForwardVoltage: 1.5,
		CouplingLossDB: 3.0,
		FITper1e9Hours: 500, // high-power CW sources in hot modules
		TempCoeffPerK:  0.006,
		OperatingTempK: 340,
	}
}

// Validate reports whether the laser parameters are physically meaningful.
func (l Laser) Validate() error {
	switch {
	case l.ThresholdA < 0 || l.SlopeEffWPerA <= 0:
		return errors.New("photonics: laser threshold/slope invalid")
	case l.MaxCurrentA <= l.ThresholdA:
		return errors.New("photonics: laser max current must exceed threshold")
	case l.WavelengthM <= 0:
		return errors.New("photonics: laser wavelength must be positive")
	}
	return nil
}

// OpticalPower returns the fiber-coupled optical power (W) at drive current
// i (A), accounting for threshold, temperature-derated slope efficiency, and
// coupling loss.
func (l Laser) OpticalPower(i float64) float64 {
	if i <= l.ThresholdA {
		return 0
	}
	slope := l.SlopeEffWPerA * l.tempDerate()
	p := slope * (i - l.ThresholdA)
	return p * math.Pow(10, -l.CouplingLossDB/10)
}

func (l Laser) tempDerate() float64 {
	d := 1 - l.TempCoeffPerK*(l.OperatingTempK-300)
	if d < 0.1 {
		return 0.1
	}
	return d
}

// CurrentForPower returns the drive current (A) needed to emit the given
// fiber-coupled optical power (W), or an error if it exceeds MaxCurrentA.
func (l Laser) CurrentForPower(p float64) (float64, error) {
	if p <= 0 {
		return l.ThresholdA, nil
	}
	slope := l.SlopeEffWPerA * l.tempDerate() * math.Pow(10, -l.CouplingLossDB/10)
	i := l.ThresholdA + p/slope
	if i > l.MaxCurrentA {
		return 0, fmt.Errorf("photonics: %s cannot reach %.2e W (needs %.1f mA > max %.1f mA)",
			l.Name, p, i*1e3, l.MaxCurrentA*1e3)
	}
	return i, nil
}

// String identifies the device.
func (l Laser) String() string { return l.Name }
