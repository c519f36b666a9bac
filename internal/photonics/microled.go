// Package photonics models the optoelectronic devices used by Mosaic and its
// baselines: GaN microLED transmitters (the paper's key enabler), VCSEL and
// DFB/EML lasers (conventional-optics baselines), and photodiode + TIA
// receivers.
//
// The microLED model follows the standard ABC recombination description of
// III-nitride emitters: at steady state the injected carrier rate balances
// Shockley-Read-Hall (A·n), radiative (B·n²) and Auger (C·n³) recombination.
// Internal quantum efficiency, efficiency droop, and the modulation
// bandwidth (via the differential carrier lifetime) all fall out of the same
// three coefficients, which is exactly why wide-and-slow works: a small,
// hard-driven LED is fast *enough* for ~2 Gbps while remaining trivially
// cheap to drive.
package photonics

import (
	"errors"
	"fmt"
	"math"

	"mosaic/internal/units"
)

// MicroLED models a single directly-modulated GaN microLED.
// The zero value is not useful; construct with NewMicroLED or use
// DefaultMicroLED.
type MicroLED struct {
	// Geometry.
	DiameterM       float64 // emitter diameter, metres
	ActiveThickness float64 // total quantum-well thickness, metres

	// ABC recombination coefficients (SI: 1/s, m^3/s, m^6/s).
	A float64 // Shockley-Read-Hall (incl. surface recombination for small mesas)
	B float64 // radiative
	C float64 // Auger

	// Optical.
	WavelengthM   float64 // peak emission wavelength, metres
	ExtractionEff float64 // light extraction efficiency into the fiber NA, 0..1
	RINdBHz       float64 // effective relative intensity noise, dB/Hz

	// Electrical.
	ForwardVoltage float64 // diode forward voltage at operating point, volts
	SeriesOhm      float64 // series resistance, ohms
	CapacitanceF   float64 // junction+parasitic capacitance, farads
	LoadOhm        float64 // driver output resistance seen by the junction, ohms
}

// NominalCurrentDensity is the paper-class operating point for a comms
// microLED: ~6 kA/cm² (in A/m²). Small mesas tolerate this; it buys the
// short differential carrier lifetime that makes 2 Gbps NRZ possible.
const NominalCurrentDensity = 6e7 // A/m²

// DefaultMicroLED returns a microLED parameterised to match the class of
// device the paper builds on: a ~4 µm blue GaN emitter with a thin active
// region that sustains ~2 Gbps NRZ when driven at a few kA/cm².
func DefaultMicroLED() MicroLED {
	return MicroLED{
		DiameterM:       4e-6,
		ActiveThickness: 3e-9,
		A:               5e8,   // small-mesa surface recombination (fast, lossy)
		B:               2e-17, // GaN radiative coefficient
		C:               1e-42, // Auger (drives droop)
		WavelengthM:     430e-9,
		ExtractionEff:   0.30,
		RINdBHz:         -125,
		ForwardVoltage:  3.1,
		SeriesOhm:       120,
		CapacitanceF:    100e-15,
		LoadOhm:         50,
	}
}

// NominalCurrent returns the drive current at the nominal operating
// current density.
func (m MicroLED) NominalCurrent() float64 {
	return m.CurrentForDensity(NominalCurrentDensity)
}

// Validate reports whether the device parameters are physically meaningful.
func (m MicroLED) Validate() error {
	switch {
	case m.DiameterM <= 0:
		return errors.New("photonics: microLED diameter must be positive")
	case m.ActiveThickness <= 0:
		return errors.New("photonics: active thickness must be positive")
	case m.A < 0 || m.B <= 0 || m.C < 0:
		return errors.New("photonics: ABC coefficients invalid (need A>=0, B>0, C>=0)")
	case m.WavelengthM <= 0:
		return errors.New("photonics: wavelength must be positive")
	case m.ExtractionEff <= 0 || m.ExtractionEff > 1:
		return errors.New("photonics: extraction efficiency must be in (0,1]")
	}
	return nil
}

// AreaM2 returns the emitter area in m².
func (m MicroLED) AreaM2() float64 {
	r := m.DiameterM / 2
	return math.Pi * r * r
}

// CurrentForDensity returns the drive current in A for a current density in
// A/m².
func (m MicroLED) CurrentForDensity(j float64) float64 {
	return j * m.AreaM2()
}

// CarrierDensity returns the steady-state carrier density n (1/m³) at drive
// current i (A), solving I/(qV) = A·n + B·n² + C·n³ by bisection.
// It returns 0 for non-positive currents.
func (m MicroLED) CarrierDensity(i float64) float64 {
	if i <= 0 {
		return 0
	}
	vol := m.AreaM2() * m.ActiveThickness
	gen := i / (units.ElectronCharge * vol) // carriers per m³ per s
	recomb := func(n float64) float64 {
		return m.A*n + m.B*n*n + m.C*n*n*n
	}
	// Bracket: recombination is strictly increasing in n.
	lo, hi := 0.0, 1e20
	for recomb(hi) < gen {
		hi *= 10
		if hi > 1e40 {
			return hi // pathological drive; saturate
		}
	}
	for k := 0; k < 200; k++ {
		mid := (lo + hi) / 2
		if recomb(mid) < gen {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// IQE returns the internal quantum efficiency at drive current i:
// B·n² / (A·n + B·n² + C·n³). It exhibits the characteristic droop at high
// drive because of the Auger term.
func (m MicroLED) IQE(i float64) float64 {
	n := m.CarrierDensity(i)
	if n <= 0 {
		return 0
	}
	rad := m.B * n * n
	tot := m.A*n + rad + m.C*n*n*n
	return rad / tot
}

// EQE returns the external quantum efficiency (IQE × extraction).
func (m MicroLED) EQE(i float64) float64 {
	return m.IQE(i) * m.ExtractionEff
}

// OpticalPower returns the emitted optical power (W) coupled toward the
// fiber for drive current i (A): EQE(i) · (hν/q) · i.
func (m MicroLED) OpticalPower(i float64) float64 {
	if i <= 0 {
		return 0
	}
	ev := units.PhotonEnergy(m.WavelengthM) / units.ElectronCharge // photon energy in eV
	return m.EQE(i) * ev * i
}

// DifferentialLifetime returns the small-signal carrier lifetime (s) at the
// operating point set by current i: τ = 1/(A + 2B·n + 3C·n²).
func (m MicroLED) DifferentialLifetime(i float64) float64 {
	n := m.CarrierDensity(i)
	denom := m.A + 2*m.B*n + 3*m.C*n*n
	if denom <= 0 {
		return math.Inf(1)
	}
	return 1 / denom
}

// CarrierBandwidth returns the carrier-limited 3 dB modulation bandwidth
// (Hz) at drive current i: f = 1/(2π·τ) for the single-pole carrier response.
func (m MicroLED) CarrierBandwidth(i float64) float64 {
	tau := m.DifferentialLifetime(i)
	if math.IsInf(tau, 1) {
		return 0
	}
	return 1 / (2 * math.Pi * tau)
}

// RCBandwidth returns the electrical RC-limited bandwidth (Hz):
// f = 1/(2π·(Rs+Rload)·C).
func (m MicroLED) RCBandwidth() float64 {
	rc := (m.SeriesOhm + m.LoadOhm) * m.CapacitanceF
	if rc <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * math.Pi * rc)
}

// Bandwidth returns the combined 3 dB modulation bandwidth (Hz) at drive
// current i, treating the carrier and RC responses as cascaded single poles:
// 1/f² = 1/f_carrier² + 1/f_RC².
func (m MicroLED) Bandwidth(i float64) float64 {
	fc := m.CarrierBandwidth(i)
	fr := m.RCBandwidth()
	if fc <= 0 {
		return 0
	}
	if math.IsInf(fr, 1) {
		return fc
	}
	return fc * fr / math.Sqrt(fc*fc+fr*fr)
}

// String summarises the device.
func (m MicroLED) String() string {
	return fmt.Sprintf("microLED{d=%.1fum, lambda=%.0fnm}", m.DiameterM*1e6, m.WavelengthM*1e9)
}
