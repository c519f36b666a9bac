package photonics

import (
	"errors"
	"math"

	"mosaic/internal/units"
)

// Photodiode models a PIN photodetector. Mosaic uses a dense array of small
// silicon PDs (one per channel, blue-sensitive); conventional optics use a
// single large-bandwidth InGaAs or GaAs device per lane.
type Photodiode struct {
	Name             string
	Material         string  // "Si", "InGaAs", "GaAs"
	DiameterM        float64 // active-area diameter
	PeakRespAPerW    float64 // responsivity at peak wavelength, A/W
	PeakWavelengthM  float64 // wavelength of peak responsivity
	CapPerAreaFPerM2 float64 // junction capacitance per unit area, F/m²
	DarkCurrentA     float64 // dark current, A
}

// SiPD returns a small silicon photodiode matched to a blue microLED
// channel. Silicon responsivity at 430 nm is modest (~0.2-0.25 A/W) but the
// device is nearly free in a CMOS process and its tiny area keeps
// capacitance (and hence TIA noise) low.
func SiPD() Photodiode {
	return Photodiode{
		Name:             "Si-PD",
		Material:         "Si",
		DiameterM:        20e-6,
		PeakRespAPerW:    0.55,
		PeakWavelengthM:  800e-9,
		CapPerAreaFPerM2: 0.8e-3, // ~0.8 fF/µm²
		DarkCurrentA:     50e-12,
	}
}

// Validate reports whether the photodiode parameters are meaningful.
func (p Photodiode) Validate() error {
	if p.DiameterM <= 0 || p.PeakRespAPerW <= 0 || p.PeakWavelengthM <= 0 {
		return errors.New("photonics: photodiode geometry/responsivity invalid")
	}
	return nil
}

// AreaM2 returns the active area in m².
func (p Photodiode) AreaM2() float64 {
	r := p.DiameterM / 2
	return math.Pi * r * r
}

// CapacitanceF returns the junction capacitance in farads.
func (p Photodiode) CapacitanceF() float64 {
	return p.CapPerAreaFPerM2 * p.AreaM2()
}

// Responsivity returns the responsivity (A/W) at the given wavelength,
// using a quantum-efficiency roll-off around the peak: responsivity scales
// linearly with wavelength (R = η·qλ/hc) below the peak and falls off as a
// Gaussian above it (band edge).
func (p Photodiode) Responsivity(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	// Quantum efficiency implied at the peak.
	etaPeak := p.PeakRespAPerW * units.PhotonEnergy(p.PeakWavelengthM) / units.ElectronCharge
	if etaPeak > 1 {
		etaPeak = 1
	}
	eta := etaPeak
	if lambda > p.PeakWavelengthM {
		// Band-edge roll-off: ~Gaussian with 8% width.
		d := (lambda - p.PeakWavelengthM) / (0.08 * p.PeakWavelengthM)
		eta *= math.Exp(-d * d)
	}
	return eta * units.ElectronCharge / units.PhotonEnergy(lambda)
}

// TIA models a transimpedance amplifier front end.
type TIA struct {
	Name          string
	GainOhm       float64 // transimpedance
	NoiseAPerRtHz float64 // input-referred noise current density, A/√Hz
	BandwidthHz   float64 // amplifier bandwidth
	PowerW        float64 // static power consumption
}

// SimpleTIA returns the low-speed TIA a Mosaic channel needs: a ~2 GHz,
// sub-milliwatt inverter-style CMOS stage. This is where the wide-and-slow
// win comes from — no 50+ GHz analog front end, no equalizer.
func SimpleTIA() TIA {
	return TIA{
		Name:          "CMOS-TIA-2G",
		GainOhm:       10e3,
		NoiseAPerRtHz: 1.5e-12,
		BandwidthHz:   2.2e9,
		PowerW:        0.9e-3,
	}
}

// Validate reports whether the TIA parameters are meaningful.
func (t TIA) Validate() error {
	if t.GainOhm <= 0 || t.NoiseAPerRtHz <= 0 || t.BandwidthHz <= 0 {
		return errors.New("photonics: TIA parameters invalid")
	}
	return nil
}

// InputNoiseCurrentSq returns the mean-square input-referred noise current
// (A²) integrated over bandwidth bw (Hz), capped by the TIA's own bandwidth.
func (t TIA) InputNoiseCurrentSq(bw float64) float64 {
	if bw <= 0 {
		return 0
	}
	if bw > t.BandwidthHz {
		bw = t.BandwidthHz
	}
	return t.NoiseAPerRtHz * t.NoiseAPerRtHz * bw
}

// Receiver couples a photodiode with a TIA.
type Receiver struct {
	PD  Photodiode
	Amp TIA
}

// MosaicReceiver returns the per-channel Mosaic receiver (Si PD + slow
// CMOS TIA).
func MosaicReceiver() Receiver {
	return Receiver{PD: SiPD(), Amp: SimpleTIA()}
}

// Validate checks both halves of the receiver.
func (r Receiver) Validate() error {
	if err := r.PD.Validate(); err != nil {
		return err
	}
	return r.Amp.Validate()
}

// Bandwidth returns the receiver's effective bandwidth (Hz): the cascade of
// the TIA bandwidth and the PD RC pole into the TIA input (assumed 50 ohm
// virtual ground, handled inside GainOhm so we use the TIA figure directly
// combined with a PD pole at 1/(2π·50·Cpd)).
func (r Receiver) Bandwidth() float64 {
	fpd := 1 / (2 * math.Pi * 50 * r.PD.CapacitanceF())
	ft := r.Amp.BandwidthHz
	return fpd * ft / math.Sqrt(fpd*fpd+ft*ft)
}

// NoiseCurrentSigma returns the RMS noise current (A) at the decision point
// for a received average photocurrent i (A) over bandwidth bw (Hz). It sums
// TIA input noise, shot noise, and dark-current shot noise.
func (r Receiver) NoiseCurrentSigma(i, bw float64) float64 {
	n := r.Amp.InputNoiseCurrentSq(bw) +
		units.ShotNoiseCurrentSq(i, bw) +
		units.ShotNoiseCurrentSq(r.PD.DarkCurrentA, bw)
	return math.Sqrt(n)
}
