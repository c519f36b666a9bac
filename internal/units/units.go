// Package units provides physical units, dB arithmetic, and the
// signal-integrity math (Q-factor, BER, noise spectral densities) shared by
// every analog model in the Mosaic reproduction.
//
// Conventions:
//   - Optical and electrical powers are carried in watts (linear) unless a
//     name says DB or DBm.
//   - Frequencies and rates are in hertz; data rates in bits per second.
//   - Lengths are in metres, currents in amperes, temperatures in kelvin.
package units

import (
	"fmt"
	"math"
)

// Physical constants (SI).
const (
	ElectronCharge = 1.602176634e-19 // C
	PlanckConst    = 6.62607015e-34  // J*s
	LightSpeed     = 2.99792458e8    // m/s
)

// DB converts a linear power ratio to decibels.
// Ratios <= 0 map to -Inf, matching the mathematical limit.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 {
	return DB(watts / 1e-3)
}

// WavelengthToFreq converts a vacuum wavelength in metres to frequency in Hz.
func WavelengthToFreq(lambda float64) float64 {
	return LightSpeed / lambda
}

// PhotonEnergy returns the energy in joules of a photon at the given vacuum
// wavelength in metres.
func PhotonEnergy(lambda float64) float64 {
	return PlanckConst * WavelengthToFreq(lambda)
}

// BERFromQ returns the NRZ bit error rate for a Q-factor under additive
// Gaussian noise: BER = 1/2 * erfc(Q/sqrt(2)).
func BERFromQ(q float64) float64 {
	if q < 0 {
		return 0.5
	}
	return 0.5 * math.Erfc(q/math.Sqrt2)
}

// ShotNoiseCurrentSq returns the mean-square shot noise current in A^2 for
// an average photocurrent i (A) over bandwidth bw (Hz): 2qI*bw.
func ShotNoiseCurrentSq(i, bw float64) float64 {
	if i <= 0 || bw <= 0 {
		return 0
	}
	return 2 * ElectronCharge * i * bw
}

// RINNoiseCurrentSq returns the mean-square intensity-noise current in A^2
// for an average photocurrent i (A), a relative intensity noise level
// rinDBHz (dB/Hz, e.g. -130), and bandwidth bw (Hz).
func RINNoiseCurrentSq(i, rinDBHz, bw float64) float64 {
	if i <= 0 || bw <= 0 {
		return 0
	}
	return FromDB(rinDBHz) * i * i * bw
}

// ApproxEqual reports whether a and b agree within relative tolerance rel
// (or absolute tolerance rel when both are near zero).
func ApproxEqual(a, b, rel float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return diff <= rel
	}
	return diff <= rel*scale
}

// Bandwidth is a helper type for pretty-printing frequencies.
type Bandwidth float64

// String renders the bandwidth with an SI prefix, e.g. "3.5GHz".
func (b Bandwidth) String() string {
	v := float64(b)
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.3gTHz", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.3gGHz", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gMHz", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gkHz", v/1e3)
	default:
		return fmt.Sprintf("%.3gHz", v)
	}
}

// DataRate is a helper type for pretty-printing bit rates.
type DataRate float64

// String renders the rate with an SI prefix, e.g. "800Gbps".
func (r DataRate) String() string {
	v := float64(r)
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.4gTbps", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.4gGbps", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.4gMbps", v/1e6)
	default:
		return fmt.Sprintf("%.4gbps", v)
	}
}

// Power is a helper type for pretty-printing electrical powers.
type Power float64

// String renders the power with an SI prefix, e.g. "13.2W" or "850mW".
func (p Power) String() string {
	v := float64(p)
	av := math.Abs(v)
	switch {
	case av >= 1:
		return fmt.Sprintf("%.4gW", v)
	case av >= 1e-3:
		return fmt.Sprintf("%.4gmW", v*1e3)
	case av >= 1e-6:
		return fmt.Sprintf("%.4guW", v*1e6)
	case av == 0:
		return "0W"
	default:
		return fmt.Sprintf("%.4gnW", v*1e9)
	}
}
