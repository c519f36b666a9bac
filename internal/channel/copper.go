// Package channel turns device and medium models into end-to-end link
// quality: insertion-loss-limited reach for copper, and a Gaussian-noise
// Q-factor/BER engine for optical channels (NRZ and PAM4).
package channel

import (
	"errors"
	"math"
)

// Copper models a passive twinax direct-attach cable (DAC) plus the host
// channel at each end. Its insertion loss follows the standard skin-effect
// + dielectric form: IL(f, L) = L·(ks·√f + kd·f) with f in GHz, plus fixed
// package/connector loss. Reach collapses as per-lane rates rise — the
// motivating trend of the paper.
type Copper struct {
	Name            string
	SkinDBPerMRtGHz float64 // ks: skin-effect loss, dB/(m·√GHz)
	DielDBPerMGHz   float64 // kd: dielectric loss, dB/(m·GHz)
	FixedDB         float64 // host PCB + connectors, both ends, dB
}

// Twinax26AWG returns a typical 26 AWG twinax DAC: about 8 dB/m at the
// 26.56 GHz Nyquist of a 106.25 Gb/s PAM4 lane, which with a ~28 dB channel
// budget yields the familiar ~2 m reach limit.
func Twinax26AWG() Copper {
	return Copper{
		Name:            "twinax-26AWG",
		SkinDBPerMRtGHz: 1.0,
		DielDBPerMGHz:   0.11,
		FixedDB:         12,
	}
}

// Validate reports whether the cable parameters are meaningful.
func (c Copper) Validate() error {
	if c.SkinDBPerMRtGHz < 0 || c.DielDBPerMGHz < 0 || c.FixedDB < 0 {
		return errors.New("channel: negative copper loss coefficient")
	}
	if c.SkinDBPerMRtGHz == 0 && c.DielDBPerMGHz == 0 {
		return errors.New("channel: lossless copper is not a cable")
	}
	return nil
}

// InsertionLossDB returns end-to-end insertion loss in dB at frequency f
// (Hz) for a cable of the given length (m).
func (c Copper) InsertionLossDB(fHz, lengthM float64) float64 {
	if fHz <= 0 || lengthM < 0 {
		return c.FixedDB
	}
	fGHz := fHz / 1e9
	return lengthM*(c.SkinDBPerMRtGHz*math.Sqrt(fGHz)+c.DielDBPerMGHz*fGHz) + c.FixedDB
}

// MaxReach returns the longest cable (m) whose insertion loss at the given
// Nyquist frequency stays within budgetDB. Returns 0 if even a zero-length
// cable exceeds the budget.
func (c Copper) MaxReach(nyquistHz, budgetDB float64) float64 {
	if nyquistHz <= 0 || budgetDB <= c.FixedDB {
		return 0
	}
	fGHz := nyquistHz / 1e9
	perM := c.SkinDBPerMRtGHz*math.Sqrt(fGHz) + c.DielDBPerMGHz*fGHz
	if perM <= 0 {
		return math.Inf(1)
	}
	return (budgetDB - c.FixedDB) / perM
}

// NyquistHz returns the Nyquist frequency for a bit rate under the given
// modulation: half the baud rate.
func NyquistHz(bitRate float64, mod Modulation) float64 {
	if bitRate <= 0 {
		return 0
	}
	return bitRate / float64(mod.BitsPerSymbol()) / 2
}
