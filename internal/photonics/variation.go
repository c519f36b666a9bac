package photonics

import (
	"math"
	"math/rand"
)

// Variation describes device-to-device manufacturing spread across a
// microLED (or PD) array. Mosaic's 100+ channel arrays are fabricated as
// monolithic grids, so within-wafer variation is the dominant source of
// per-channel BER differences — this is what makes the per-channel BER
// distribution (experiment E5) non-degenerate.
type Variation struct {
	// EQESigma is the relative (lognormal) sigma of external quantum
	// efficiency across devices, e.g. 0.10 for 10%.
	EQESigma float64
	// BandwidthSigma is the relative sigma of modulation bandwidth.
	BandwidthSigma float64
	// RespSigma is the relative sigma of photodiode responsivity.
	RespSigma float64
	// DeadProb is the probability that a device is dead at manufacture
	// (infant mortality, screened but never perfectly).
	DeadProb float64
}

// DefaultVariation returns spreads typical of monolithic GaN micro-display
// style arrays.
func DefaultVariation() Variation {
	return Variation{
		EQESigma:       0.08,
		BandwidthSigma: 0.05,
		RespSigma:      0.03,
		DeadProb:       0.002,
	}
}

// ChannelSample holds the per-channel multiplicative factors drawn for one
// transmitter/receiver pair in an array.
type ChannelSample struct {
	EQEFactor       float64 // multiplies transmitter optical power
	BandwidthFactor float64 // multiplies transmitter bandwidth
	RespFactor      float64 // multiplies receiver responsivity
	Dead            bool    // true if the channel is unusable from day one
}

// lognormal draws a multiplicative factor with median 1 and the given
// relative sigma. sigma<=0 returns exactly 1.
func lognormal(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64() * sigma)
}

// Sample draws the variation factors for one channel using rng.
func (v Variation) Sample(rng *rand.Rand) ChannelSample {
	return ChannelSample{
		EQEFactor:       lognormal(rng, v.EQESigma),
		BandwidthFactor: lognormal(rng, v.BandwidthSigma),
		RespFactor:      lognormal(rng, v.RespSigma),
		Dead:            rng.Float64() < v.DeadProb,
	}
}
