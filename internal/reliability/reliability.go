// Package reliability quantifies link failure behaviour: FIT arithmetic for
// series systems (conventional transceivers die when any laser dies) and
// k-of-n sparing math for Mosaic (the link survives until it runs out of
// spare channels), both as closed forms and as Monte-Carlo simulation.
//
// The paper's claim — "higher reliability than today's optical links"
// despite using hundreds of devices — holds because microLED FIT is orders
// of magnitude below laser FIT *and* channel sparing converts the remaining
// failures from link-down events into invisible remaps. Experiment E7
// reproduces both effects.
package reliability

import (
	"errors"
	"math"
	"math/rand"
)

// FIT is a failure rate in failures per 1e9 device-hours.
type FIT float64

// Device failure rates used by the experiments (public reliability-report
// ballpark figures).
const (
	FITLaserDFB   FIT = 500 // high-power CW telecom laser, hot module
	FITLaserVCSEL FIT = 100 // datacom VCSEL
	FITMicroLED   FIT = 0.5 // GaN LED, display-industry maturity
	FITDSP        FIT = 50  // 5nm PAM4 DSP die
	FITTIA        FIT = 10  // high-speed analog front end
	FITSlowTIA    FIT = 0.5 // slow CMOS TIA (part of a big array die)
	FITPhotodiode FIT = 5
	FITConnector  FIT = 5
	FITGearbox    FIT = 30 // Mosaic digital die
)

// LambdaPerHour converts FIT to a per-hour failure rate.
func (f FIT) LambdaPerHour() float64 { return float64(f) / 1e9 }

// Series returns the FIT of a series system (any component failure is a
// system failure): the sum.
func Series(fits ...FIT) FIT {
	var sum FIT
	for _, f := range fits {
		sum += f
	}
	return sum
}

// SurvivalProb returns exp(-λt) for a FIT over t hours.
func (f FIT) SurvivalProb(hours float64) float64 {
	return math.Exp(-f.LambdaPerHour() * hours)
}

// HoursPerYear is the mission-time conversion constant.
const HoursPerYear = 8766.0

// --- k-of-n sparing (non-repairable mission) ---

// SparedSystem is n identical channels of which up to s may fail before
// the system fails (i.e. the system needs n-s working channels).
type SparedSystem struct {
	N          int // total channels (data + spares)
	Spares     int // tolerated failures
	PerChannel FIT
}

// Validate checks the shape.
func (s SparedSystem) Validate() error {
	if s.N <= 0 || s.Spares < 0 || s.Spares >= s.N {
		return errors.New("reliability: need 0 <= spares < n, n > 0")
	}
	if s.PerChannel < 0 {
		return errors.New("reliability: negative FIT")
	}
	return nil
}

// logChoose returns log C(n,k) via lgamma.
func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// SurvivalProb returns the probability that at most Spares channels have
// failed after `hours` of (non-repairable) operation: the binomial CDF
// with p = 1 - exp(-λt).
func (s SparedSystem) SurvivalProb(hours float64) float64 {
	if err := s.Validate(); err != nil {
		return 0
	}
	p := 1 - s.PerChannel.SurvivalProb(hours)
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	sum := 0.0
	for i := 0; i <= s.Spares; i++ {
		logTerm := logChoose(s.N, i) +
			float64(i)*math.Log(p) +
			float64(s.N-i)*math.Log(1-p)
		sum += math.Exp(logTerm)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// EffectiveFIT returns the average failure rate over a mission of the
// given length, expressed in FIT: -ln(R(T))/T · 1e9.
func (s SparedSystem) EffectiveFIT(missionHours float64) FIT {
	r := s.SurvivalProb(missionHours)
	if r <= 0 {
		return FIT(math.Inf(1))
	}
	if r >= 1 {
		return 0
	}
	return FIT(-math.Log(r) / missionHours * 1e9)
}

// --- repairable availability (Markov birth-death) ---

// RepairableSystem adds a repair process: failed channels are restored at
// rate MTTRHours each (think: a technician swaps the cable; or for whole
// transceivers, the module is replaced). The link is down while more than
// Spares channels are failed.
type RepairableSystem struct {
	SparedSystem
	MTTRHours float64
}

// Availability solves the birth-death chain in steady state: state k has
// k failed channels; failure rate (N-k)λ, repair rate k·µ (parallel
// repair). Availability is the probability mass on states 0..Spares.
func (r RepairableSystem) Availability() (float64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if r.MTTRHours <= 0 {
		return 0, errors.New("reliability: MTTR must be positive")
	}
	lambda := r.PerChannel.LambdaPerHour()
	mu := 1 / r.MTTRHours
	// Unnormalised stationary distribution: pi[k+1] = pi[k] * (N-k)λ / ((k+1)µ).
	pi := make([]float64, r.N+1)
	pi[0] = 1
	for k := 0; k < r.N; k++ {
		rate := float64(r.N-k) * lambda
		rep := float64(k+1) * mu
		pi[k+1] = pi[k] * rate / rep
	}
	var total, up float64
	for k, p := range pi {
		total += p
		if k <= r.Spares {
			up += p
		}
	}
	return up / total, nil
}

// DowntimeSecondsPerYear converts availability to expected downtime.
func DowntimeSecondsPerYear(availability float64) float64 {
	if availability < 0 {
		availability = 0
	}
	if availability > 1 {
		availability = 1
	}
	return (1 - availability) * HoursPerYear * 3600
}

// --- link-level catalogs ---

// LinkFIT returns the series FIT of a conventional transceiver pair for
// the given lane count (one laser, PD, TIA set per lane, one DSP per end).
func LinkFIT(laser FIT, lanesPerEnd int) FIT {
	perEnd := Series(
		FIT(float64(laser)*float64(lanesPerEnd)),
		FIT(float64(FITPhotodiode)*float64(lanesPerEnd)),
		FIT(float64(FITTIA)*float64(lanesPerEnd)),
		FITDSP,
		FITConnector,
	)
	return 2 * perEnd
}

// MosaicSystem builds the spared-system model of a Mosaic link pair with
// the given data channel and spare counts. Per-channel FIT combines the
// LED, its PD, and its slow TIA slice; the shared gearbox dies are a
// series element handled by MosaicLinkFIT.
func MosaicSystem(dataChannels, spares int) SparedSystem {
	perChannel := Series(FITMicroLED, FITPhotodiode, FITSlowTIA)
	return SparedSystem{
		N:          dataChannels + spares,
		Spares:     spares,
		PerChannel: perChannel,
	}
}

// MosaicLinkFIT returns the effective link FIT of a Mosaic pair over the
// mission: the spared channel array plus the series elements (two gearbox
// dies, two connectors).
func MosaicLinkFIT(dataChannels, spares int, missionHours float64) FIT {
	array := MosaicSystem(dataChannels, spares).EffectiveFIT(missionHours)
	return Series(array, 2*FITGearbox, 2*FITConnector)
}

// --- Monte Carlo ---

// MonteCarloSurvival estimates the spared-system survival probability at
// missionHours by simulating `trials` systems with exponential channel
// lifetimes. It exists to validate the closed form.
func MonteCarloSurvival(s SparedSystem, missionHours float64, trials int, rng *rand.Rand) float64 {
	if err := s.Validate(); err != nil || trials <= 0 {
		return 0
	}
	lambda := s.PerChannel.LambdaPerHour()
	survived := 0
	for t := 0; t < trials; t++ {
		failures := 0
		for c := 0; c < s.N; c++ {
			// Lifetime ~ Exp(lambda); fails within mission if < missionHours.
			life := rng.ExpFloat64() / lambda
			if life < missionHours {
				failures++
				if failures > s.Spares {
					break
				}
			}
		}
		if failures <= s.Spares {
			survived++
		}
	}
	return float64(survived) / float64(trials)
}
