package faultinject

import (
	"errors"
	"math"
	"math/rand"
)

// FleetAging is a deterministic continuous-aging schedule for a whole
// fleet of links: every link draws an independent per-epoch capacity
// decay rate from a seeded exponential, so at epoch e link l delivers
// exp(-decay[l]*e) of its nominal capacity. That is the fleet-level
// face of the microLED lumen-decay story: the population degrades as a
// smooth capacity haircut, and only links whose fraction crosses the
// sparing floor fail outright (the FlowSim semantics of a fraction
// reaching zero: reroute, possibly stall).
//
// Like Schedule, a FleetAging is pure data plus a seed — replaying the
// same seed reproduces the same fleet history bit for bit, which the
// E24 worker-count determinism golden depends on.
type FleetAging struct {
	Seed      int64   `json:"seed"`
	Links     int     `json:"links"`
	MeanDecay float64 `json:"mean_decay"` // mean fractional capacity loss per epoch
	Floor     float64 `json:"floor"`      // fraction below which the link is dead

	decays []float64
}

// NewFleetAging draws the per-link decay rates. MeanDecay is the mean
// of the exponential each link's rate is drawn from; Floor in (0, 1) is
// the sparing floor below which the link counts as failed.
func NewFleetAging(seed int64, links int, meanDecay, floor float64) (*FleetAging, error) {
	if links <= 0 {
		return nil, errors.New("faultinject: fleet aging needs links > 0")
	}
	if meanDecay <= 0 || meanDecay >= 1 {
		return nil, errors.New("faultinject: fleet aging needs 0 < meanDecay < 1")
	}
	if floor <= 0 || floor >= 1 {
		return nil, errors.New("faultinject: fleet aging needs 0 < floor < 1")
	}
	fa := &FleetAging{Seed: seed, Links: links, MeanDecay: meanDecay, Floor: floor}
	rng := rand.New(rand.NewSource(seed))
	fa.decays = make([]float64, links)
	for l := range fa.decays {
		fa.decays[l] = rng.ExpFloat64() * meanDecay
	}
	return fa, nil
}

// Fraction returns the capacity fraction link l delivers at epoch e:
// exp(-decay*e), or exactly 0 once it falls below the sparing floor
// (the link is dead and stays dead — decay is monotone).
func (fa *FleetAging) Fraction(l, e int) float64 {
	f := math.Exp(-fa.decays[l] * float64(e))
	if f < fa.Floor {
		return 0
	}
	return f
}

// DeadAt returns the first epoch at which link l's fraction crosses the
// floor (is reported as 0), or -1 if it survives every epoch < horizon.
func (fa *FleetAging) DeadAt(l, horizon int) int {
	if fa.decays[l] <= 0 {
		return -1
	}
	// exp(-d*e) < floor  ⇔  e > ln(1/floor)/d. The closed form only
	// seeds the search: float rounding can land it one epoch off either
	// way (a floor of exactly exp(-d*e) makes epoch e alive — the
	// comparison is strict — while ceil may still return e), so walk to
	// the true first dead epoch in both directions.
	e := int(math.Ceil(math.Log(1/fa.Floor) / fa.decays[l]))
	for ; e > 0 && fa.Fraction(l, e-1) == 0; e-- {
	}
	for ; fa.Fraction(l, e) != 0; e++ {
	}
	if e >= horizon {
		return -1
	}
	return e
}

// MeanFraction returns the fleet-average delivered fraction at epoch e
// (dead links counting as 0) — the capacity-haircut curve E24 reports.
func (fa *FleetAging) MeanFraction(e int) float64 {
	var sum float64
	for l := 0; l < fa.Links; l++ {
		sum += fa.Fraction(l, e)
	}
	return sum / float64(fa.Links)
}
