// Package workload generates datacenter traffic for the flow simulator:
// Poisson arrivals with flow sizes drawn from empirical datacenter
// distributions (web-search and data-mining style CDFs from the DCTCP/
// pFabric literature), plus a fixed-size generator for controlled
// experiments.
package workload

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// SizeDist draws flow sizes in bits.
type SizeDist interface {
	Name() string
	SampleBits(rng *rand.Rand) float64
	MeanBits() float64
}

// Fixed returns a constant-size distribution.
type Fixed struct{ Bits float64 }

// Name implements SizeDist.
func (f Fixed) Name() string { return "fixed" }

// SampleBits implements SizeDist.
func (f Fixed) SampleBits(*rand.Rand) float64 { return f.Bits }

// MeanBits implements SizeDist.
func (f Fixed) MeanBits() float64 { return f.Bits }

// Empirical is a piecewise CDF over flow sizes.
type Empirical struct {
	name  string
	sizes []float64 // bits, ascending
	cdf   []float64 // cumulative probability, ascending to 1
}

// NewEmpirical builds a distribution from (sizeBits, cumProb) points. The
// last cumProb must be 1 and points must be ascending.
func NewEmpirical(name string, sizes, cdf []float64) (*Empirical, error) {
	if len(sizes) == 0 || len(sizes) != len(cdf) {
		return nil, errors.New("workload: sizes and cdf must be equal-length and non-empty")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] || cdf[i] <= cdf[i-1] {
			return nil, errors.New("workload: CDF points must be strictly ascending")
		}
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		return nil, errors.New("workload: CDF must end at 1")
	}
	return &Empirical{name: name, sizes: sizes, cdf: cdf}, nil
}

// Name implements SizeDist.
func (e *Empirical) Name() string { return e.name }

// SampleBits implements SizeDist.
func (e *Empirical) SampleBits(rng *rand.Rand) float64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(e.cdf, u)
	if i >= len(e.sizes) {
		i = len(e.sizes) - 1
	}
	if i == 0 {
		// Interpolate from zero probability at size[0].
		return e.sizes[0]
	}
	// Linear interpolation between points.
	f := (u - e.cdf[i-1]) / (e.cdf[i] - e.cdf[i-1])
	return e.sizes[i-1] + f*(e.sizes[i]-e.sizes[i-1])
}

// MeanBits implements SizeDist.
func (e *Empirical) MeanBits() float64 {
	mean := 0.0
	prev := 0.0
	prevSize := e.sizes[0]
	for i := range e.sizes {
		p := e.cdf[i] - prev
		mean += p * (prevSize + e.sizes[i]) / 2
		prev = e.cdf[i]
		prevSize = e.sizes[i]
	}
	return mean
}

// WebSearch returns the DCTCP web-search flow size distribution
// (approximate CDF, sizes in bytes converted to bits).
func WebSearch() *Empirical {
	kb := 8.0 * 1024
	e, err := NewEmpirical("websearch",
		[]float64{6 * kb, 13 * kb, 19 * kb, 33 * kb, 53 * kb, 133 * kb,
			667 * kb, 1333 * kb, 3333 * kb, 6667 * kb, 20000 * kb, 30000 * kb},
		[]float64{0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 0.998, 1.0})
	if err != nil {
		panic(err)
	}
	return e
}

// PoissonArrivals yields exponential inter-arrival times for a target
// offered load on a set of hosts.
type PoissonArrivals struct {
	RatePerSec float64
}

// NewPoissonForLoad sizes the arrival rate so that `hosts` hosts with
// `accessBps` access links run at the given utilisation with mean flow
// size meanBits.
func NewPoissonForLoad(load float64, hosts int, accessBps, meanBits float64) PoissonArrivals {
	if load < 0 {
		load = 0
	}
	total := load * float64(hosts) * accessBps
	if meanBits <= 0 {
		meanBits = 1
	}
	return PoissonArrivals{RatePerSec: total / meanBits}
}

// NextGapSec draws the next inter-arrival gap in seconds.
func (p PoissonArrivals) NextGapSec(rng *rand.Rand) float64 {
	if p.RatePerSec <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / p.RatePerSec
}
