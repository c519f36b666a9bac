package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpiricalSampleWithinSupport(t *testing.T) {
	d := WebSearch()
	rng := rand.New(rand.NewSource(10))
	lo, hi := d.sizes[0], d.sizes[len(d.sizes)-1]
	for i := 0; i < 50000; i++ {
		s := d.SampleBits(rng)
		if s < lo-1 || s > hi+1 {
			t.Fatalf("sample %v outside [%v, %v]", s, lo, hi)
		}
	}
}

func TestEmpiricalQuantilesMatchCDF(t *testing.T) {
	d := WebSearch()
	rng := rand.New(rand.NewSource(11))
	const n = 100000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.SampleBits(rng)
	}
	sort.Float64s(samples)
	// At each CDF anchor, the empirical quantile should be close to the
	// anchor size (linear interpolation smooths between anchors).
	for i, p := range d.cdf {
		if p >= 0.99 {
			continue // tail quantiles are noisy
		}
		q := samples[int(p*float64(n-1))]
		want := d.sizes[i]
		if q < want*0.6 || q > want*1.4 {
			t.Errorf("quantile at %v: got %v, want ~%v", p, q, want)
		}
	}
}

func TestEmpiricalFirstBucket(t *testing.T) {
	// Samples landing in the first bucket return the smallest size.
	e, err := NewEmpirical("x", []float64{100, 200}, []float64{0.9, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	seen100 := false
	for i := 0; i < 1000; i++ {
		s := e.SampleBits(rng)
		if s == 100 {
			seen100 = true
		}
		if s < 100 || s > 200 {
			t.Fatalf("sample %v out of range", s)
		}
	}
	if !seen100 {
		t.Error("first-bucket samples never returned the anchor size")
	}
}

func TestPoissonGapQuick(t *testing.T) {
	p := PoissonArrivals{RatePerSec: 1e6}
	rng := rand.New(rand.NewSource(15))
	prop := func(uint8) bool {
		g := p.NextGapSec(rng)
		return g >= 0 && !math.IsNaN(g)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleBitsAlwaysPositiveQuick(t *testing.T) {
	dists := []SizeDist{WebSearch(), Fixed{Bits: 100}}
	rng := rand.New(rand.NewSource(16))
	prop := func(uint8) bool {
		for _, d := range dists {
			if d.SampleBits(rng) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
