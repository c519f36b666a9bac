package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestFixed(t *testing.T) {
	f := Fixed{Bits: 1e6}
	rng := rand.New(rand.NewSource(1))
	if f.SampleBits(rng) != 1e6 || f.MeanBits() != 1e6 || f.Name() != "fixed" {
		t.Error("fixed distribution broken")
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical("x", nil, nil); err == nil {
		t.Error("empty CDF accepted")
	}
	if _, err := NewEmpirical("x", []float64{1, 2}, []float64{0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewEmpirical("x", []float64{2, 1}, []float64{0.5, 1}); err == nil {
		t.Error("descending sizes accepted")
	}
	if _, err := NewEmpirical("x", []float64{1, 2}, []float64{0.5, 0.9}); err == nil {
		t.Error("CDF not ending at 1 accepted")
	}
}

func TestPresetDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []SizeDist{WebSearch()} {
		if d.Name() == "" || d.MeanBits() <= 0 {
			t.Fatalf("%s: bad metadata", d.Name())
		}
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			s := d.SampleBits(rng)
			if s <= 0 {
				t.Fatalf("%s: non-positive sample", d.Name())
			}
			sum += s
		}
		mean := sum / n
		// Sampled mean within 2x of analytic trapezoidal mean (heavy tails
		// converge slowly; this is a sanity check, not an estimator test).
		if mean < d.MeanBits()/3 || mean > d.MeanBits()*3 {
			t.Errorf("%s: sampled mean %v vs analytic %v", d.Name(), mean, d.MeanBits())
		}
	}
}

func TestWebSearchShape(t *testing.T) {
	d := WebSearch()
	rng := rand.New(rand.NewSource(6))
	over1MB := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if d.SampleBits(rng) > 8e6 {
			over1MB++
		}
	}
	frac := float64(over1MB) / n
	// ~30% of web-search flows exceed 1 MB (they carry most bytes).
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("fraction over 1MB = %v", frac)
	}
}

func TestPoissonArrivals(t *testing.T) {
	p := NewPoissonForLoad(0.5, 16, 800e9, 1e6)
	// rate = 0.5 * 16 * 800e9 / 1e6 = 6.4e6 flows/s.
	if math.Abs(p.RatePerSec-6.4e6) > 1 {
		t.Errorf("rate = %v", p.RatePerSec)
	}
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += p.NextGapSec(rng)
	}
	mean := sum / n
	want := 1 / p.RatePerSec
	if math.Abs(mean-want) > want*0.05 {
		t.Errorf("mean gap %v, want %v", mean, want)
	}
}

func TestPoissonEdges(t *testing.T) {
	p := PoissonArrivals{}
	rng := rand.New(rand.NewSource(8))
	if !math.IsInf(p.NextGapSec(rng), 1) {
		t.Error("zero rate should never fire")
	}
	if NewPoissonForLoad(-1, 10, 1e9, 1e6).RatePerSec != 0 {
		t.Error("negative load should clamp")
	}
	if NewPoissonForLoad(0.5, 10, 1e9, 0).RatePerSec <= 0 {
		t.Error("zero mean bits should not divide by zero")
	}
}
