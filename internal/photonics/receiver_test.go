package photonics

import (
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/units"
)

func TestPDCatalogValid(t *testing.T) {
	for _, pd := range []Photodiode{SiPD()} {
		if err := pd.Validate(); err != nil {
			t.Errorf("%s: %v", pd.Name, err)
		}
	}
}

func TestResponsivityPhysical(t *testing.T) {
	for _, pd := range []Photodiode{SiPD()} {
		for _, lambda := range []float64{400e-9, 650e-9, 850e-9, 1310e-9} {
			r := pd.Responsivity(lambda)
			if r < 0 {
				t.Errorf("%s: negative responsivity at %v", pd.Name, lambda)
			}
			// Quantum limit: R <= qλ/hc.
			limit := units.ElectronCharge / units.PhotonEnergy(lambda)
			if r > limit*(1+1e-9) {
				t.Errorf("%s: responsivity %v exceeds quantum limit %v at %v", pd.Name, r, limit, lambda)
			}
		}
	}
}

func TestResponsivityBandEdgeRollOff(t *testing.T) {
	pd := SiPD()
	atPeak := pd.Responsivity(pd.PeakWavelengthM)
	past := pd.Responsivity(pd.PeakWavelengthM * 1.25)
	if !(past < atPeak/2) {
		t.Errorf("responsivity should collapse past the band edge: peak=%v past=%v", atPeak, past)
	}
	if pd.Responsivity(0) != 0 || pd.Responsivity(-1) != 0 {
		t.Error("nonpositive wavelength should give 0")
	}
}

func TestSiPDAtBlue(t *testing.T) {
	// Si at 430 nm: roughly 0.2-0.3 A/W. This anchors the Mosaic budget.
	r := SiPD().Responsivity(430e-9)
	if r < 0.15 || r > 0.40 {
		t.Errorf("Si responsivity at 430nm = %v, want ~0.2-0.3", r)
	}
}

func TestTIAValidation(t *testing.T) {
	for _, a := range []TIA{SimpleTIA()} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
	bad := SimpleTIA()
	bad.GainOhm = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero gain")
	}
}

func TestTIANoiseIntegration(t *testing.T) {
	a := SimpleTIA()
	n1 := a.InputNoiseCurrentSq(1e9)
	n2 := a.InputNoiseCurrentSq(2e9)
	if !units.ApproxEqual(n2, 2*n1, 1e-9) {
		t.Errorf("noise should integrate linearly in bandwidth: %v vs %v", n1, n2)
	}
	// Capped at the TIA's own bandwidth.
	nc := a.InputNoiseCurrentSq(100e9)
	nb := a.InputNoiseCurrentSq(a.BandwidthHz)
	if nc != nb {
		t.Error("noise integration should cap at TIA bandwidth")
	}
	if a.InputNoiseCurrentSq(-1) != 0 {
		t.Error("negative bandwidth should give 0")
	}
}

func TestMosaicReceiverBudget(t *testing.T) {
	rx := MosaicReceiver()
	if err := rx.Validate(); err != nil {
		t.Fatal(err)
	}
	// Receiver bandwidth must clear 2 Gbps NRZ (~1.4 GHz needed).
	if bw := rx.Bandwidth(); bw < 1.4e9 {
		t.Errorf("Mosaic receiver bandwidth %v too low for 2 Gbps", bw)
	}
	// Sensitivity: with ~1 uA of signal swing the SNR should be huge.
	sigma := rx.NoiseCurrentSigma(1e-6, 1.4e9)
	if q := 1e-6 / (2 * sigma); q < 6 {
		t.Errorf("Q with 1uA swing = %v; receiver too noisy", q)
	}
}

func TestNoiseSigmaGrowsWithCurrent(t *testing.T) {
	rx := MosaicReceiver()
	s0 := rx.NoiseCurrentSigma(0, 1e9)
	s1 := rx.NoiseCurrentSigma(1e-3, 1e9)
	if !(s1 > s0) {
		t.Error("shot noise should grow with photocurrent")
	}
	if s0 <= 0 {
		t.Error("thermal noise floor should be positive")
	}
}

func TestVariationSampleStats(t *testing.T) {
	v := DefaultVariation()
	rng := rand.New(rand.NewSource(42))
	n := 20000
	var sum, sumsq float64
	dead := 0
	for i := 0; i < n; i++ {
		s := v.Sample(rng)
		sum += math.Log(s.EQEFactor)
		sumsq += math.Log(s.EQEFactor) * math.Log(s.EQEFactor)
		if s.Dead {
			dead++
		}
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Errorf("log EQE factor mean = %v, want ~0", mean)
	}
	if math.Abs(sd-v.EQESigma) > 0.01 {
		t.Errorf("log EQE factor sd = %v, want %v", sd, v.EQESigma)
	}
	frac := float64(dead) / float64(n)
	if math.Abs(frac-v.DeadProb) > 0.003 {
		t.Errorf("dead fraction = %v, want %v", frac, v.DeadProb)
	}
}

func TestVariationZeroSigma(t *testing.T) {
	v := Variation{}
	rng := rand.New(rand.NewSource(1))
	s := v.Sample(rng)
	if s.EQEFactor != 1 || s.BandwidthFactor != 1 || s.RespFactor != 1 || s.Dead {
		t.Errorf("zero variation should be identity: %+v", s)
	}
}
