package fiber

import (
	"math"
	"testing"
	"testing/quick"

	"mosaic/internal/units"
)

func TestDefaultImagingFiberValid(t *testing.T) {
	if err := DefaultImagingFiber().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImagingValidateRejects(t *testing.T) {
	cases := []func(*ImagingFiber){
		func(f *ImagingFiber) { f.CorePitchM = 0 },
		func(f *ImagingFiber) { f.CoreDiameterM = f.CorePitchM * 2 },
		func(f *ImagingFiber) { f.BundleDiameterM = f.CorePitchM / 2 },
		func(f *ImagingFiber) { f.NA = 0 },
		func(f *ImagingFiber) { f.NA = 1.2 },
		func(f *ImagingFiber) { f.AttenDBPerM = -1 },
		func(f *ImagingFiber) { f.XTalkDBPerM = 3 },
	}
	for i, mutate := range cases {
		f := DefaultImagingFiber()
		mutate(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid fiber", i)
		}
	}
}

func TestCoreCountThousands(t *testing.T) {
	// The paper's imaging fibers hold thousands of cores in one strand.
	n := DefaultImagingFiber().CoreCount()
	if n < 5000 || n > 100000 {
		t.Errorf("core count = %d, want thousands", n)
	}
}

func TestAttenuationLinear(t *testing.T) {
	f := DefaultImagingFiber()
	if got := f.AttenuationDB(10); !units.ApproxEqual(got, 10*f.AttenDBPerM, 1e-12) {
		t.Errorf("attenuation(10m) = %v", got)
	}
	if f.AttenuationDB(-1) != 0 || f.AttenuationDB(0) != 0 {
		t.Error("nonpositive length should have zero attenuation")
	}
	// 50 m at 0.2 dB/m = 10 dB: the loss that caps reach near 50 m.
	if got := f.AttenuationDB(50); got > 12 {
		t.Errorf("50m attenuation = %v dB; breaks the 50m reach claim", got)
	}
}

func TestModalBandwidthOverReach(t *testing.T) {
	f := DefaultImagingFiber()
	// At 50 m a 300 MHz·km core still gives 6 GHz: dispersion is not the
	// limiter at 2 Gbps — exactly the wide-and-slow argument.
	bw := f.ModalBandwidth(50)
	if bw < 2e9 {
		t.Errorf("modal bandwidth at 50m = %v, should clear 2 Gbps", bw)
	}
	if !math.IsInf(f.ModalBandwidth(0), 1) {
		t.Error("zero length should be unlimited")
	}
}

func TestCrosstalkGrowsWithLength(t *testing.T) {
	f := DefaultImagingFiber()
	x1 := f.AdjacentCrosstalkDB(1)
	x10 := f.AdjacentCrosstalkDB(10)
	if !(x10 > x1) {
		t.Errorf("crosstalk should accumulate: %v vs %v", x1, x10)
	}
	if !units.ApproxEqual(x10-x1, 10, 1e-9) {
		t.Errorf("10x length should add 10 dB of crosstalk, got %v", x10-x1)
	}
	if !math.IsInf(f.AdjacentCrosstalkDB(0), -1) {
		t.Error("zero length should have no crosstalk")
	}
	// Still low at 50 m: < -25 dB keeps the eye open.
	if x := f.AdjacentCrosstalkDB(50); x > -25 {
		t.Errorf("crosstalk at 50m = %v dB, too high", x)
	}
}

func TestCircleOverlapFraction(t *testing.T) {
	if got := circleOverlapFraction(1, 0); got != 1 {
		t.Errorf("full overlap = %v", got)
	}
	if got := circleOverlapFraction(1, 2); got != 0 {
		t.Errorf("no overlap = %v", got)
	}
	if got := circleOverlapFraction(1, 5); got != 0 {
		t.Errorf("far apart = %v", got)
	}
	// Monotone decreasing in d.
	prev := 1.0
	for d := 0.0; d <= 2.0; d += 0.05 {
		cur := circleOverlapFraction(1, d)
		if cur > prev+1e-12 {
			t.Fatalf("overlap not monotone at d=%v", d)
		}
		prev = cur
	}
	if circleOverlapFraction(0, 0.1) != 0 {
		t.Error("zero radius should be 0")
	}
}

func TestCouplingLossAligned(t *testing.T) {
	f := DefaultImagingFiber()
	loss := f.CouplingLossDB(40e-6, 0)
	// Fill factor (~0.51) + Fresnel: expect ~3-4 dB at perfect alignment.
	if loss < 2 || loss > 5 {
		t.Errorf("aligned coupling loss = %v dB, want ~3", loss)
	}
}

func TestCouplingLossMonotoneInOffset(t *testing.T) {
	f := DefaultImagingFiber()
	spot := 40e-6
	prev := f.CouplingLossDB(spot, 0)
	for off := 2e-6; off < spot; off += 2e-6 {
		cur := f.CouplingLossDB(spot, off)
		if cur < prev-1e-9 {
			t.Fatalf("coupling loss should grow with offset at %v", off)
		}
		prev = cur
	}
	if !math.IsInf(f.CouplingLossDB(spot, spot*2), 1) {
		t.Error("fully off-target spot should be dark")
	}
	// Symmetric in sign.
	if f.CouplingLossDB(spot, 5e-6) != f.CouplingLossDB(spot, -5e-6) {
		t.Error("offset sign should not matter")
	}
}

func TestMisalignmentToleranceTensOfMicrons(t *testing.T) {
	// E6 claim: the spot spans many cores, so 10 µm of misalignment costs
	// little (< 3 dB extra) — unthinkable for single-mode optics.
	f := DefaultImagingFiber()
	spot := 40e-6
	extra := f.CouplingLossDB(spot, 10e-6) - f.CouplingLossDB(spot, 0)
	if extra > 3 {
		t.Errorf("10um misalignment penalty = %v dB, want < 3", extra)
	}
}

func TestNeighborLeak(t *testing.T) {
	f := DefaultImagingFiber()
	spot, pitch := 40e-6, 50e-6
	aligned := f.MisalignedNeighborLeakDB(spot, 0, pitch)
	shifted := f.MisalignedNeighborLeakDB(spot, 20e-6, pitch)
	if !math.IsInf(aligned, -1) && aligned > -20 {
		t.Errorf("aligned neighbour leak = %v dB, should be tiny", aligned)
	}
	if !(shifted > aligned) {
		t.Errorf("shifting toward neighbour should increase leak: %v vs %v", aligned, shifted)
	}
}

func TestMaxChannelsHoldsPrototypeAndScale(t *testing.T) {
	f := DefaultImagingFiber()
	// 50 µm channel pitch: enough spots for 100 channels (prototype) and
	// 400+ (800G scale point).
	n := f.MaxChannels(50e-6)
	if n < 100 {
		t.Errorf("bundle holds only %d channels at 50um pitch; prototype needs 100", n)
	}
	if f.MaxChannels(0) != 0 {
		t.Error("zero pitch should be rejected")
	}
}

func TestCouplingLossQuickProperty(t *testing.T) {
	f := DefaultImagingFiber()
	prop := func(rawSpot, rawOff float64) bool {
		spot := 10e-6 + math.Abs(math.Mod(rawSpot, 90e-6))
		off := math.Abs(math.Mod(rawOff, spot))
		loss := f.CouplingLossDB(spot, off)
		return loss >= 0 || math.IsInf(loss, 1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
