package reliability

import (
	"math"
	"math/rand"
	"testing"
)

func TestFITBasics(t *testing.T) {
	f := FIT(100)
	if f.LambdaPerHour() != 1e-7 {
		t.Errorf("lambda = %v", f.LambdaPerHour())
	}
	if got := Series(100, 200, 50); got != 350 {
		t.Errorf("series = %v", got)
	}
}

func TestSurvivalProb(t *testing.T) {
	f := FIT(1e9) // 1 failure/hour
	if got := f.SurvivalProb(1); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("survival = %v", got)
	}
	if FIT(0).SurvivalProb(1e9) != 1 {
		t.Error("zero FIT should always survive")
	}
}

func TestSparedSystemValidation(t *testing.T) {
	bad := []SparedSystem{
		{N: 0, Spares: 0, PerChannel: 1},
		{N: 5, Spares: 5, PerChannel: 1},
		{N: 5, Spares: -1, PerChannel: 1},
		{N: 5, Spares: 1, PerChannel: -1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if (SparedSystem{N: 5, Spares: 1, PerChannel: 1}).Validate() != nil {
		t.Error("valid system rejected")
	}
}

func TestNoSparesMatchesSeries(t *testing.T) {
	// With zero spares, the spared system is a plain series system of N
	// channels: survival = exp(-Nλt).
	s := SparedSystem{N: 100, Spares: 0, PerChannel: 10}
	hours := 5 * HoursPerYear
	want := math.Exp(-100 * FIT(10).LambdaPerHour() * hours)
	if got := s.SurvivalProb(hours); math.Abs(got-want) > 1e-9 {
		t.Errorf("survival = %v, want %v", got, want)
	}
}

func TestSparesImproveSurvival(t *testing.T) {
	hours := 5 * HoursPerYear
	prev := 0.0
	for spares := 0; spares <= 8; spares++ {
		s := SparedSystem{N: 400 + spares, Spares: spares, PerChannel: 6}
		got := s.SurvivalProb(hours)
		if got < prev {
			t.Fatalf("survival decreased with %d spares", spares)
		}
		prev = got
	}
	if prev < 0.999 {
		t.Errorf("8 spares over 408 channels should be bulletproof, got %v", prev)
	}
}

func TestEffectiveFITDropsSteeplyWithSpares(t *testing.T) {
	mission := 5 * HoursPerYear
	f0 := MosaicSystem(400, 0).EffectiveFIT(mission)
	f4 := MosaicSystem(400, 4).EffectiveFIT(mission)
	f8 := MosaicSystem(400, 8).EffectiveFIT(mission)
	if !(f4 < f0/10 && f8 < f4) {
		t.Errorf("spares not effective: %v %v %v", f0, f4, f8)
	}
}

func TestHeadlineMosaicBeatsLaserOptics(t *testing.T) {
	// E7 headline: a 416-channel Mosaic link with 16 spares has lower
	// effective FIT than an 8-laser DR8 pair, despite 50x the device count.
	mission := 5 * HoursPerYear
	mosaic := MosaicLinkFIT(400, 16, mission)
	dr8 := LinkFIT(FITLaserDFB, 8)
	if !(mosaic < dr8/10) {
		t.Errorf("Mosaic FIT %v should be far below DR8 %v", mosaic, dr8)
	}
	aoc := LinkFIT(FITLaserVCSEL, 8)
	if !(mosaic < aoc) {
		t.Errorf("Mosaic FIT %v should beat AOC %v", mosaic, aoc)
	}
}

func TestEffectiveFITEdges(t *testing.T) {
	s := SparedSystem{N: 10, Spares: 2, PerChannel: 0}
	if s.EffectiveFIT(1e6) != 0 {
		t.Error("zero channel FIT should give zero system FIT")
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Use a hot system so failures actually happen in the mission.
	s := SparedSystem{N: 100, Spares: 3, PerChannel: 2000}
	mission := 5 * HoursPerYear
	closed := s.SurvivalProb(mission)
	mc := MonteCarloSurvival(s, mission, 20000, rng)
	if math.Abs(closed-mc) > 0.02 {
		t.Errorf("closed form %v vs Monte Carlo %v", closed, mc)
	}
}

func TestMonteCarloEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if MonteCarloSurvival(SparedSystem{}, 1, 100, rng) != 0 {
		t.Error("invalid system should return 0")
	}
	if MonteCarloSurvival(SparedSystem{N: 2, Spares: 1, PerChannel: 1}, 1, 0, rng) != 0 {
		t.Error("zero trials should return 0")
	}
}

func TestRepairableAvailability(t *testing.T) {
	r := RepairableSystem{
		SparedSystem: SparedSystem{N: 416, Spares: 16, PerChannel: 6},
		MTTRHours:    24,
	}
	a, err := r.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if a < 0.999999 {
		t.Errorf("availability = %v; spared+repairable should be many nines", a)
	}
	// Versus an unspared series system of the same channels.
	r0 := RepairableSystem{
		SparedSystem: SparedSystem{N: 416, Spares: 0, PerChannel: 6},
		MTTRHours:    24,
	}
	a0, err := r0.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if !(a > a0) {
		t.Errorf("spares should improve availability: %v vs %v", a, a0)
	}
}

func TestAvailabilityErrors(t *testing.T) {
	r := RepairableSystem{
		SparedSystem: SparedSystem{N: 4, Spares: 1, PerChannel: 5},
	}
	if _, err := r.Availability(); err == nil {
		t.Error("zero MTTR accepted")
	}
	r = RepairableSystem{
		SparedSystem: SparedSystem{N: 0},
		MTTRHours:    1,
	}
	if _, err := r.Availability(); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestDowntimeConversion(t *testing.T) {
	if got := DowntimeSecondsPerYear(1); got != 0 {
		t.Errorf("perfect availability downtime = %v", got)
	}
	// Five nines ~ 315 seconds/year.
	got := DowntimeSecondsPerYear(0.99999)
	if got < 250 || got > 400 {
		t.Errorf("five nines downtime = %v s/yr", got)
	}
	if DowntimeSecondsPerYear(-1) != DowntimeSecondsPerYear(0) {
		t.Error("clamping broken")
	}
	if DowntimeSecondsPerYear(2) != 0 {
		t.Error("availability > 1 should clamp to 0 downtime")
	}
}

func TestLinkFITComposition(t *testing.T) {
	dr8 := LinkFIT(FITLaserDFB, 8)
	// 8 lasers dominate: 2*(8*500 + 8*5 + 8*10 + 50 + 5) = 2*4175 = 8350.
	if dr8 != 8350 {
		t.Errorf("DR8 FIT = %v, want 8350", dr8)
	}
	if aoc := LinkFIT(FITLaserVCSEL, 8); aoc >= dr8 {
		t.Errorf("VCSEL link %v should beat DFB link %v", aoc, dr8)
	}
}

func TestSurvivalMonotoneInTime(t *testing.T) {
	s := MosaicSystem(400, 4)
	prev := 1.0
	for _, years := range []float64{0.1, 1, 2, 5, 10, 20} {
		got := s.SurvivalProb(years * HoursPerYear)
		if got > prev {
			t.Fatalf("survival increased with time at %v years", years)
		}
		prev = got
	}
}

func BenchmarkSurvivalProb(b *testing.B) {
	s := MosaicSystem(400, 16)
	for i := 0; i < b.N; i++ {
		s.SurvivalProb(5 * HoursPerYear)
	}
}
