package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/channel"
	"mosaic/internal/fiber"
	"mosaic/internal/phy"
	"mosaic/internal/power"
	"mosaic/internal/reliability"
)

func TestDefaultDesignValid(t *testing.T) {
	if err := DefaultDesign().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Design800G().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDesignValidationRejects(t *testing.T) {
	cases := []func(*Design){
		func(d *Design) { d.AggregateRate = 0 },
		func(d *Design) { d.ChannelRate = -1 },
		func(d *Design) { d.Spares = -1 },
		func(d *Design) { d.LengthM = -1 },
		func(d *Design) { d.SpotDiameterM = 0 },
		func(d *Design) { d.SpotDiameterM = d.ChannelPitchM * 2 },
		func(d *Design) { d.ExtinctionRatioDB = 0 },
		func(d *Design) { d.ChannelRate = d.AggregateRate * 2 }, // < 1 channel
		func(d *Design) { d.AggregateRate = 100e12 },            // bundle too small
	}
	for i, mutate := range cases {
		d := DefaultDesign()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: accepted invalid design", i)
		}
	}
}

func TestChannelCounts(t *testing.T) {
	d := DefaultDesign()
	if d.DataChannels() != 100 || d.TotalChannels() != 104 {
		t.Errorf("channels = %d/%d, want 100/104", d.DataChannels(), d.TotalChannels())
	}
	d8 := Design800G()
	if d8.DataChannels() != 400 || d8.TotalChannels() != 416 {
		t.Errorf("800G channels = %d/%d", d8.DataChannels(), d8.TotalChannels())
	}
}

func TestEvaluatePrototype(t *testing.T) {
	// E5: the 100-channel prototype at 2 m must have every live channel
	// below 1e-12 pre-FEC (the paper demonstrated error-free operation).
	rep, err := DefaultDesign().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Channels) != 104 {
		t.Fatalf("channels = %d", len(rep.Channels))
	}
	if rep.BelowTarget != 0 {
		t.Errorf("%d live channels above 1e-12 at 2 m", rep.BelowTarget)
	}
	if rep.MedianBER > 1e-13 {
		t.Errorf("median BER = %v", rep.MedianBER)
	}
	if rep.WorstMargin < 2 {
		t.Errorf("worst margin = %v dB", rep.WorstMargin)
	}
}

func TestEvaluateVariationSpreads(t *testing.T) {
	d := Design800G()
	d.LengthM = 40 // push toward the edge so variation is visible
	rep, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	// Channels must not all be identical.
	var distinct int
	seen := map[float64]bool{}
	for _, c := range rep.Channels {
		if !c.Dead && !seen[c.BER] {
			seen[c.BER] = true
			distinct++
		}
	}
	if distinct < 50 {
		t.Errorf("variation produced only %d distinct BERs", distinct)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	a, err := DefaultDesign().Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DefaultDesign().Evaluate()
	for i := range a.Channels {
		if a.Channels[i].BER != b.Channels[i].BER {
			t.Fatal("same seed produced different channel populations")
		}
	}
}

func TestMaxReachHeadline(t *testing.T) {
	// The abstract: "a reach of up to 50 m".
	d := DefaultDesign()
	reach := d.MaxReach(1e-12)
	if reach < 35 || reach > 120 {
		t.Errorf("reach = %.1f m, want ~50 m scale", reach)
	}
	// >25x the 112G copper reach.
	copper := channel.Twinax26AWG().MaxReach(channel.NyquistHz(106.25e9, channel.PAM4), 28)
	if reach < 25*copper {
		t.Errorf("reach %.1f m not >25x copper %.1f m", reach, copper)
	}
}

func TestNominalBERMonotoneInLength(t *testing.T) {
	d := DefaultDesign()
	prev := 0.0
	for _, l := range []float64{1, 10, 25, 50, 75, 100} {
		ber := d.NominalBERAt(l)
		if ber < prev {
			t.Fatalf("BER decreased at %v m", l)
		}
		prev = ber
	}
	if d.NominalBER() != d.NominalBERAt(d.LengthM) {
		t.Error("NominalBER inconsistent")
	}
}

func TestMisalignmentDegradesBER(t *testing.T) {
	aligned := DefaultDesign()
	aligned.LengthM = 45
	shifted := aligned
	shifted.LateralOffsetM = 15e-6
	if !(shifted.NominalBER() >= aligned.NominalBER()) {
		t.Error("misalignment should not improve BER")
	}
	// But 5 µm should be nearly free (the E6 tolerance claim).
	slight := aligned
	slight.LateralOffsetM = 5e-6
	if slight.NominalBER() > 1e-12 && aligned.NominalBER() < 1e-13 {
		t.Errorf("5um offset broke the channel: %v vs %v", slight.NominalBER(), aligned.NominalBER())
	}
}

func TestPowerBudgetCanonical(t *testing.T) {
	d := Design800G()
	b := d.PowerBudget()
	if b.Tech != power.Mosaic || b.RateBps != 800e9 {
		t.Fatalf("budget = %+v", b)
	}
	if b.TotalW() <= 0 {
		t.Error("zero power")
	}
}

func TestPowerBudgetNonCanonical(t *testing.T) {
	d := DefaultDesign()
	d.AggregateRate = 300e9 // not in the canonical table
	b := d.PowerBudget()
	if b.RateBps != 300e9 || b.TotalW() <= 0 {
		t.Fatalf("fallback budget = %+v", b)
	}
	if b.Component("gearbox") == 0 {
		t.Error("fallback budget missing gearbox")
	}
}

func TestReliabilityHeadline(t *testing.T) {
	d := Design800G()
	fit, survival := d.Reliability(5)
	if survival < 0.999 {
		t.Errorf("5-year survival = %v", survival)
	}
	if fit > 500 {
		t.Errorf("effective FIT = %v, should be far below a laser module", fit)
	}
}

func TestAvailability(t *testing.T) {
	// Steady-state availability with channel repair (replacing the
	// cable/module) at a 24 h MTTR.
	d := Design800G()
	r := reliability.RepairableSystem{
		SparedSystem: reliability.MosaicSystem(d.DataChannels(), d.Spares),
		MTTRHours:    24,
	}
	a, err := r.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if a < 0.9999999 {
		t.Errorf("availability = %v", a)
	}
	r.MTTRHours = 0
	if _, err := r.Availability(); err == nil {
		t.Error("zero MTTR accepted")
	}
}

func TestBuildPHYRoundTrip(t *testing.T) {
	d := DefaultDesign()
	link, err := d.BuildPHY()
	if err != nil {
		t.Fatal(err)
	}
	if link.Mapper().NumLanes() != 100 {
		t.Fatalf("lanes = %d", link.Mapper().NumLanes())
	}
	rng := rand.New(rand.NewSource(3))
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = make([]byte, 1500)
		rng.Read(frames[i])
	}
	got, st, err := link.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered != 32 {
		t.Fatalf("prototype dropped frames over 2 m: %+v", st)
	}
	for i := range got {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatal("frame corruption")
		}
	}
}

func TestBuildPHYKillsDeadChannels(t *testing.T) {
	d := DefaultDesign()
	d.Variation.DeadProb = 0.2 // force some dead channels
	rep, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadCount == 0 {
		t.Skip("no dead channels drawn; adjust seed")
	}
	link, err := d.BuildPHY()
	if err != nil {
		t.Fatal(err)
	}
	// Exchanging traffic must reveal the dead channels as unit loss.
	frames := [][]byte{make([]byte, 4000)}
	_, st, err := link.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	_ = st // dead lanes may or may not carry units for tiny exchanges
}

func TestBuildPHYInvalidDesign(t *testing.T) {
	d := DefaultDesign()
	d.AggregateRate = -1
	if _, err := d.BuildPHY(); err == nil {
		t.Error("invalid design accepted")
	}
	if _, err := d.Evaluate(); err == nil {
		t.Error("Evaluate accepted invalid design")
	}
}

func TestCompareTechnologies(t *testing.T) {
	rows, err := DefaultDesign().CompareTechnologies(800e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(power.AllTechs()) {
		t.Fatalf("rows = %d", len(rows))
	}
	byTech := map[power.Tech]TechSummary{}
	for _, r := range rows {
		byTech[r.Tech] = r
		if r.PowerW < 0 || r.PJPerBit < 0 || r.ReachM < 0 {
			t.Errorf("negative values in row %+v", r)
		}
	}
	// The trade-off table must show: copper short+cheap+reliable, optics
	// long+hot+fragile, Mosaic long-enough+cheap+reliable.
	dac, dr, mosaic := byTech[power.DAC], byTech[power.DR], byTech[power.Mosaic]
	if !(dac.ReachM < 5 && mosaic.ReachM > 25*dac.ReachM) {
		t.Errorf("reach story broken: dac %.1f mosaic %.1f", dac.ReachM, mosaic.ReachM)
	}
	if !(mosaic.PowerW < dr.PowerW*0.5) {
		t.Errorf("power story broken: mosaic %.1f dr %.1f", mosaic.PowerW, dr.PowerW)
	}
	if !(mosaic.LinkFIT < dr.LinkFIT/10) {
		t.Errorf("reliability story broken: mosaic %.0f dr %.0f", mosaic.LinkFIT, dr.LinkFIT)
	}
	if _, err := DefaultDesign().CompareTechnologies(5e9); err == nil {
		t.Error("bad rate accepted")
	}
}

func TestWithOptics(t *testing.T) {
	d := DefaultDesign()
	o := fiber.DefaultOptics()
	got, err := d.WithOptics(o, 0.40)
	if err != nil {
		t.Fatal(err)
	}
	// The default optics image the 4 µm LED onto the 40 µm spot the design
	// already assumed.
	if math.Abs(got.SpotDiameterM-40e-6) > 1e-9 {
		t.Errorf("spot = %v", got.SpotDiameterM)
	}
	// System extraction: 0.40 chip x ~1.85 dB optics ≈ 0.26 — the same
	// class as the folded-in 0.30, so reach survives.
	if got.LED.ExtractionEff < 0.2 || got.LED.ExtractionEff > 0.32 {
		t.Errorf("system extraction = %v", got.LED.ExtractionEff)
	}
	if reach := got.MaxReach(1e-12); reach < 40 {
		t.Errorf("explicit-optics reach = %v m, want still ~50 m class", reach)
	}
}

func TestWithOpticsDefocusCostsReach(t *testing.T) {
	d := DefaultDesign()
	focused, err := d.WithOptics(fiber.DefaultOptics(), 0.40)
	if err != nil {
		t.Fatal(err)
	}
	blurryOptics := fiber.DefaultOptics()
	blurryOptics.DefocusM = 200e-6 // blur ~20 µm: spot ~44.7 µm, still under the 50 µm pitch
	blurred, err := d.WithOptics(blurryOptics, 0.40)
	if err != nil {
		t.Fatal(err)
	}
	if !(blurred.SpotDiameterM > focused.SpotDiameterM) {
		t.Error("defocus should grow the spot")
	}
	// A bigger spot couples into more cores but leaks into neighbours; at
	// fixed pitch the reach must not improve.
	if blurred.MaxReach(1e-12) > focused.MaxReach(1e-12)+1 {
		t.Error("defocus should not improve reach")
	}
}

func TestWithOpticsValidation(t *testing.T) {
	d := DefaultDesign()
	bad := fiber.DefaultOptics()
	bad.Magnification = 0
	if _, err := d.WithOptics(bad, 0.4); err == nil {
		t.Error("invalid optics accepted")
	}
	if _, err := d.WithOptics(fiber.DefaultOptics(), 0); err == nil {
		t.Error("zero chip extraction accepted")
	}
	if _, err := d.WithOptics(fiber.DefaultOptics(), 1.5); err == nil {
		t.Error("extraction above 1 accepted")
	}
	// A spot bigger than the channel pitch must be rejected downstream.
	huge := fiber.DefaultOptics()
	huge.Magnification = 20
	if _, err := d.WithOptics(huge, 0.4); err == nil {
		t.Error("80um spot on a 50um pitch accepted")
	}
}

func TestCombineDB(t *testing.T) {
	// Two equal levels add 3 dB.
	if got := combineDB(-40, -40); math.Abs(got-(-36.99)) > 0.02 {
		t.Errorf("combineDB(-40,-40) = %v", got)
	}
	// -Inf is transparent.
	if got := combineDB(-40, math.Inf(-1)); math.Abs(got-(-40)) > 1e-9 {
		t.Errorf("combineDB with -Inf = %v", got)
	}
	if !math.IsInf(combineDB(math.Inf(-1), math.Inf(-1)), -1) {
		t.Error("both -Inf should stay -Inf")
	}
}

func TestBuildPHYUsesConfiguredFEC(t *testing.T) {
	d := DefaultDesign()
	d.FEC = phy.HammingFEC{}
	link, err := d.BuildPHY()
	if err != nil {
		t.Fatal(err)
	}
	if link.Config().FEC.Name() != "hamming72" {
		t.Errorf("FEC = %s", link.Config().FEC.Name())
	}
}
