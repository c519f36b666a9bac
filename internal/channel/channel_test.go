package channel

import (
	"math"
	"testing"
	"testing/quick"

	"mosaic/internal/fiber"
	"mosaic/internal/photonics"
	"mosaic/internal/units"
)

func TestCopperCatalog(t *testing.T) {
	if c := Twinax26AWG(); c.Validate() != nil {
		t.Errorf("%s: %v", c.Name, c.Validate())
	}
	bad := Copper{}
	if bad.Validate() == nil {
		t.Error("lossless copper accepted")
	}
	neg := Twinax26AWG()
	neg.SkinDBPerMRtGHz = -1
	if neg.Validate() == nil {
		t.Error("negative loss accepted")
	}
}

func TestCopperInsertionLossShape(t *testing.T) {
	c := Twinax26AWG()
	// Loss grows with both frequency and length.
	l1 := c.InsertionLossDB(10e9, 1)
	l2 := c.InsertionLossDB(20e9, 1)
	l3 := c.InsertionLossDB(10e9, 2)
	if !(l2 > l1 && l3 > l1) {
		t.Errorf("loss not monotone: %v %v %v", l1, l2, l3)
	}
	if got := c.InsertionLossDB(0, 5); got != c.FixedDB {
		t.Errorf("zero frequency should cost only fixed loss: %v", got)
	}
}

func TestCopperReachCollapsesWithRate(t *testing.T) {
	// The motivating trend: as per-lane rate rises, copper reach collapses.
	c := Twinax26AWG()
	const budget = 28.0
	r25 := c.MaxReach(NyquistHz(25e9, NRZ), budget)       // 25G NRZ (12.5 GHz)
	r50 := c.MaxReach(NyquistHz(56e9, PAM4), budget)      // 56G PAM4 (14 GHz)
	r100 := c.MaxReach(NyquistHz(106.25e9, PAM4), budget) // 100G PAM4
	r200 := c.MaxReach(NyquistHz(212.5e9, PAM4), budget)  // 200G PAM4
	if !(r25 > r50 && r50 > r100 && r100 > r200) {
		t.Errorf("reach should fall with rate: %v %v %v %v", r25, r50, r100, r200)
	}
	// 100G PAM4 DAC: the familiar ~2 m.
	if r100 < 1.2 || r100 > 3.5 {
		t.Errorf("112G PAM4 copper reach = %.2f m, want ~2 m", r100)
	}
	// 25G NRZ: several metres.
	if r25 < 3 {
		t.Errorf("25G copper reach = %.2f m, want > 3 m", r25)
	}
}

func TestCopperReachEdges(t *testing.T) {
	c := Twinax26AWG()
	if c.MaxReach(26e9, c.FixedDB) != 0 {
		t.Error("budget equal to fixed loss leaves nothing for cable")
	}
	if c.MaxReach(0, 30) != 0 {
		t.Error("zero Nyquist is not a link")
	}
}

func TestNyquist(t *testing.T) {
	if got := NyquistHz(100e9, PAM4); got != 25e9 {
		t.Errorf("Nyquist(100G PAM4) = %v, want 25G", got)
	}
	if got := NyquistHz(2e9, NRZ); got != 1e9 {
		t.Errorf("Nyquist(2G NRZ) = %v, want 1G", got)
	}
	if NyquistHz(-5, NRZ) != 0 {
		t.Error("negative rate should give 0")
	}
}

func TestModulation(t *testing.T) {
	if NRZ.BitsPerSymbol() != 1 || PAM4.BitsPerSymbol() != 2 {
		t.Error("bits per symbol wrong")
	}
	if NRZ.String() != "NRZ" || PAM4.String() != "PAM4" {
		t.Error("names wrong")
	}
}

// mosaicChannelParams builds the paper's per-channel operating point: a
// default microLED at nominal drive, imaging fiber of the given length, a
// Mosaic receiver, 2 Gbps NRZ.
func mosaicChannelParams(lengthM float64) OpticalParams {
	led := photonics.DefaultMicroLED()
	f := fiber.DefaultImagingFiber()
	i := led.NominalCurrent()
	return OpticalParams{
		TxPowerW:          led.OpticalPower(i) / 2, // average of OOK = half peak
		TxBandwidthHz:     led.Bandwidth(i),
		WavelengthM:       led.WavelengthM,
		RINdBHz:           led.RINdBHz,
		ExtinctionRatioDB: 12,
		PathLossDB:        f.CouplingLossDB(40e-6, 0)*2 + f.AttenuationDB(lengthM),
		MediumBWHz:        f.ModalBandwidth(lengthM),
		CrosstalkDB:       f.AdjacentCrosstalkDB(lengthM),
		Rx:                photonics.MosaicReceiver(),
		BitRate:           2e9,
		Modulation:        NRZ,
	}
}

func TestMosaicChannelAt2m(t *testing.T) {
	p := mosaicChannelParams(2)
	r, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if r.BER > 1e-12 {
		t.Errorf("2m Mosaic channel BER = %.2e, want < 1e-12: %v", r.BER, r)
	}
	if r.MarginDB < 3 {
		t.Errorf("2m margin = %.1f dB, want healthy margin: %v", r.MarginDB, r)
	}
}

func TestMosaicChannelReach50m(t *testing.T) {
	// The headline claim: ~50 m reach at 2 Gbps/channel, >25x copper.
	p := mosaicChannelParams(0)
	f := fiber.DefaultImagingFiber()
	reach := p.MaxReach(1e-12, f.AttenDBPerM, func(l float64) float64 {
		return f.ModalBandwidth(l)
	})
	if reach < 30 || reach > 200 {
		t.Errorf("Mosaic reach = %.1f m, want ~50 m scale", reach)
	}
	copper := Twinax26AWG().MaxReach(NyquistHz(106.25e9, PAM4), 28)
	if reach < 25*copper {
		t.Errorf("Mosaic reach %.1f m not >25x copper %.1f m", reach, copper)
	}
}

func TestBERMonotoneInLength(t *testing.T) {
	prev := -1.0
	for _, l := range []float64{1, 5, 10, 20, 40, 60, 80, 120} {
		ber := mosaicChannelParams(l).BER()
		if ber < prev {
			t.Fatalf("BER should be non-decreasing in length at %vm", l)
		}
		prev = ber
	}
}

func TestBERMonotoneInPower(t *testing.T) {
	p := mosaicChannelParams(30)
	prop := func(raw float64) bool {
		extra := math.Abs(math.Mod(raw, 6))
		hi := p
		hi.TxPowerW = p.TxPowerW * units.FromDB(extra)
		return hi.BER() <= p.BER()*(1+1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestEvaluateValidation(t *testing.T) {
	bad := mosaicChannelParams(2)
	bad.TxPowerW = 0
	if _, err := bad.Evaluate(); err == nil {
		t.Error("zero power accepted")
	}
	bad = mosaicChannelParams(2)
	bad.BitRate = -1
	if _, err := bad.Evaluate(); err == nil {
		t.Error("negative bit rate accepted")
	}
	bad = mosaicChannelParams(2)
	bad.ExtinctionRatioDB = 0
	if _, err := bad.Evaluate(); err == nil {
		t.Error("zero extinction ratio accepted")
	}
}

func TestEyeFactor(t *testing.T) {
	if got := eyeFactor(math.Inf(1), 2e9); got != 1 {
		t.Errorf("infinite bandwidth should have unit eye, got %v", got)
	}
	if got := eyeFactor(1e6, 2e9); got != 0 {
		t.Errorf("starved bandwidth should close the eye, got %v", got)
	}
	// Monotone in bandwidth.
	prev := 0.0
	for bw := 0.2e9; bw < 5e9; bw += 0.2e9 {
		cur := eyeFactor(bw, 2e9)
		if cur < prev {
			t.Fatalf("eye factor not monotone at %v", bw)
		}
		prev = cur
	}
	if eyeFactor(1e9, 0) != 0 {
		t.Error("zero baud should be 0")
	}
}

func TestBandwidth3dB(t *testing.T) {
	// Two equal poles: f/sqrt(2).
	got := bandwidth3dB(1e9, 1e9)
	if !units.ApproxEqual(got, 1e9/math.Sqrt2, 1e-9) {
		t.Errorf("two equal poles = %v", got)
	}
	// Infinite poles are transparent.
	if got := bandwidth3dB(2e9, math.Inf(1)); !units.ApproxEqual(got, 2e9, 1e-9) {
		t.Errorf("inf pole = %v", got)
	}
	if bandwidth3dB(0, 1e9) != 0 {
		t.Error("zero pole should kill the channel")
	}
	if !math.IsInf(bandwidth3dB(math.Inf(1)), 1) {
		t.Error("all-infinite should be infinite")
	}
}

func TestCrosstalkDegrades(t *testing.T) {
	clean := mosaicChannelParams(30)
	clean.CrosstalkDB = math.Inf(-1)
	dirty := mosaicChannelParams(30)
	dirty.CrosstalkDB = -15
	if !(dirty.BER() >= clean.BER()) {
		t.Error("crosstalk should not improve BER")
	}
	awful := mosaicChannelParams(30)
	awful.CrosstalkDB = -2
	if awful.BER() != 0.5 {
		t.Errorf("overwhelming crosstalk should close the eye, BER=%v", awful.BER())
	}
}

func TestPAM4NeedsMorePower(t *testing.T) {
	// PAM4 at the same bit rate has a ~3x smaller eye: its BER must be
	// worse than NRZ at identical optics.
	nrz := mosaicChannelParams(40)
	pam := mosaicChannelParams(40)
	pam.Modulation = PAM4
	if !(pam.BER() > nrz.BER()) {
		t.Errorf("PAM4 BER %v should exceed NRZ %v", pam.BER(), nrz.BER())
	}
}

func TestMarginDBSigns(t *testing.T) {
	good := mosaicChannelParams(2)
	if m := good.MarginDB(1e-12); m <= 0 {
		t.Errorf("short link should have positive margin, got %v", m)
	}
	bad := mosaicChannelParams(150)
	if m := bad.MarginDB(1e-12); m > 0 {
		t.Errorf("150 m link should have negative margin, got %v", m)
	}
}

func TestMaxReachEdges(t *testing.T) {
	p := mosaicChannelParams(0)
	if !math.IsInf(p.MaxReach(1e-12, 0, nil), 1) {
		t.Error("lossless medium should have unbounded reach")
	}
	hopeless := p
	hopeless.TxPowerW = 1e-12
	if r := hopeless.MaxReach(1e-12, 0.1, nil); r != 0 {
		t.Errorf("dark transmitter should have zero reach, got %v", r)
	}
}

func TestResultString(t *testing.T) {
	r, err := mosaicChannelParams(10).Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if s := r.String(); s == "" {
		t.Error("empty result string")
	}
}
