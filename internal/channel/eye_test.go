package channel

import (
	"math"
	"strings"
	"testing"
)

func cleanEyeConfig() EyeConfig {
	return EyeConfig{
		BitRate:     2e9,
		BandwidthHz: 1.5e9,
		HighLevel:   1.0,
		LowLevel:    0.0,
		NoiseSigma:  0.01,
		Seed:        1,
	}
}

func TestEyeValidate(t *testing.T) {
	bad := []func(*EyeConfig){
		func(c *EyeConfig) { c.BitRate = 0 },
		func(c *EyeConfig) { c.BandwidthHz = -1 },
		func(c *EyeConfig) { c.HighLevel = c.LowLevel },
		func(c *EyeConfig) { c.NoiseSigma = -0.1 },
	}
	for i, mutate := range bad {
		cfg := cleanEyeConfig()
		mutate(&cfg)
		if _, err := SimulateEye(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCleanEyeIsOpen(t *testing.T) {
	eye, err := SimulateEye(cleanEyeConfig())
	if err != nil {
		t.Fatal(err)
	}
	opening, _ := eye.BestOpening()
	// With BW/bitrate = 0.75 and tiny noise the eye should be well open:
	// more than half the full swing.
	if opening < 0.5 {
		t.Errorf("opening = %v, want > 0.5", opening)
	}
	if q := eye.QAtBestPhase(); q < 10 {
		t.Errorf("Q = %v, want comfortably high", q)
	}
}

func TestBandwidthStarvedEyeCloses(t *testing.T) {
	cfg := cleanEyeConfig()
	cfg.BandwidthHz = 0.15 * cfg.BitRate // heavy ISI
	eye, err := SimulateEye(cfg)
	if err != nil {
		t.Fatal(err)
	}
	open, _ := eye.BestOpening()
	ref, _ := SimulateEye(cleanEyeConfig())
	refOpen, _ := ref.BestOpening()
	if !(open < refOpen/2) {
		t.Errorf("starved eye %v should be far smaller than clean %v", open, refOpen)
	}
}

func TestNoiseShrinksOpening(t *testing.T) {
	quiet := cleanEyeConfig()
	loud := cleanEyeConfig()
	loud.NoiseSigma = 0.1
	e1, _ := SimulateEye(quiet)
	e2, _ := SimulateEye(loud)
	o1, _ := e1.BestOpening()
	o2, _ := e2.BestOpening()
	if !(o2 < o1) {
		t.Errorf("noisy eye %v should be smaller than quiet %v", o2, o1)
	}
}

func TestEyeQMatchesClosedForm(t *testing.T) {
	// The waveform Q at the best phase should land in the same ballpark as
	// the closed-form engine's Q for the equivalent channel. (The waveform
	// measures the worst observed pattern, the closed form an analytic
	// worst case; agreement within ~2.5x is the cross-check.)
	p := mosaicChannelParams(30)
	res, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := EyeFromOptical(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumBits = 6000
	eye, err := SimulateEye(cfg)
	if err != nil {
		t.Fatal(err)
	}
	qWave := eye.QAtBestPhase()
	ratio := qWave / res.Q
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("waveform Q %v vs closed-form Q %v (ratio %v)", qWave, res.Q, ratio)
	}
}

func TestEyeFromOpticalValidation(t *testing.T) {
	bad := mosaicChannelParams(10)
	bad.TxPowerW = 0
	if _, err := EyeFromOptical(bad, 1); err == nil {
		t.Error("invalid optical params accepted")
	}
}

func TestEyeRender(t *testing.T) {
	eye, err := SimulateEye(cleanEyeConfig())
	if err != nil {
		t.Fatal(err)
	}
	art := eye.Render(12)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 13 { // 12 rows + summary
		t.Fatalf("render has %d lines", len(lines))
	}
	if !strings.Contains(lines[12], "opening") {
		t.Error("missing summary line")
	}
	// The top and bottom rails must be dense (heavy shades near the rails)
	// while the eye centre stays sparse.
	topDense := strings.ContainsAny(lines[0]+lines[1], "#@")
	botDense := strings.ContainsAny(lines[10]+lines[11], "#@")
	midSparse := !strings.ContainsAny(lines[6], "#@")
	if !topDense || !botDense {
		t.Errorf("rails not dense:\n%s", art)
	}
	if !midSparse {
		t.Errorf("eye centre not open:\n%s", art)
	}
	// Default rows.
	if eye.Render(0) == "" {
		t.Error("default render empty")
	}
}

func TestOpeningAtPhaseWraps(t *testing.T) {
	eye, err := SimulateEye(cleanEyeConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := len(eye.Samples)
	if eye.OpeningAt(0) != eye.OpeningAt(n) {
		t.Error("phase should wrap")
	}
	if eye.OpeningAt(-1) != eye.OpeningAt(n-1) {
		t.Error("negative phase should wrap")
	}
}

func TestEyeDeterministic(t *testing.T) {
	a, _ := SimulateEye(cleanEyeConfig())
	b, _ := SimulateEye(cleanEyeConfig())
	oa, pa := a.BestOpening()
	ob, pb := b.BestOpening()
	if oa != ob || pa != pb {
		t.Error("same seed produced different eyes")
	}
}

func TestTransitionPhaseSmallerThanCenter(t *testing.T) {
	eye, err := SimulateEye(cleanEyeConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, best := eye.BestOpening()
	// Half a UI away from the best sampling point the opening must be
	// smaller (that is where transitions cross).
	worse := eye.OpeningAt(best + eye.SamplesPerUI/2)
	bestO := eye.OpeningAt(best)
	if !(worse < bestO) {
		t.Errorf("transition phase opening %v >= center %v", worse, bestO)
	}
}

func TestEyeNaNFree(t *testing.T) {
	cfg := cleanEyeConfig()
	cfg.NoiseSigma = 0
	eye, err := SimulateEye(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range eye.Samples {
		for _, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite sample")
			}
		}
	}
}

func BenchmarkSimulateEye(b *testing.B) {
	cfg := cleanEyeConfig()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateEye(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
