package channel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Waveform-level eye-diagram simulation. The closed-form engine in
// optical.go predicts BER from a single-pole ISI model; this file builds
// the actual eye by driving a random bit pattern through the same
// first-order channel, sampling the noisy waveform, and folding it on the
// unit interval. The two views of the channel agree (tested), and the eye
// renders as the classic figure a link-bringup lab would show.

// EyeConfig drives a waveform simulation.
type EyeConfig struct {
	BitRate      float64 // bit/s
	BandwidthHz  float64 // channel 3 dB bandwidth (single pole)
	HighLevel    float64 // signal level for a 1 (arbitrary units, e.g. A)
	LowLevel     float64 // signal level for a 0
	NoiseSigma   float64 // additive Gaussian noise, same units
	SamplesPerUI int     // horizontal resolution (default 32)
	NumBits      int     // pattern length (default 2000)
	Seed         int64
}

// Validate reports whether the configuration is usable.
func (c EyeConfig) Validate() error {
	switch {
	case c.BitRate <= 0:
		return errors.New("channel: eye needs a positive bit rate")
	case c.BandwidthHz <= 0:
		return errors.New("channel: eye needs a positive bandwidth")
	case c.HighLevel <= c.LowLevel:
		return errors.New("channel: high level must exceed low level")
	case c.NoiseSigma < 0:
		return errors.New("channel: negative noise")
	}
	return nil
}

// Eye is the folded two-UI eye: Samples[phase] collects the waveform
// values observed at that phase of the unit interval.
type Eye struct {
	SamplesPerUI int
	Samples      [][]float64 // len 2*SamplesPerUI (two UIs for display)
	cfg          EyeConfig
}

// SimulateEye runs the waveform simulation and folds the result.
func SimulateEye(cfg EyeConfig) (*Eye, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SamplesPerUI <= 0 {
		cfg.SamplesPerUI = 32
	}
	if cfg.NumBits <= 0 {
		cfg.NumBits = 2000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Single-pole lowpass: y += alpha * (x - y) per sample.
	dt := 1 / (cfg.BitRate * float64(cfg.SamplesPerUI))
	tau := 1 / (2 * math.Pi * cfg.BandwidthHz)
	alpha := dt / (tau + dt)

	eye := &Eye{
		SamplesPerUI: cfg.SamplesPerUI,
		Samples:      make([][]float64, 2*cfg.SamplesPerUI),
		cfg:          cfg,
	}
	for i := range eye.Samples {
		eye.Samples[i] = make([]float64, 0, cfg.NumBits/2)
	}

	y := cfg.LowLevel
	phase := 0
	for bit := 0; bit < cfg.NumBits; bit++ {
		x := cfg.LowLevel
		if rng.Intn(2) == 1 {
			x = cfg.HighLevel
		}
		for s := 0; s < cfg.SamplesPerUI; s++ {
			y += alpha * (x - y)
			if bit >= 8 { // let the filter settle before collecting
				v := y + rng.NormFloat64()*cfg.NoiseSigma
				eye.Samples[phase] = append(eye.Samples[phase], v)
			}
			phase = (phase + 1) % (2 * cfg.SamplesPerUI)
		}
	}
	return eye, nil
}

// OpeningAt returns the vertical eye opening at the given phase
// (0..2*SamplesPerUI-1): the gap between the lowest observed "high" and
// the highest observed "low", classified against the mid level. A closed
// eye returns a negative value.
func (e *Eye) OpeningAt(phase int) float64 {
	phase = ((phase % len(e.Samples)) + len(e.Samples)) % len(e.Samples)
	mid := (e.cfg.HighLevel + e.cfg.LowLevel) / 2
	minHigh := math.Inf(1)
	maxLow := math.Inf(-1)
	for _, v := range e.Samples[phase] {
		if v >= mid {
			if v < minHigh {
				minHigh = v
			}
		} else {
			if v > maxLow {
				maxLow = v
			}
		}
	}
	if math.IsInf(minHigh, 1) || math.IsInf(maxLow, -1) {
		return 0 // only one rail observed at this phase
	}
	return minHigh - maxLow
}

// BestOpening returns the widest vertical opening across phases, and the
// phase at which it occurs (the natural sampling point).
func (e *Eye) BestOpening() (opening float64, phase int) {
	best := math.Inf(-1)
	for p := range e.Samples {
		if len(e.Samples[p]) == 0 {
			continue
		}
		if o := e.OpeningAt(p); o > best {
			best, phase = o, p
		}
	}
	return best, phase
}

// QAtBestPhase estimates the Q-factor at the best sampling phase from the
// empirical level statistics: (mu1-mu0)/(sigma1+sigma0).
func (e *Eye) QAtBestPhase() float64 {
	_, phase := e.BestOpening()
	mid := (e.cfg.HighLevel + e.cfg.LowLevel) / 2
	var n1, n0 int
	var s1, s0, q1, q0 float64
	for _, v := range e.Samples[phase] {
		if v >= mid {
			n1++
			s1 += v
			q1 += v * v
		} else {
			n0++
			s0 += v
			q0 += v * v
		}
	}
	if n1 == 0 || n0 == 0 {
		return 0
	}
	mu1, mu0 := s1/float64(n1), s0/float64(n0)
	var sd1, sd0 float64
	if v := q1/float64(n1) - mu1*mu1; v > 0 {
		sd1 = math.Sqrt(v)
	}
	if v := q0/float64(n0) - mu0*mu0; v > 0 {
		sd0 = math.Sqrt(v)
	}
	if sd1+sd0 == 0 {
		return math.Inf(1)
	}
	return (mu1 - mu0) / (sd1 + sd0)
}

// Render draws the eye as ASCII art: rows are amplitude bins (top = high),
// columns are phase across two UIs, cell darkness is hit density.
func (e *Eye) Render(rows int) string {
	if rows <= 0 {
		rows = 16
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, col := range e.Samples {
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if !(hi > lo) {
		return "(empty eye)\n"
	}
	grid := make([][]int, rows)
	for r := range grid {
		grid[r] = make([]int, len(e.Samples))
	}
	maxHit := 1
	for p, col := range e.Samples {
		for _, v := range col {
			r := int((hi - v) / (hi - lo) * float64(rows-1))
			grid[r][p]++
			if grid[r][p] > maxHit {
				maxHit = grid[r][p]
			}
		}
	}
	shades := []byte(" .:*#@")
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for p := 0; p < len(e.Samples); p++ {
			d := grid[r][p] * (len(shades) - 1) / maxHit
			b.WriteByte(shades[d])
		}
		b.WriteByte('\n')
	}
	opening, phase := e.BestOpening()
	fmt.Fprintf(&b, "opening %.3g at phase %d/%d, Q=%.2f\n",
		opening, phase, len(e.Samples), e.QAtBestPhase())
	return b.String()
}

// EyeFromOptical builds an EyeConfig matching an OpticalParams channel at
// its decision point: levels are the photocurrents and the noise is the
// receiver's RMS noise current at the average level.
func EyeFromOptical(p OpticalParams, seed int64) (EyeConfig, error) {
	if err := p.Validate(); err != nil {
		return EyeConfig{}, err
	}
	r := p.evaluate()
	er := math.Pow(10, p.ExtinctionRatioDB/10)
	iavg := r.Photocurrent
	i1 := 2 * iavg * er / (er + 1)
	i0 := 2 * iavg / (er + 1)
	baud := p.BitRate / float64(p.Modulation.BitsPerSymbol())
	nbw := 0.75 * baud
	if r.BandwidthHz < nbw {
		nbw = r.BandwidthHz
	}
	return EyeConfig{
		BitRate:     baud,
		BandwidthHz: r.BandwidthHz,
		HighLevel:   i1,
		LowLevel:    i0,
		NoiseSigma:  p.Rx.NoiseCurrentSigma(iavg, nbw),
		Seed:        seed,
	}, nil
}
