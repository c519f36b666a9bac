package channel

import (
	"errors"
	"fmt"
	"math"

	"mosaic/internal/photonics"
	"mosaic/internal/units"
)

// Modulation selects the line modulation format.
type Modulation int

// Supported modulation formats.
const (
	NRZ  Modulation = iota // on-off keying, 1 bit/symbol
	PAM4                   // 4-level, 2 bits/symbol
)

// BitsPerSymbol returns the number of bits carried per symbol.
func (m Modulation) BitsPerSymbol() int {
	if m == PAM4 {
		return 2
	}
	return 1
}

// String names the format.
func (m Modulation) String() string {
	if m == PAM4 {
		return "PAM4"
	}
	return "NRZ"
}

// OpticalParams fully describes one optical channel for the BER engine.
// All the physics (device curves, fiber loss, coupling, misalignment) is
// reduced to these numbers by the caller; Evaluate then applies the
// standard Gaussian-noise link analysis.
type OpticalParams struct {
	// Transmitter.
	TxPowerW          float64 // average launched optical power (W)
	TxBandwidthHz     float64 // transmitter 3 dB bandwidth
	WavelengthM       float64
	RINdBHz           float64 // transmitter intensity noise
	ExtinctionRatioDB float64 // P1/P0 in dB

	// Path.
	PathLossDB float64 // fiber + coupling + connector loss, dB
	MediumBWHz float64 // dispersion-limited bandwidth of the medium
	// CrosstalkDB is the aggregate interferer power relative to the signal,
	// in dB (negative). Use math.Inf(-1) for a clean channel.
	CrosstalkDB float64

	// Receiver.
	Rx photonics.Receiver

	// Signalling.
	BitRate    float64
	Modulation Modulation
}

// Result reports the evaluated channel quality.
type Result struct {
	RxPowerW     float64 // received average optical power
	RxPowerDBm   float64
	Photocurrent float64 // average signal photocurrent (A)
	BandwidthHz  float64 // end-to-end 3 dB bandwidth (tx ∥ medium ∥ rx)
	EyeFactor    float64 // vertical eye opening factor from ISI, 0..1
	Q            float64 // Q-factor at the decision point
	BER          float64
	MarginDB     float64 // extra path loss tolerated at BER 1e-12
}

// Validate reports whether the parameters are meaningful.
func (p OpticalParams) Validate() error {
	switch {
	case p.TxPowerW <= 0:
		return errors.New("channel: transmit power must be positive")
	case p.TxBandwidthHz <= 0:
		return errors.New("channel: transmitter bandwidth must be positive")
	case p.WavelengthM <= 0:
		return errors.New("channel: wavelength must be positive")
	case p.BitRate <= 0:
		return errors.New("channel: bit rate must be positive")
	case p.ExtinctionRatioDB <= 0:
		return errors.New("channel: extinction ratio must be positive dB")
	case p.PathLossDB < 0:
		return errors.New("channel: path loss cannot be negative")
	}
	return p.Rx.Validate()
}

// bandwidth3dB combines cascaded single-pole bandwidths.
func bandwidth3dB(poles ...float64) float64 {
	inv := 0.0
	for _, f := range poles {
		if f <= 0 {
			return 0
		}
		if math.IsInf(f, 1) {
			continue
		}
		inv += 1 / (f * f)
	}
	if inv == 0 {
		return math.Inf(1)
	}
	return 1 / math.Sqrt(inv)
}

// eyeFactor returns the worst-case vertical eye opening (0..1) for a
// first-order channel of bandwidth bw signalling at the given baud rate:
// 1 - 2·exp(-2π·bw/baud), the classic isolated-transition eye closure.
func eyeFactor(bw, baud float64) float64 {
	if baud <= 0 {
		return 0
	}
	if math.IsInf(bw, 1) {
		return 1
	}
	k := 1 - 2*math.Exp(-2*math.Pi*bw/baud)
	if k < 0 {
		return 0
	}
	return k
}

// evaluate computes everything except the margin.
func (p OpticalParams) evaluate() Result {
	var r Result
	r.RxPowerW = p.TxPowerW * units.FromDB(-p.PathLossDB)
	r.RxPowerDBm = units.DBm(r.RxPowerW)

	// Average signal photocurrent (dark current contributes only noise).
	iavg := p.Rx.PD.Responsivity(p.WavelengthM) * r.RxPowerW
	r.Photocurrent = iavg

	medium := p.MediumBWHz
	if medium == 0 {
		medium = math.Inf(1)
	}
	r.BandwidthHz = bandwidth3dB(p.TxBandwidthHz, medium, p.Rx.Bandwidth())

	baud := p.BitRate / float64(p.Modulation.BitsPerSymbol())
	r.EyeFactor = eyeFactor(r.BandwidthHz, baud)
	if r.EyeFactor == 0 {
		r.BER = 0.5
		return r
	}

	// Level currents from average power and extinction ratio:
	// iavg = (i1+i0)/2, er = i1/i0.
	er := units.FromDB(p.ExtinctionRatioDB)
	i1 := 2 * iavg * er / (er + 1)
	i0 := 2 * iavg / (er + 1)
	swing := (i1 - i0) * r.EyeFactor

	// Crosstalk: deterministic worst-case amplitude subtraction. The
	// aggregate interferer photocurrent eats into the eye from both rails.
	if p.CrosstalkDB != 0 && !math.IsInf(p.CrosstalkDB, -1) {
		swing -= 2 * i1 * units.FromDB(p.CrosstalkDB)
		if swing <= 0 {
			r.BER = 0.5
			return r
		}
	}

	// Noise bandwidth: ~0.75 × baud for a matched-ish receiver, capped by
	// the physical bandwidth.
	nbw := 0.75 * baud
	if r.BandwidthHz < nbw {
		nbw = r.BandwidthHz
	}
	noise := func(level float64) float64 {
		n := p.Rx.Amp.InputNoiseCurrentSq(nbw) +
			units.ShotNoiseCurrentSq(level, nbw) +
			units.ShotNoiseCurrentSq(p.Rx.PD.DarkCurrentA, nbw) +
			units.RINNoiseCurrentSq(level, p.RINdBHz, nbw)
		return math.Sqrt(n)
	}

	switch p.Modulation {
	case PAM4:
		// Three eyes, each a third of the swing; the top eye sees the most
		// level noise. BER ≈ (3/4)·Q(top eye) with Gray coding.
		q := (swing / 3) / (noise(i1) + noise(i1*2/3+i0/3))
		r.Q = q
		r.BER = 0.75 * math.Erfc(q/math.Sqrt2) / 2
	default:
		q := swing / (noise(i1) + noise(i0))
		r.Q = q
		r.BER = units.BERFromQ(q)
	}
	return r
}

// Evaluate runs the link analysis and returns the channel quality,
// including the optical margin to a pre-FEC BER of 1e-12.
func (p OpticalParams) Evaluate() (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	r := p.evaluate()
	r.MarginDB = p.MarginDB(1e-12)
	return r, nil
}

// EvaluateBasic is Evaluate without the margin search: every field of the
// result except MarginDB (left zero) is identical to Evaluate's. The
// margin bisection re-runs the full link budget ~50 times per channel, so
// callers that only consume BER/Q/power — the bit-true PHY construction
// evaluating hundreds of channel instances — use this path.
func (p OpticalParams) EvaluateBasic() (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return p.evaluate(), nil
}

// BER returns just the bit error rate (0.5 on invalid parameters).
func (p OpticalParams) BER() float64 {
	if err := p.Validate(); err != nil {
		return 0.5
	}
	return p.evaluate().BER
}

// MarginDB returns how much additional path loss keeps BER <= target.
// Negative means the channel already misses target by that many dB of
// equivalent loss; -Inf means it fails even with 60 dB less loss.
func (p OpticalParams) MarginDB(target float64) float64 {
	berAt := func(extra float64) float64 {
		q := p
		q.PathLossDB = p.PathLossDB + extra
		if q.PathLossDB < 0 {
			q.PathLossDB = 0
		}
		return q.evaluate().BER
	}
	lo, hi := -60.0, 80.0
	switch {
	case berAt(lo) > target:
		return math.Inf(-1)
	case berAt(hi) <= target:
		return hi
	}
	// BER is monotone non-decreasing in path loss: bisect the crossing.
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			// The midpoint has converged onto an endpoint: every further
			// iteration would re-evaluate the same point and change
			// nothing. Exiting here is bit-identical to running out the
			// loop — it only skips no-op work (evaluate dominates the
			// whole-link analysis, so the saved iterations matter).
			break
		}
		if berAt(mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MaxReach returns the longest path (m) keeping BER <= target given a
// per-metre loss (dB/m) and a function giving the medium bandwidth at each
// length. The fixed (length-independent) part of the loss must already be
// in p.PathLossDB; p.MediumBWHz is overridden by mediumBW.
func (p OpticalParams) MaxReach(target, lossPerM float64, mediumBW func(m float64) float64) float64 {
	if lossPerM <= 0 {
		return math.Inf(1)
	}
	berAt := func(l float64) float64 {
		q := p
		q.PathLossDB = p.PathLossDB + lossPerM*l
		if mediumBW != nil {
			q.MediumBWHz = mediumBW(l)
		}
		return q.evaluate().BER
	}
	if berAt(0) > target {
		return 0
	}
	lo, hi := 0.0, 1.0
	for berAt(hi) <= target {
		hi *= 2
		if hi > 1e6 {
			return hi
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break // converged to double precision; see MarginDB
		}
		if berAt(mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// String summarises a result.
func (r Result) String() string {
	return fmt.Sprintf("rx=%.1fdBm bw=%s eye=%.2f Q=%.2f BER=%.2e margin=%.1fdB",
		r.RxPowerDBm, units.Bandwidth(r.BandwidthHz), r.EyeFactor, r.Q, r.BER, r.MarginDB)
}
