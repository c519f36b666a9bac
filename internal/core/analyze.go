package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mosaic/internal/channel"
	"mosaic/internal/photonics"
	"mosaic/internal/phy"
	"mosaic/internal/power"
	"mosaic/internal/reliability"
)

// ChannelResult is the analog evaluation of one channel.
type ChannelResult struct {
	Index      int
	Dead       bool
	BER        float64
	Q          float64
	MarginDB   float64
	RxPowerDBm float64
}

// LinkReport summarises the per-channel analysis of a design.
type LinkReport struct {
	Channels []ChannelResult
	// Aggregates over live channels.
	MedianBER   float64
	WorstBER    float64
	WorstMargin float64
	DeadCount   int
	// BelowTarget counts live channels failing the pre-FEC 1e-12 target.
	BelowTarget int
}

// Evaluate runs the analog link budget for every channel, applying
// manufacturing variation drawn deterministically from the design seed.
func (d Design) Evaluate() (LinkReport, error) {
	return d.evaluate(true)
}

// evaluate runs the per-channel link budget; withMargin selects the full
// Evaluate (margin bisection included) or the ~50x cheaper EvaluateBasic.
// The variation draw sequence and every non-margin figure are identical
// either way, so a BER-only caller sees the exact same channel population.
func (d Design) evaluate(withMargin bool) (LinkReport, error) {
	if err := d.Validate(); err != nil {
		return LinkReport{}, err
	}
	rng := rand.New(rand.NewSource(d.Seed))
	n := d.TotalChannels()
	rep := LinkReport{Channels: make([]ChannelResult, n)}
	var live []float64
	rep.WorstMargin = math.Inf(1)
	for i := 0; i < n; i++ {
		s := d.Variation.Sample(rng)
		cr := ChannelResult{Index: i}
		if s.Dead {
			cr.Dead = true
			cr.BER = 0.5
			cr.MarginDB = math.Inf(-1)
			rep.DeadCount++
		} else {
			p := d.channelParams(d.LengthM, s)
			var res channel.Result
			var err error
			if withMargin {
				res, err = p.Evaluate()
			} else {
				res, err = p.EvaluateBasic()
			}
			if err != nil {
				return LinkReport{}, fmt.Errorf("core: channel %d: %w", i, err)
			}
			cr.BER = res.BER
			cr.Q = res.Q
			cr.MarginDB = res.MarginDB
			cr.RxPowerDBm = res.RxPowerDBm
			live = append(live, res.BER)
			if res.BER > 1e-12 {
				rep.BelowTarget++
			}
			if res.MarginDB < rep.WorstMargin {
				rep.WorstMargin = res.MarginDB
			}
			if res.BER > rep.WorstBER {
				rep.WorstBER = res.BER
			}
		}
		rep.Channels[i] = cr
	}
	if len(live) > 0 {
		sort.Float64s(live)
		rep.MedianBER = live[len(live)/2]
	}
	return rep, nil
}

// NominalOpticalParams returns the analog parameters of a variation-free
// channel at the design length, for callers that want to drive the channel
// package directly (eye simulation, custom sweeps).
func (d Design) NominalOpticalParams() channel.OpticalParams {
	s := photonics.ChannelSample{EQEFactor: 1, BandwidthFactor: 1, RespFactor: 1}
	return d.channelParams(d.LengthM, s)
}

// NominalChannel evaluates a variation-free channel at the design length,
// returning the full analog result (received power, eye, Q, BER, margin).
func (d Design) NominalChannel() (channel.Result, error) {
	if err := d.Validate(); err != nil {
		return channel.Result{}, err
	}
	s := photonics.ChannelSample{EQEFactor: 1, BandwidthFactor: 1, RespFactor: 1}
	return d.channelParams(d.LengthM, s).Evaluate()
}

// NominalBER returns the BER of a variation-free channel at the design
// length (the curve plotted in E4).
func (d Design) NominalBER() float64 {
	return d.NominalBERAt(d.LengthM)
}

// NominalBERAt returns the variation-free channel BER at a given length.
func (d Design) NominalBERAt(lengthM float64) float64 {
	s := photonics.ChannelSample{EQEFactor: 1, BandwidthFactor: 1, RespFactor: 1}
	return d.channelParams(lengthM, s).BER()
}

// MaxReach returns the longest fiber at which a variation-free channel
// stays at or below the target BER.
func (d Design) MaxReach(targetBER float64) float64 {
	s := photonics.ChannelSample{EQEFactor: 1, BandwidthFactor: 1, RespFactor: 1}
	p := d.channelParams(0, s)
	return p.MaxReach(targetBER, d.Fiber.AttenDBPerM, func(l float64) float64 {
		return d.Fiber.ModalBandwidth(l)
	})
}

// PowerBudget returns the component-level power budget for this design's
// aggregate rate. Canonical rates use the calibrated table; other rates
// are composed from the per-channel model.
func (d Design) PowerBudget() power.Budget {
	if b, err := power.PerBudget(power.Mosaic, d.AggregateRate); err == nil {
		return b
	}
	ch := float64(d.TotalChannels())
	scale := d.AggregateRate / 800e9
	gscale := scale
	if gscale < 0.4 {
		gscale = 0.4
	}
	return power.Budget{
		Tech:    power.Mosaic,
		RateBps: d.AggregateRate,
		Components: []power.Component{
			{Name: "led-driver-array", PowerW: power.ChannelPowerW(d.ChannelRate) * ch * 2 * 0.7},
			{Name: "tia-array", PowerW: power.ChannelPowerW(d.ChannelRate) * ch * 2 * 0.3},
			{Name: "gearbox", PowerW: 0.95 * gscale * 2},
			{Name: "clocking", PowerW: 0.20 * scale * 2},
			{Name: "module-misc", PowerW: 0.10 * scale * 2},
		},
	}
}

// Reliability returns the spared-system reliability of the design over a
// mission of the given number of years.
func (d Design) Reliability(years float64) (effective reliability.FIT, survival float64) {
	hours := years * reliability.HoursPerYear
	sys := reliability.MosaicSystem(d.DataChannels(), d.Spares)
	return reliability.MosaicLinkFIT(d.DataChannels(), d.Spares, hours),
		sys.SurvivalProb(hours)
}

// BuildPHY instantiates the bit-true PHY link with per-channel BERs drawn
// from the analog evaluation (same seed => same channel population). Only
// Dead/BER feed the PHY, so the margin-free evaluation suffices — the
// channel population is bit-identical to the full Evaluate's.
func (d Design) BuildPHY() (*phy.Link, error) {
	rep, err := d.evaluate(false)
	if err != nil {
		return nil, err
	}
	link, err := phy.New(phy.Config{
		Lanes:             d.DataChannels(),
		Spares:            d.Spares,
		FEC:               d.FEC,
		PerChannelBitRate: d.ChannelRate,
		Seed:              d.Seed,
		Workers:           d.Workers,
	})
	if err != nil {
		return nil, err
	}
	for _, cr := range rep.Channels {
		if cr.Dead {
			link.KillChannel(cr.Index)
		} else {
			link.SetChannelBER(cr.Index, cr.BER)
		}
	}
	// Power-on self-test: probe every channel (spares included), take dead
	// ones out of service, and spare them — no oracle knowledge, just the
	// same probes real hardware runs at bring-up.
	link.Bringup(8)
	return link, nil
}

// TechSummary is one row of the trade-off table (experiment E1).
type TechSummary struct {
	Tech     power.Tech
	ReachM   float64
	PowerW   float64
	PJPerBit float64
	LinkFIT  float64
}

// CompareTechnologies builds the reach/power/reliability trade-off table
// at a canonical aggregate rate. Mosaic's reach row uses this design's
// analog model rather than the nominal constant.
func (d Design) CompareTechnologies(rateBps float64) ([]TechSummary, error) {
	const mission = 5 * reliability.HoursPerYear
	var out []TechSummary
	for _, tech := range power.AllTechs() {
		b, err := power.PerBudget(tech, rateBps)
		if err != nil {
			return nil, err
		}
		row := TechSummary{
			Tech:     tech,
			ReachM:   tech.NominalReachM(),
			PowerW:   b.TotalW(),
			PJPerBit: b.PJPerBit(),
		}
		switch tech {
		case power.DAC:
			row.ReachM = channel.Twinax26AWG().MaxReach(
				channel.NyquistHz(rateBps/8, channel.PAM4), 28)
			row.LinkFIT = float64(2 * reliability.FITConnector)
		case power.AOC, power.LPO, power.CPO:
			row.LinkFIT = float64(reliability.LinkFIT(reliability.FITLaserVCSEL, 8))
		case power.DR:
			row.LinkFIT = float64(reliability.LinkFIT(reliability.FITLaserDFB, 8))
		case power.Mosaic:
			scaled := d
			scaled.AggregateRate = rateBps
			scaled.Spares = power.MosaicChannels(rateBps) - int(rateBps/power.MosaicChannelRate)
			row.ReachM = scaled.MaxReach(1e-12)
			row.LinkFIT = float64(reliability.MosaicLinkFIT(
				scaled.DataChannels(), scaled.Spares, mission))
		}
		out = append(out, row)
	}
	return out, nil
}
