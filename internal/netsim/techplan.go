package netsim

import (
	"errors"
	"fmt"

	"mosaic/internal/power"
	"mosaic/internal/reliability"
)

// TechPlan assigns a link technology to each tier. Feasibility is checked
// against the technologies' nominal reach and each tier's physical length.
type TechPlan struct {
	Name   string
	ByTier map[Tier]power.Tech
}

// CopperOpticsBaseline is today's deployment: copper in the rack, optics
// everywhere else.
func CopperOpticsBaseline() TechPlan {
	return TechPlan{
		Name: "DAC+optics",
		ByTier: map[Tier]power.Tech{
			TierHostToR: power.DAC,
			TierToRAgg:  power.AOC,
			TierAggCore: power.DR,
		},
	}
}

// AllOptics is the all-DSP-optics comparison point (what dense AI fabrics
// increasingly deploy when copper reach runs out).
func AllOptics() TechPlan {
	return TechPlan{
		Name: "all-optics",
		ByTier: map[Tier]power.Tech{
			TierHostToR: power.AOC,
			TierToRAgg:  power.DR,
			TierAggCore: power.DR,
		},
	}
}

// MosaicPlan deploys Mosaic on every tier its 50 m reach covers and keeps
// DSP optics only for the long cross-hall runs.
func MosaicPlan() TechPlan {
	return TechPlan{
		Name: "mosaic",
		ByTier: map[Tier]power.Tech{
			TierHostToR: power.Mosaic,
			TierToRAgg:  power.Mosaic,
			TierAggCore: power.DR,
		},
	}
}

// Plans returns the standard comparison set.
func Plans() []TechPlan {
	return []TechPlan{CopperOpticsBaseline(), AllOptics(), MosaicPlan()}
}

// Validate checks that every tier has a technology whose reach covers the
// tier's typical length.
func (p TechPlan) Validate() error {
	for _, tier := range Tiers() {
		tech, ok := p.ByTier[tier]
		if !ok {
			return fmt.Errorf("netsim: plan %q misses tier %v", p.Name, tier)
		}
		if tech.NominalReachM() < tier.TypicalLengthM() {
			return fmt.Errorf("netsim: plan %q: %v reach %.0fm cannot span %v (%.0fm)",
				p.Name, tech, tech.NominalReachM(), tier, tier.TypicalLengthM())
		}
	}
	return nil
}

// NetworkReport aggregates network-wide link power, reliability, and cost
// for a plan applied to a topology.
type NetworkReport struct {
	Plan            string
	Links           int
	PowerW          float64 // total link (transceiver-pair) power
	PowerByTier     map[Tier]float64
	FailuresPerYear float64 // expected link failures per year, fleet-wide
	LinkFITMean     float64
	CapexUSD        float64 // modules + cables, fleet-wide
}

// USDPerKWh is the electricity price used for opex estimates.
const USDPerKWh = 0.10

// OpexUSDPerYear returns the yearly energy cost of the links (with the
// standard ~1.5x datacenter cooling overhead, PUE).
func (r NetworkReport) OpexUSDPerYear() float64 {
	const pue = 1.5
	return r.PowerW * pue / 1000 * 8766 * USDPerKWh
}

// TCOUSD returns capex plus opex over the given number of years (the
// product rounded first, so no GOARCH fuses the sum into an FMA).
func (r NetworkReport) TCOUSD(years float64) float64 {
	return r.CapexUSD + float64(r.OpexUSDPerYear()*years)
}

// Analyze applies a plan to a topology at the given per-link rate.
func Analyze(t *Topology, p TechPlan, rateBps float64) (NetworkReport, error) {
	if err := p.Validate(); err != nil {
		return NetworkReport{}, err
	}
	if t == nil {
		return NetworkReport{}, errors.New("netsim: nil topology")
	}
	rep := NetworkReport{
		Plan:        p.Name,
		Links:       len(t.Links),
		PowerByTier: make(map[Tier]float64),
	}
	var fitTotal float64
	const mission = 5 * reliability.HoursPerYear
	for _, l := range t.Links {
		tech := p.ByTier[l.Tier]
		b, err := power.PerBudget(tech, rateBps)
		if err != nil {
			return NetworkReport{}, err
		}
		rep.PowerW += b.TotalW()
		rep.PowerByTier[l.Tier] += b.TotalW()

		if c, err := power.Cost(tech, rateBps, l.LengthM); err == nil {
			rep.CapexUSD += c.TotalUSD()
		} else {
			// Length beyond the tech's reach: the plan validated against
			// typical lengths, so this only happens for custom topologies;
			// charge the nearest buildable option instead.
			if _, cc, err2 := power.CheapestAt(rateBps, l.LengthM); err2 == nil {
				rep.CapexUSD += cc.TotalUSD()
			}
		}

		var fit reliability.FIT
		switch tech {
		case power.DAC:
			fit = 2 * reliability.FITConnector
		case power.AOC, power.LPO, power.CPO:
			fit = reliability.LinkFIT(reliability.FITLaserVCSEL, 8)
		case power.DR:
			fit = reliability.LinkFIT(reliability.FITLaserDFB, 8)
		case power.Mosaic:
			data := int(rateBps / power.MosaicChannelRate)
			spares := power.MosaicChannels(rateBps) - data
			fit = reliability.MosaicLinkFIT(data, spares, mission)
		}
		fitTotal += float64(fit)
	}
	rep.LinkFITMean = fitTotal / float64(len(t.Links))
	// failures/year = sum(lambda) * hours/year.
	rep.FailuresPerYear = fitTotal / 1e9 * reliability.HoursPerYear
	return rep, nil
}
