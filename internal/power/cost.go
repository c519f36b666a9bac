package power

import (
	"errors"
	"fmt"
)

// Cost model. The paper's economic argument: microLED arrays and imaging
// fiber come from display/endoscopy supply chains with enormous volume,
// while 100G-class lasers, modulators, and DSPs are boutique parts. These
// figures are order-of-magnitude estimates from public module pricing and
// bill-of-materials teardowns; the experiments use the ratios and the
// crossover shapes, not the absolute dollars.

// CostBreakdown itemises the cost of a deployed link (transceiver pair +
// cable/fiber of the given length).
type CostBreakdown struct {
	Tech         Tech
	RateBps      float64
	LengthM      float64
	ModulesUSD   float64 // both ends
	CableUSDPerM float64
	CableUSD     float64
}

// TotalUSD sums modules and cable.
func (c CostBreakdown) TotalUSD() float64 { return c.ModulesUSD + c.CableUSD }

// modulePairUSD800 is the module-pair cost at 800G.
var modulePairUSD800 = map[Tech]float64{
	DAC:    90,   // connectors + shells (cable priced per metre)
	AOC:    1100, // includes its fiber pigtail electronics
	DR:     2600, // EMLs + DSP
	LPO:    1700,
	CPO:    1500,
	Mosaic: 520, // LED+PD arrays (display supply chain) + gearbox ASIC
}

// cableUSDPerM is the per-metre cable/fiber cost.
var cableUSDPerM = map[Tech]float64{
	DAC:    25,  // heavy twinax
	AOC:    0,   // priced into the module figure
	DR:     0.6, // SMF duplex
	LPO:    0.6,
	CPO:    0.6,
	Mosaic: 3.5, // multi-core imaging fiber (volume endoscopy process)
}

// Cost returns the deployed-link cost estimate. Only canonical rates are
// supported; other rates scale the module cost linearly (a coarse but
// stated assumption).
func Cost(t Tech, rateBps, lengthM float64) (CostBreakdown, error) {
	if lengthM < 0 {
		return CostBreakdown{}, errors.New("power: negative length")
	}
	if rateBps <= 0 {
		return CostBreakdown{}, errors.New("power: nonpositive rate")
	}
	base, ok := modulePairUSD800[t]
	if !ok {
		return CostBreakdown{}, fmt.Errorf("power: no cost data for %v", t)
	}
	perM := cableUSDPerM[t]
	// Reach feasibility: a link longer than the technology reaches costs
	// infinitely much in the sense that it cannot be built; flag by error.
	if lengthM > t.NominalReachM() {
		return CostBreakdown{}, fmt.Errorf("power: %v cannot span %.0f m (reach %.0f m)",
			t, lengthM, t.NominalReachM())
	}
	c := CostBreakdown{
		Tech:         t,
		RateBps:      rateBps,
		LengthM:      lengthM,
		ModulesUSD:   base * rateBps / 800e9,
		CableUSDPerM: perM,
	}
	c.CableUSD = perM * lengthM
	return c, nil
}

// CheapestAt returns the cheapest technology able to span the given length
// at the given rate, and its cost.
func CheapestAt(rateBps, lengthM float64) (Tech, CostBreakdown, error) {
	best := Tech(-1)
	var bestC CostBreakdown
	for _, t := range AllTechs() {
		c, err := Cost(t, rateBps, lengthM)
		if err != nil {
			continue
		}
		if best < 0 || c.TotalUSD() < bestC.TotalUSD() {
			best, bestC = t, c
		}
	}
	if best < 0 {
		return 0, CostBreakdown{}, fmt.Errorf("power: no technology spans %.0f m", lengthM)
	}
	return best, bestC, nil
}
