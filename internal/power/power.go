// Package power models the electrical power of every link technology the
// paper compares: passive copper (DAC), VCSEL-based multimode optics (AOC),
// single-mode DSP optics (DR/FR), linear-drive pluggable optics (LPO),
// co-packaged optics (CPO), and Mosaic's wide-and-slow microLED modules.
//
// Budgets are component-level so the power-breakdown experiment (E2) can
// show *where* the 69% reduction comes from: eliminating the DSP, the laser
// bias, and the high-speed analog front ends — not from better versions of
// them.
//
// Figures are parameterised from public transceiver data (OIF/IEEE
// presentations, module datasheets) for the 800G generation and scaled by
// lane count for other rates. They are estimates; the experiments depend on
// the ratios, which are robust.
package power

import (
	"fmt"
	"sort"
)

// Tech identifies a link technology.
type Tech int

// The compared technologies.
const (
	DAC    Tech = iota // passive copper twinax
	AOC                // VCSEL multimode active optical cable
	DR                 // single-mode EML + DSP pluggable (DR/FR class)
	LPO                // linear-drive pluggable optics (no DSP)
	CPO                // co-packaged optics
	Mosaic             // wide-and-slow microLED over imaging fiber
)

// AllTechs lists every technology in comparison order.
func AllTechs() []Tech { return []Tech{DAC, AOC, DR, LPO, CPO, Mosaic} }

// String names the technology.
func (t Tech) String() string {
	switch t {
	case DAC:
		return "DAC"
	case AOC:
		return "AOC"
	case DR:
		return "DR"
	case LPO:
		return "LPO"
	case CPO:
		return "CPO"
	case Mosaic:
		return "Mosaic"
	default:
		return fmt.Sprintf("tech(%d)", int(t))
	}
}

// NominalReachM returns the usable reach in metres for the technology at
// 100G/lane-era rates (the axis of experiment E1).
func (t Tech) NominalReachM() float64 {
	switch t {
	case DAC:
		return 2
	case AOC:
		return 100
	case DR:
		return 500
	case LPO:
		return 500
	case CPO:
		return 500
	case Mosaic:
		return 50
	default:
		return 0
	}
}

// Component is one entry in a power budget.
type Component struct {
	Name   string
	PowerW float64
}

// Budget is a transceiver-pair power budget (both ends of one link) at a
// given aggregate rate.
type Budget struct {
	Tech       Tech
	RateBps    float64
	Components []Component
}

// TotalW sums the component powers.
func (b Budget) TotalW() float64 {
	var sum float64
	for _, c := range b.Components {
		sum += c.PowerW
	}
	return sum
}

// PJPerBit returns the energy per transported bit in picojoules.
func (b Budget) PJPerBit() float64 {
	if b.RateBps <= 0 {
		return 0
	}
	return b.TotalW() / b.RateBps * 1e12
}

// Component returns the power of a named component (0 if absent).
func (b Budget) Component(name string) float64 {
	for _, c := range b.Components {
		if c.Name == name {
			return c.PowerW
		}
	}
	return 0
}

// SortedComponents returns components by descending power.
func (b Budget) SortedComponents() []Component {
	out := make([]Component, len(b.Components))
	copy(out, b.Components)
	sort.Slice(out, func(i, j int) bool { return out[i].PowerW > out[j].PowerW })
	return out
}

// SupportedRates lists the canonical aggregate rates (bit/s).
func SupportedRates() []float64 {
	return []float64{100e9, 200e9, 400e9, 800e9, 1.6e12}
}

// lanes returns the electrical lane configuration per canonical rate:
// count and per-lane rate.
func lanes(rateBps float64) (n int, perLane float64, pam4 bool, err error) {
	switch rateBps {
	case 100e9:
		return 4, 25e9, false, nil
	case 200e9:
		return 4, 50e9, true, nil
	case 400e9:
		return 4, 100e9, true, nil
	case 800e9:
		return 8, 100e9, true, nil
	case 1.6e12:
		return 8, 200e9, true, nil
	default:
		return 0, 0, false, fmt.Errorf("power: unsupported rate %g (use SupportedRates)", rateBps)
	}
}

// MosaicChannelRate is the per-channel line rate of the Mosaic design point.
const MosaicChannelRate = 2e9

// MosaicSpareFraction is the fraction of extra channels provisioned as
// spares in the canonical configurations.
const MosaicSpareFraction = 0.04

// MosaicChannels returns the channel count (incl. spares) for an aggregate
// rate at the nominal 2 Gbps per channel. The spare count's product is
// rounded before the sum, so no GOARCH fuses the two into an FMA.
func MosaicChannels(rateBps float64) int {
	data := int(rateBps / MosaicChannelRate)
	spares := int(float64(float64(data)*MosaicSpareFraction) + 0.5)
	return data + spares
}

// PerBudget builds the component-level budget for one technology at one of
// the canonical aggregate rates. The budget covers both link ends (a
// transceiver pair), excluding the host switch/server serdes, which is
// identical across technologies (Mosaic's compatibility claim).
func PerBudget(t Tech, rateBps float64) (Budget, error) {
	n, perLane, pam4, err := lanes(rateBps)
	if err != nil {
		return Budget{}, err
	}
	fn := float64(n)
	scale := rateBps / 800e9 // misc components scale with aggregate rate

	b := Budget{Tech: t, RateBps: rateBps}
	add := func(name string, w float64) {
		if w > 0 {
			b.Components = append(b.Components, Component{name, w})
		}
	}

	// Per-lane building blocks (watts per lane per end, ×2 ends).
	var dspPerLane float64
	if pam4 {
		// PAM4 DSP incl. FFE/DFE + KP4 FEC: ~0.45 W per 100G lane per end.
		dspPerLane = 0.45 * perLane / 100e9
	} else {
		// NRZ-era CDR/retimer.
		dspPerLane = 0.15 * perLane / 25e9
	}

	switch t {
	case DAC:
		// Passive cable: no module electronics; only the connector/ID.
		add("module-misc", 0.05*scale*2)
	case AOC:
		add("dsp", dspPerLane*fn*2)
		add("laser-driver", 0.10*fn*2)
		add("laser-bias", 0.075*fn*2)
		add("tia-la", 0.16*fn*2)
		add("clocking", 0.20*scale*2)
		add("module-misc", 0.15*scale*2)
	case DR:
		add("dsp", dspPerLane*fn*2)
		add("modulator-driver", 0.15*fn*2)
		add("laser-bias", 0.22*fn*2)
		add("tia-la", 0.16*fn*2)
		add("clocking", 0.20*scale*2)
		add("module-misc", 0.15*scale*2)
	case LPO:
		// Linear drive: no DSP, beefier analog front ends.
		add("modulator-driver", 0.175*fn*2)
		add("laser-bias", 0.20*fn*2)
		add("tia-la", 0.225*fn*2)
		add("clocking", 0.15*scale*2)
		add("module-misc", 0.15*scale*2)
	case CPO:
		// Co-packaged: short host traces allow a cut-down DSP.
		add("dsp", 0.45*dspPerLane*fn*2)
		add("modulator-driver", 0.10*fn*2)
		add("laser-bias", 0.15*fn*2)
		add("tia-la", 0.125*fn*2)
		add("clocking", 0.125*scale*2)
		add("module-misc", 0.10*scale*2)
	case Mosaic:
		ch := float64(MosaicChannels(rateBps))
		// Per-channel analog is tiny: a CMOS LED driver (~2.2 mW incl. the
		// diode) and a slow TIA (~0.9 mW). No DSP, no laser bias, no CDR.
		add("led-driver-array", 2.2e-3*ch*2)
		add("tia-array", 0.9e-3*ch*2)
		// Gearbox digital: serdes-to-wide striping + framing + light FEC.
		// Logic area has a floor that stops scaling below ~320G.
		gscale := scale
		if gscale < 0.4 {
			gscale = 0.4
		}
		add("gearbox", 0.95*gscale*2)
		add("clocking", 0.20*scale*2)
		add("module-misc", 0.10*scale*2)
	default:
		return Budget{}, fmt.Errorf("power: unknown technology %v", t)
	}
	return b, nil
}

// Reduction returns the fractional power reduction of `t` vs `baseline` at
// the given rate, e.g. 0.69 for 69%.
func Reduction(t, baseline Tech, rateBps float64) (float64, error) {
	a, err := PerBudget(t, rateBps)
	if err != nil {
		return 0, err
	}
	b, err := PerBudget(baseline, rateBps)
	if err != nil {
		return 0, err
	}
	if b.TotalW() == 0 {
		return 0, fmt.Errorf("power: baseline %v has zero power", baseline)
	}
	return 1 - a.TotalW()/b.TotalW(), nil
}

// --- The wide-and-slow sweet spot (experiment E9) ---

// ChannelPowerW models the per-channel electronics power (driver + TIA +
// per-channel framing logic, one end) as a function of per-channel line
// rate. Three regimes:
//
//   - a fixed floor (bias, framing logic): ~1.2 mW;
//   - LED drive power growing ~quadratically with rate (the carrier
//     lifetime must shrink ∝ rate, which costs current density ∝ rate²);
//   - above ~5 Gbps the channel needs CDR and equalization — the
//     narrow-and-fast tax reappears, modelled as a per-channel DSP term.
func ChannelPowerW(rateBps float64) float64 {
	if rateBps <= 0 {
		return 0
	}
	const (
		floor = 1.2e-3  // W
		k     = 3.0e-22 // W per (bit/s)^2
	)
	p := floor + k*rateBps*rateBps
	if rateBps > 5e9 {
		// CDR + FFE kick in and scale with rate.
		p += 2.5e-3 * (rateBps - 5e9) / 1e9
	}
	return p
}

// EnergyPerBitPJ returns the per-channel energy per bit (pJ) at the given
// per-channel rate, including a fixed amortised share of the gearbox.
func EnergyPerBitPJ(rateBps float64) float64 {
	if rateBps <= 0 {
		return 0
	}
	const gearboxPJ = 2.75 // pJ/bit amortised gearbox+clocking share
	return ChannelPowerW(rateBps)/rateBps*1e12 + gearboxPJ
}

// SweetSpotRate finds the per-channel rate minimising EnergyPerBitPJ by
// golden-section search over [0.1, 30] Gbps.
func SweetSpotRate() float64 {
	lo, hi := 0.1e9, 30e9
	phi := 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	for i := 0; i < 200; i++ {
		if EnergyPerBitPJ(a) < EnergyPerBitPJ(b) {
			hi = b
			b = a
			a = hi - phi*(hi-lo)
		} else {
			lo = a
			a = b
			b = lo + phi*(hi-lo)
		}
	}
	return (lo + hi) / 2
}
