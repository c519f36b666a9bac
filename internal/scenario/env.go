package scenario

import (
	"fmt"
	"math"
	"sort"

	"mosaic/internal/eventlog"
	"mosaic/internal/photonics"
)

// An environment model runs alongside the workloads: every epoch it
// multiplies per-link capacity fractions into the epoch's fraction
// vector (reset to 1 each epoch, so transient effects decay naturally
// and persistent effects are re-applied from runner state), counts the
// fault events it injected, and appends deterministic log records. Each
// runner also knows the closed-form expectation of its total event
// count, which the conformance harness checks the actual count against.
type envRunner interface {
	name() string
	// apply folds this epoch's degradation into mult (len == links) and
	// returns the number of fault events injected this epoch.
	apply(e int, mult []float64, log *eventlog.Log) int
	// expect returns the closed-form mean and standard deviation of the
	// total event count over the whole run.
	expect() Expectation
}

// The environments' records.
var (
	recSEU          = eventlog.NewKind("epoch=%d env=%s seu link=%d frac=%.3f", eventlog.Int, eventlog.Str, eventlog.Int, eventlog.Float)
	recRadBurst     = eventlog.NewKind("epoch=%d env=%s burst links=[%d,%d) epochs=%d frac=%.3f", eventlog.Int, eventlog.Str, eventlog.Int, eventlog.Int, eventlog.Int, eventlog.Float)
	recDerate       = eventlog.NewKind("epoch=%d env=%s derate frac=%.4f", eventlog.Int, eventlog.Str, eventlog.Float)
	recContaminated = eventlog.NewKind("epoch=%d env=%s contaminated link=%d frac=%.3f", eventlog.Int, eventlog.Str, eventlog.Int, eventlog.Float)
)

// Expectation is the closed-form distribution of an environment's total
// injected-event count over a run: exact (Sigma == 0) for deterministic
// environments, Binomial mean/sigma for Bernoulli-driven ones.
type Expectation struct {
	Name  string  `json:"name"`
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
}

// thermalLED is the device the thermal environment couples through:
// the default paper-class microLED at its nominal drive current.
func thermalLED() (photonics.MicroLED, float64) {
	led := photonics.DefaultMicroLED()
	return led, led.NominalCurrent()
}

// newEnvRunner builds the runner for a resolved environment component.
// The runner's RNG stream is seeded purely from spec seed × component
// content (resolved.seed), so composition order cannot perturb draws.
func newEnvRunner(r resolved, topo TopoSpec, epochs int) envRunner {
	src := newGoSource(r.seed)
	links := topo.Links()
	switch r.comp.Kind {
	case KindRadiation:
		return &radiationEnv{
			id: r.name, src: src, links: links, epochs: epochs,
			p: r.comp.SEURate, seuFrac: r.comp.SEUFraction,
			q: r.comp.BurstRate, span: r.comp.BurstSpan,
			burstEpochs: r.comp.BurstEpochs, burstFrac: r.comp.BurstFraction,
		}
	case KindThermal:
		led, iNom := thermalLED()
		return &thermalEnv{
			id: r.name, links: links, epochs: epochs,
			led: led, iNom: iNom,
			base: r.comp.BaseK, swing: r.comp.SwingK,
			period: r.comp.PeriodEpochs, margin: r.comp.MarginDB,
		}
	case KindContamination:
		// Choose the contaminated links up front from the component's
		// own stream; sorted so the log order is canonical.
		chosen := make([]int, min(r.comp.Links, links))
		permHead(src, newBounds(links), chosen)
		sort.Ints(chosen)
		return &contaminationEnv{
			id: r.name, epochs: epochs, at: r.comp.AtEpoch,
			chosen: chosen, frac: r.comp.Fraction,
		}
	}
	panic(fmt.Sprintf("scenario: no runner for environment kind %q", r.comp.Kind))
}

// radiationEnv models single-event upsets (independent per-link
// per-epoch Bernoulli transients that dip a link to seuFrac for one
// epoch) and correlated burst upsets (a per-epoch Bernoulli event that
// drops a contiguous run of span links to burstFrac for burstEpochs
// epochs — the multi-lane neighborhoods a heavy-ion strike or power
// transient takes out together). Event count = SEU firings + burst
// firings, so the total is a sum of independent Bernoullis with an
// exact Binomial expectation.
type radiationEnv struct {
	id          string
	src         *goSource
	links       int
	epochs      int
	p, seuFrac  float64
	q           float64
	span        int
	burstEpochs int
	burstFrac   float64

	bursts []radBurst
}

type radBurst struct {
	first, span int
	until       int // exclusive epoch bound
}

func (r *radiationEnv) name() string { return r.id }

func (r *radiationEnv) apply(e int, mult []float64, log *eventlog.Log) int {
	events := 0
	// Persistent effect of bursts still in flight.
	live := r.bursts[:0]
	for _, b := range r.bursts {
		if e >= b.until {
			continue
		}
		live = append(live, b)
		for l := b.first; l < b.first+b.span; l++ {
			mult[l] *= r.burstFrac
		}
	}
	r.bursts = live

	// Transient SEUs: one draw per link per epoch, ascending link order.
	if r.p > 0 {
		for l := 0; l < r.links; l++ {
			if r.src.float64() < r.p {
				mult[l] *= r.seuFrac
				events++
				log.Add(recSEU).Int(e).Str(r.id).Int(l).Float(r.seuFrac)
			}
		}
	}

	// Correlated burst: one draw per epoch, plus a placement draw only
	// when it fires.
	if r.q > 0 && r.src.float64() < r.q {
		span := r.span
		if span > r.links {
			span = r.links
		}
		first := r.src.int31n(newBound(r.links - span + 1))
		r.bursts = append(r.bursts, radBurst{first: first, span: span, until: e + r.burstEpochs})
		for l := first; l < first+span; l++ {
			mult[l] *= r.burstFrac
		}
		events++
		log.Add(recRadBurst).Int(e).Str(r.id).Int(first).Int(first + span).Int(r.burstEpochs).Float(r.burstFrac)
	}
	return events
}

func (r *radiationEnv) expect() Expectation {
	// Total = Binomial(epochs*links, p) + Binomial(epochs, q).
	n := float64(r.epochs)
	l := float64(r.links)
	mean := n*l*r.p + n*r.q
	varSum := n*l*r.p*(1-r.p) + n*r.q*(1-r.q)
	return Expectation{Name: r.id, Mean: mean, Sigma: math.Sqrt(varSum)}
}

// thermalEnv couples case-temperature cycling through the photonics
// temperature model: T(e) sweeps a raised cosine between base and
// base+swing with the given period, the microLED's optical power
// penalty at the nominal drive current is evaluated at T(e), and the
// penalty eats linearly into the link's optical margin — capacity
// fraction 1 - penalty/margin (floored at 0.05). Every epoch whose
// fraction dips below 1 counts as one derate event; the trajectory is
// fully deterministic, so the expectation is exact (sigma 0).
type thermalEnv struct {
	id     string
	links  int
	epochs int
	led    photonics.MicroLED
	iNom   float64
	base   float64
	swing  float64
	period int
	margin float64
}

func (t *thermalEnv) name() string { return t.id }

// fractionAt returns the capacity fraction the model applies at epoch e.
func (t *thermalEnv) fractionAt(e int) float64 {
	tempK := t.base + t.swing*(1-math.Cos(2*math.Pi*float64(e)/float64(t.period)))/2
	pen := t.led.PowerPenaltyDB(t.iNom, tempK)
	f := 1 - pen/t.margin
	if f < 0.05 {
		f = 0.05
	}
	if f > 1 {
		f = 1
	}
	return f
}

func (t *thermalEnv) apply(e int, mult []float64, log *eventlog.Log) int {
	f := t.fractionAt(e)
	if f >= 1-1e-12 {
		return 0
	}
	for l := 0; l < t.links; l++ {
		mult[l] *= f
	}
	log.Add(recDerate).Int(e).Str(t.id).Float(f)
	return 1
}

func (t *thermalEnv) expect() Expectation {
	count := 0
	for e := 0; e < t.epochs; e++ {
		if t.fractionAt(e) < 1-1e-12 {
			count++
		}
	}
	return Expectation{Name: t.id, Mean: float64(count), Sigma: 0}
}

// contaminationEnv models connector contamination: at epoch `at`, a
// fixed set of links (chosen once from the component's seeded stream)
// permanently degrades to frac of nominal — correlated multi-channel
// loss that never heals. Exactly len(chosen) events fire, all at the
// contamination epoch, so the expectation is exact.
type contaminationEnv struct {
	id     string
	epochs int
	at     int
	chosen []int
	frac   float64
}

func (c *contaminationEnv) name() string { return c.id }

func (c *contaminationEnv) apply(e int, mult []float64, log *eventlog.Log) int {
	if e < c.at {
		return 0
	}
	for _, l := range c.chosen {
		mult[l] *= c.frac
	}
	if e != c.at {
		return 0
	}
	for _, l := range c.chosen {
		log.Add(recContaminated).Int(e).Str(c.id).Int(l).Float(c.frac)
	}
	return len(c.chosen)
}

func (c *contaminationEnv) expect() Expectation {
	mean := 0.0
	if c.at < c.epochs {
		mean = float64(len(c.chosen))
	}
	return Expectation{Name: c.id, Mean: mean, Sigma: 0}
}
