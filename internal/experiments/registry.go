package experiments

import (
	"fmt"
	"time"

	"mosaic/internal/par"
	"mosaic/internal/telemetry"
)

// Experiment is one registered experiment: static metadata (usable
// without running anything — listing is O(1)) plus the generator that
// produces its table. Generators take the run seed explicitly, so every
// experiment owns its random state and a parallel run is exactly as
// deterministic as a serial one.
type Experiment struct {
	ID    string
	Title string
	Claim string // the abstract's wording this experiment validates
	Kind  string // KindPaper, KindAblation, or KindScenario
	Gen   func(seed int64) (Table, error)
}

// Experiment kinds: the registry carries three families and callers
// (mosaicbench -list, the conformance CI job) enumerate them
// separately.
const (
	KindPaper    = "paper"    // reproduces a claim from the source paper
	KindAblation = "ablation" // isolates one design choice
	KindScenario = "scenario" // scenario-library run (internal/scenario)
)

// unseeded adapts a deterministic (seedless) generator to the registry
// signature.
func unseeded(f func() (Table, error)) func(int64) (Table, error) {
	return func(int64) (Table, error) { return f() }
}

// registry is the single source of experiment metadata, in presentation
// order. Generators obtain their Table skeleton from it via tableFor, so
// an ID/title/claim lives in exactly one place. (Filled in init: the
// generators themselves call tableFor, which reads the registry, and a
// composite-literal initializer would be an initialization cycle.)
var registry []Experiment

func init() {
	paper := []Experiment{
		{
			ID:    "E1",
			Title: "the reach/power/reliability trade-off at 800G",
			Claim: "copper: power-efficient and reliable but <2m; optics: long reach, high power, low reliability; Mosaic: breaks the trade-off",
			Gen:   unseeded(E1Tradeoff),
		},
		{
			ID:    "E2",
			Title: "component power breakdown at 800G",
			Claim: "\"reducing power consumption by up to 69%\"",
			Gen:   unseeded(E2PowerBreakdown),
		},
		{
			ID:    "E3",
			Title: "transceiver power vs aggregate rate",
			Claim: "the optics/copper power gap widens with speed; Mosaic scales like copper",
			Gen:   unseeded(E3PowerScaling),
		},
		{
			ID:    "E4",
			Title: "link budget and BER vs reach",
			Claim: "\"over [25x] the reach of copper ... reach of up to 50m\"",
			Gen:   unseeded(E4ReachBudget),
		},
		{
			ID:    "E5",
			Title: "per-channel BER distribution, 100-channel prototype",
			Claim: "\"an end-to-end Mosaic prototype with 100 optical channels, each transmitting at 2Gbps\"",
			Gen:   E5PrototypeBER,
		},
		{
			ID:    "E6",
			Title: "misalignment tolerance and crosstalk",
			Claim: "massively multi-core imaging fibers make spatial multiplexing practical (coarse alignment suffices)",
			Gen:   unseeded(E6Misalignment),
		},
		{
			ID:    "E7",
			Title: "link reliability vs spare channels (5-year mission)",
			Claim: "\"offering higher reliability than today's optical links\"",
			Gen:   unseeded(E7Reliability),
		},
		{
			ID:    "E8",
			Title: "scaling configurations at 2 Gbps/channel",
			Claim: "\"scales to 800Gbps and beyond\"",
			Gen:   unseeded(E8ScalingTable),
		},
		{
			ID:    "E9",
			Title: "the wide-and-slow sweet spot (800G aggregate)",
			Claim: "hundreds of parallel low-speed channels beat a few high-speed ones on energy",
			Gen:   unseeded(E9SweetSpot),
		},
		{
			ID:    "E10",
			Title: "bit-true end-to-end pipeline vs reach (100ch x 2G, RS-lite FEC)",
			Claim: "error-free end-to-end operation at the prototype point; graceful FEC takeover toward max reach",
			Gen:   E10EndToEnd,
		},
		{
			ID:    "E11",
			Title: "network-wide link power and failures (800G links)",
			Claim: "seamless integration with existing infrastructure; fleet-level power and reliability win",
			Gen:   unseeded(E11Datacenter),
		},
		{
			ID:    "E12",
			Title: "flow completion times under a mid-run link fault (fat-tree k=8, websearch load 0.4)",
			Claim: "channel failures degrade capacity gracefully instead of killing the link",
			Gen:   E12Degradation,
		},
		{
			ID:    "E13",
			Title: "thermal behaviour: microLED vs lasers",
			Claim: "directly-modulated microLEDs eliminate power-hungry, temperature-fragile lasers",
			Gen:   unseeded(E13Temperature),
		},
		{
			ID:    "E14",
			Title: "one-way link latency at 800G (module/PHY only, excl. flight time ~5ns/m)",
			Claim: "protocol-agnostic integration — latency is set by architecture, not distance class",
			Gen:   unseeded(E14Latency),
		},
		{
			ID:    "E15",
			Title: "deployed 800G link cost vs length (modules + cable)",
			Claim: "a practical and scalable link solution (display/endoscopy supply chains)",
			Gen:   unseeded(E15Cost),
		},
		{
			ID:    "E16",
			Title: "failure blast radius: one dead transmitter, 800G aggregate",
			Claim: "a laser death is a link death; a microLED death is 0.25% of capacity (and spared)",
			Gen:   E16BlastRadius,
		},
		{
			ID:    "E17",
			Title: "equalization burden (FFE taps to reach ISI <= 0.3)",
			Claim: "eliminating ... complex electronics: 2 Gbps channels need no equalization at all",
			Gen:   unseeded(E17Equalization),
		},
		{
			ID:    "E18",
			Title: "FEC waterfall on the bit-true link (frame delivery vs channel BER)",
			Claim: "light FEC turns the residual error floor into error-free operation",
			Gen:   E18Waterfall,
		},
		{
			ID:    "E19",
			Title: "imaging-optics budget: lens choice and focus tolerance vs reach",
			Claim: "massively multi-core imaging fibers + simple imaging optics make spatial multiplexing practical",
			Gen:   unseeded(E19OpticsBudget),
		},
		{
			ID:    "E20",
			Title: "fleet TCO: link capex + 5-year energy opex (800G links)",
			Claim: "a practical and scalable link solution for the future of networking",
			Gen:   unseeded(E20FleetTCO),
		},
		{
			ID:    "E21",
			Title: "predictive maintenance: aging channel, proactive vs reactive sparing",
			Claim: "per-channel FEC telemetry turns graceful LED aging into zero-loss replacement",
			Gen:   E21PredictiveMaintenance,
		},
		{
			ID:    "E22",
			Title: "fault-injection soak: pipeline survival vs k-of-n closed form",
			Claim: "channel sparing turns device death into an invisible remap — validated end-to-end, not just in FIT math",
			Gen:   E22SparingSoak,
		},
		{
			ID:    "E23",
			Title: "fleet aging under load: MAC renegotiation vs copper link-down (fat-tree k=8)",
			Claim: "the MAC closes the loop: monitor transitions drive sparing and capacity renegotiation, so aging shaves lanes instead of stranding hosts",
			Gen:   E23MACRenegotiation,
		},
		{
			ID:    "E24",
			Title: "fleet scale: 12-pod diurnal day with continuous microLED aging (sharded incremental engine)",
			Claim: "the sharded engine holds >100k concurrent flows over 1752 links byte-identically at any worker count, while sampled links prove the aging model against real MAC bring-up",
			Gen:   E24FleetScale,
		},
		{
			ID:    "E25",
			Title: "ARQ discipline under burst loss + incast: go-back-N vs selective repeat vs multi-VC QoS",
			Claim: "a wide-and-slow link loses channels in bursts, not all at once — selective repeat retransmits only what died, and QoS-classed virtual channels keep priority traffic flowing through incast",
			Gen:   E25ARQGoodput,
		},
	}
	ablations := []Experiment{
		{
			ID:    "A1",
			Title: "ablation: oversampled core groups vs single-core mapping",
			Claim: "design choice: a channel = a group of cores, so alignment is coarse",
			Gen:   unseeded(A1Oversampling),
		},
		{
			ID:    "A2",
			Title: "ablation: per-channel FEC choice (100ch link, artificial BER)",
			Claim: "design choice: wide-and-slow channels need only a light FEC",
			Gen:   A2FECChoice,
		},
		{
			ID:    "A3",
			Title: "ablation: stripe-unit size (framing overhead vs blast radius)",
			Claim: "design choice: per-channel frames balance overhead against loss blast radius",
			Gen:   A3UnitSize,
		},
		{
			ID:    "A4",
			Title: "ablation: sparing policy under successive channel deaths (20 lanes)",
			Claim: "design choice: spares absorb failures invisibly, then the link degrades instead of dying",
			Gen:   A4SparingPolicy,
		},
		{
			ID:    "A5",
			Title: "ablation: per-channel modulation (NRZ vs PAM4 at equal aggregate)",
			Claim: "design choice: stay at NRZ and scale width, not symbol density",
			Gen:   unseeded(A5Modulation),
		},
	}
	for i := range paper {
		paper[i].Kind = KindPaper
	}
	for i := range ablations {
		ablations[i].Kind = KindAblation
	}
	// Presentation order: paper experiments, then the scenario library
	// (E26, E27, ... — auto-registered from internal/scenario, so a new
	// library entry gets a table, a seed, and a determinism pin for
	// free), then ablations.
	registry = append(registry, paper...)
	registry = append(registry, scenarioExperiments()...)
	registry = append(registry, ablations...)
}

// Kinds returns the distinct experiment kinds in presentation order
// (first appearance wins).
func Kinds() []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range registry {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			out = append(out, e.Kind)
		}
	}
	return out
}

// ByKind returns the registered experiments of one kind, in
// presentation order.
func ByKind(kind string) []Experiment {
	var out []Experiment
	for _, e := range registry {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// tableFor returns a Table skeleton prefilled with the registered
// metadata for id. It panics on an unregistered ID: generators and the
// registry are maintained together, so a miss is a programming error.
func tableFor(id string) Table {
	e, ok := Lookup(id)
	if !ok {
		panic("experiments: no registry entry for " + id)
	}
	return Table{ID: e.ID, Title: e.Title, Claim: e.Claim}
}

// Result is one generated experiment: the metadata, its table, and the
// generator error if any (Run does not stop on generator errors — a
// broken experiment should not hide the other 25).
type Result struct {
	Experiment Experiment
	Table      Table
	Err        error
}

// RunMetered generates the experiments named by ids (all of them if ids
// is empty) with the given seed, fanning the generators out over a
// par.Pool of the given size (workers <= 1 runs serially). Results always
// come back in registry order, regardless of completion order. Unknown
// IDs make it fail before any generator starts. When reg is non-nil, each
// generator's wall-clock duration lands in the
// mosaic_experiment_duration_seconds histogram and a per-experiment
// last-duration gauge, alongside run and error counters. Timings are
// wall-clock and therefore nondeterministic — they flow only into the
// registry, never into a table, so the generated output stays
// byte-identical with telemetry on or off. The registry is safe for the
// concurrent generators a workers > 1 run spawns.
func RunMetered(ids []string, seed int64, workers int, reg *telemetry.Registry) ([]Result, error) {
	sel := make([]int, 0, len(registry))
	if len(ids) == 0 {
		for i := range registry {
			sel = append(sel, i)
		}
	} else {
		chosen := make(map[int]bool, len(ids))
		for _, id := range ids {
			found := false
			for i, e := range registry {
				if e.ID == id {
					chosen[i] = true
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("experiments: unknown experiment %q", id)
			}
		}
		for i := range registry {
			if chosen[i] {
				sel = append(sel, i)
			}
		}
	}

	var durations *telemetry.Histogram
	if reg != nil {
		reg.Help("mosaic_experiment_duration_seconds", "wall-clock generator duration per experiment run")
		reg.Help("mosaic_experiment_runs_total", "experiment generator invocations")
		durations = reg.Histogram("mosaic_experiment_duration_seconds", telemetry.DurationBuckets())
	}

	results := make([]Result, len(sel))
	gen := func(k int) {
		e := registry[sel[k]]
		start := time.Now()
		tab, err := e.Gen(seed)
		if reg != nil {
			d := time.Since(start).Seconds()
			durations.Observe(d)
			reg.Gauge("mosaic_experiment_last_duration_seconds", "experiment", e.ID).Set(d)
			reg.Counter("mosaic_experiment_runs_total", "experiment", e.ID).Inc()
			if err != nil {
				reg.Counter("mosaic_experiment_errors_total", "experiment", e.ID).Inc()
			}
		}
		results[k] = Result{Experiment: e, Table: tab, Err: err}
	}
	// Slot-indexed results: workers may finish in any order, the output
	// order is fixed by sel.
	par.New(max(workers, 1)).Run(len(sel), gen)
	return results, nil
}
