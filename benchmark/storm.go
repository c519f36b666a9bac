package main

import (
	_ "embed"

	"mosaic/internal/netsim"
	"mosaic/internal/scenario"
)

//go:embed workloads/storm.json
var stormJSON []byte

const (
	stormEpochs       = 400 // per Run at scale 1
	stormWarmupEpochs = 80
	// The link-level witness the scenario layer derives for fleetd's
	// scenario-bound admissions: one default fleet link over one horizon.
	stormWitnessChannels = 10
	stormWitnessSF       = 512
)

type storm struct {
	e    env
	spec scenario.Spec

	flows, lost    int64
	epochs, faults int64
	firstSHA       string
}

func setupStorm(e env, tr *tracer) (instance, error) {
	id := tr.begin("scenario.parse")
	spec, err := scenario.Parse(stormJSON)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	spec.Epochs = e.scaled(stormEpochs, 10)

	id = tr.begin("netsim.topology_build")
	t := spec.Topology
	topo, err := netsim.NewFleet(t.Pods, t.Leaves, t.Spines, t.HostsPerLeaf, t.LinkRateBps)
	if err == nil {
		netsim.NewFleetSim(topo, e.procs)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin("scenario.witness")
	_, err = scenario.Witness(spec, stormWitnessChannels, stormWitnessSF, e.seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	warm := spec
	warm.Seed = e.seed
	warm.Epochs = min(stormWarmupEpochs, spec.Epochs)
	if _, err := scenario.Run(warm, scenario.Options{Workers: e.procs}); err != nil {
		return nil, err
	}
	return &storm{e: e, spec: spec}, nil
}

// round is one Run of the spec under seed+r. A traced Run also turns the
// engine's per-epoch invariant checks on.
func (w *storm) round(r int, m *meter) error {
	spec := w.spec
	spec.Seed = w.e.seed + int64(r)
	tr := m.begin()
	id := tr.begin("scenario.run")
	res, err := scenario.Run(spec, scenario.Options{Workers: w.e.procs, CheckInvariants: tr != nil})
	tr.end(id)
	if err != nil {
		m.end(0)
		return err
	}
	m.end(float64(res.Flows))
	w.flows += int64(res.Flows)
	w.epochs += int64(res.Epochs)
	// Every injected flow is done, stalled or still active at the end;
	// anything else the engine lost.
	active := 0
	if n := len(res.Windows); n > 0 {
		active = res.Windows[n-1].ActiveEnd
	}
	if miss := res.Flows - res.Done - res.Stalled - active; miss != 0 {
		w.lost += int64(max(miss, -miss))
	}
	for _, f := range res.Faults {
		w.faults += int64(f.Count)
	}
	if r == 0 {
		w.firstSHA = res.LogSHA
	}
	return nil
}

func (w *storm) check(r int) ([]byte, error) {
	if r != 0 {
		return nil, nil
	}
	return []byte(w.firstSHA), nil
}

func (w *storm) finish(res *result, ix *spanIndex) error {
	res.Attempted = w.flows
	res.Failed = w.lost
	if ix == nil {
		return nil
	}
	runs := ix.byName["scenario.run"]
	res.setTiming("scenario.parse_us", median(ix.byName["scenario.parse"])/1e3, len(ix.byName["scenario.parse"]))
	res.setTiming("scenario.witness_us", median(ix.byName["scenario.witness"])/1e3, len(ix.byName["scenario.witness"]))
	res.setTiming("netsim.topology_build_ms", median(ix.byName["netsim.topology_build"])/1e6, len(ix.byName["netsim.topology_build"]))
	res.setTiming("scenario.run_ms_per_epoch", safeDiv(sum(runs), float64(len(runs)*w.spec.Epochs))/1e6, len(runs))
	res.set("scenario.flows_per_epoch", safeDiv(float64(w.flows), float64(w.epochs)))
	res.set("scenario.faults_per_epoch", safeDiv(float64(w.faults), float64(w.epochs)))
	return nil
}

func (w *storm) close() {}
