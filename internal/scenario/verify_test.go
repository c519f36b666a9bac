package scenario

import (
	"fmt"
	"math"
)

// Report is one scenario's conformance outcome: the properties the
// harness asserted and the numbers backing them. The CI job renders
// these as per-scenario artifact tables.
type Report struct {
	Scenario string
	LogSHA   string
	Workers  []int // worker counts whose event logs matched byte-for-byte
	Epochs   int
	Flows    int
	Done     int
	Stalled  int
	Faults   []FaultCount
}

// Verify runs a spec's full conformance suite:
//
//	(a) worker-count invariance — the run repeats at every count in
//	    workers and the event logs must be byte-identical;
//	(b) flow conservation and max-min — netsim.CheckInvariants is
//	    asserted at every epoch's resolved point of every run;
//	(c) fault expectation — each environment's injected event count
//	    must sit within 6 sigma + 0.5 of its closed-form mean (exact
//	    for deterministic environments; runs are seeded, so this is a
//	    regression pin, not a flaky statistical test).
//
// workers must list at least one count; 1 and 0 (GOMAXPROCS) is the
// canonical pair.
func Verify(spec Spec, workers []int) (*Report, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("scenario %s: conformance needs at least one worker count", spec.Name)
	}
	base, err := Run(spec, Options{Workers: workers[0], CheckInvariants: true})
	if err != nil {
		return nil, err
	}
	for _, w := range workers[1:] {
		r, err := Run(spec, Options{Workers: w, CheckInvariants: true})
		if err != nil {
			return nil, err
		}
		if r.LogSHA != base.LogSHA {
			return nil, fmt.Errorf("scenario %s: event log diverges at workers=%d (sha %s) vs workers=%d (sha %s): %s",
				spec.Name, w, r.LogSHA, workers[0], base.LogSHA, firstLogDiff(base.EventLog, r.EventLog))
		}
	}
	for _, fc := range base.Faults {
		tol := 6*fc.Sigma + 0.5
		if math.Abs(float64(fc.Count)-fc.Mean) > tol {
			return nil, fmt.Errorf("scenario %s: environment %s injected %d events, expected %.1f ± %.1f",
				spec.Name, fc.Name, fc.Count, fc.Mean, tol)
		}
	}
	return &Report{
		Scenario: spec.Name,
		LogSHA:   base.LogSHA,
		Workers:  workers,
		Epochs:   base.Epochs,
		Flows:    base.Flows,
		Done:     base.Done,
		Stalled:  base.Stalled,
		Faults:   base.Faults,
	}, nil
}

// firstLogDiff locates the first divergent line between two event logs.
func firstLogDiff(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first diff at line %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(a), len(b))
}
