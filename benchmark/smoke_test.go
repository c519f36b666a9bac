package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON is the schema of BENCHMARK.json at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCatalog holds the driver-facing description to
// what the program actually reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalog %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := bj.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := bj.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, g, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload at tiny scale three times: untraced at 2
// procs, traced at 1, untraced at 2 again. Every run must be correct and
// report exactly the metrics the catalog promises for that workload, and
// sim_digest must not depend on the run, the worker count or tracing.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, c := range []struct {
				procs int
				trace bool
			}{{2, false}, {1, true}, {2, false}} {
				runtime.GOMAXPROCS(c.procs)
				o := runOpts{env: env{seed: 5, procs: c.procs, scale: tinyScale}, rounds: 2, trace: c.trace}
				res, spans := run(w, o)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Ops < 2 {
					t.Fatalf("procs=%d trace=%v: correct=%v attempted=%d failed=%d ops=%d problems=%q",
						c.procs, c.trace, res.Correct, res.Attempted, res.Failed, res.Ops, res.Problems)
				}
				digests = append(digests, res.SimDigest)

				want := map[string]bool{}
				if c.trace {
					for _, d := range perLayer {
						if d.On == "" || strings.Contains(","+d.On+",", ","+w.name+",") {
							want[d.Name] = true
						}
					}
					if len(spans) == 0 {
						t.Error("traced run recorded no spans")
					}
				} else {
					for _, d := range endToEnd {
						want[d.Name] = true
						if !(res.Metrics[d.Name].Value > 0) {
							t.Errorf("%s = %g, must be above 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("procs=%d trace=%v: %s not reported", c.procs, c.trace, name)
					}
				}
				for name := range res.Metrics {
					if !want[name] {
						t.Errorf("procs=%d trace=%v: %s reported but not in the catalog for %s", c.procs, c.trace, name, w.name)
					}
				}
			}
			if digests[0] == "" || digests[1] != digests[0] || digests[2] != digests[0] {
				t.Errorf("sim_digest moved across runs / procs / tracing: %q", digests)
			}
		})
	}
}

func TestFlagsAreValidated(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-all", "-procs", "100000"},
		{"-all", "-procs", "0"},
		{"-all", "-scale", "0"},
		{"-all", "-scale", "-1"},
		{"-all", "-seconds", "0"},
		{"-all", "-trace", "2"},
		{"-all", "-list"},
		{"-compare", "only-one.json"},
		{},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("args %q accepted", args)
		}
	}
	c, err := parseArgs([]string{"--workload", "fleet_day", "--seed", "9", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || c.workload != wFleetDay || c.seed != 9 || c.seconds != 3 || !c.trace {
		t.Errorf("driver-style arguments: %+v, %v", c, err)
	}
}
