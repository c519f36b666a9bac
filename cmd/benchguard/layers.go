package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
)

// The per-layer ledger (`make bench-layers`): the repo benchmark's
// result lines — `go run ./benchmark -all -trace 1`, repeated as often
// as one likes — folded into one labelled row of BENCH_LAYERS.json. A
// row maps workload -> metric -> the median over the runs; end-to-end
// metrics come from the untraced results and per-layer metrics from the
// traced ones (the benchmark never reports a metric in both), and a
// per-layer metric whose layer is idle on the workload (reads 0 in every
// run) is left out. Rows with other labels are kept, so the file holds a
// before row from the parent tree beside the after row of the change —
// and a fold under any other label is diffed against that before row:
// a metric | before | after | ratio table per workload, and an error for
// every count that moved. A count is a metric whose fresh runs all agree
// exactly, which the fixed work of `make bench-layers` guarantees for
// what the simulation did (flows rated, waterfills, peaks, ratios of
// counts) and for no timing; runtime.* and driver.* describe the host
// process (GC cycles, heap peak), may repeat by luck and are a change's
// to move, so they are shown but never gated — and neither is
// telemetry.scrape_kb, the size of an exposition that prints host
// counters too (pool steals), so a digit more or less of those moves it.

// layerResult is the part of a benchmark result line the fold reads.
type layerResult struct {
	Workload string `json:"workload"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// layerRow is one labelled row of the ledger.
type layerRow struct {
	Label     string                        `json:"label"`
	Runs      int                           `json:"runs"` // results folded per workload and pass
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// foldLayers reads result lines and returns the median of every metric
// per workload, the largest number of samples any metric had, and the
// counts: "workload metric" names whose two or more samples all agree.
func foldLayers(r io.Reader) (map[string]map[string]float64, int, map[string]bool, error) {
	samples := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var res layerResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil || res.Workload == "" {
			continue // not a result line
		}
		if samples[res.Workload] == nil {
			samples[res.Workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			samples[res.Workload][name] = append(samples[res.Workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, nil, err
	}
	if len(samples) == 0 {
		return nil, 0, nil, fmt.Errorf("no benchmark result lines found in input")
	}
	out, runs, counts := map[string]map[string]float64{}, 0, map[string]bool{}
	for w, metrics := range samples {
		out[w] = map[string]float64{}
		for name, xs := range metrics {
			slices.Sort(xs)
			runs = max(runs, len(xs))
			if xs[len(xs)-1] != 0 {
				out[w][name] = (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
			}
			counts[w+" "+name] = len(xs) > 1 && xs[0] == xs[len(xs)-1]
		}
	}
	return out, runs, counts, nil
}

// diffLayers prints the before/after table of every workload in after
// and returns one message per gated count that differs from before.
func diffLayers(w io.Writer, before, after map[string]map[string]float64, counts map[string]bool) []string {
	var moved []string
	for _, wl := range sortedKeys(after) {
		fmt.Fprintf(w, "%s\n  %-36s %14s %14s %7s\n", wl, "metric", "before", "after", "ratio")
		names := maps.Clone(after[wl])
		maps.Copy(names, before[wl]) // a metric that went idle reads 0 after
		for _, name := range sortedKeys(names) {
			b, a := before[wl][name], after[wl][name]
			note := ""
			if counts[wl+" "+name] && !strings.HasPrefix(name, "runtime.") && !strings.HasPrefix(name, "driver.") && name != "telemetry.scrape_kb" {
				if note = "  count"; a != b {
					note = "  count MOVED"
					moved = append(moved, fmt.Sprintf("%s %s: %v before, %v after", wl, name, b, a))
				}
			}
			fmt.Fprintf(w, "  %-36s %14.6g %14.6g %7.3f%s\n", name, b, a, a/b, note)
		}
	}
	return moved
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// writeLayers puts the folded row into the ledger at path under label,
// replacing a row of the same label and keeping every other.
func writeLayers(path, label string, in io.Reader) error {
	workloads, runs, counts, err := foldLayers(in)
	if err != nil {
		return err
	}
	var rows []layerRow
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	row := layerRow{Label: label, Runs: runs, Workloads: workloads}
	if i := slices.IndexFunc(rows, func(r layerRow) bool { return r.Label == label }); i >= 0 {
		rows[i] = row
	} else {
		rows = append(rows, row)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("benchguard: row %q of %s: %d workload(s), median of %d run(s)\n", label, path, len(workloads), runs)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if i := slices.IndexFunc(rows, func(r layerRow) bool { return r.Label == "before" }); i >= 0 && label != "before" {
		if moved := diffLayers(os.Stdout, rows[i].Workloads, workloads, counts); len(moved) > 0 {
			return fmt.Errorf("%d count(s) moved against the before row:\n  %s", len(moved), strings.Join(moved, "\n  "))
		}
	}
	return nil
}
