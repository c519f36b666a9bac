package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// The per-layer ledger (`make bench-layers`): the repo benchmark's
// result lines — `go run ./benchmark -all -trace 1`, repeated as often
// as one likes — folded into one labelled row of BENCH_LAYERS.json. A
// row maps workload -> metric -> the median over the runs; end-to-end
// metrics come from the untraced results and per-layer metrics from the
// traced ones (the benchmark never reports a metric in both), and a
// per-layer metric whose layer is idle on the workload (reads 0 in every
// run) is left out. Rows with other labels are kept, so the file holds a
// before row from the parent tree beside the after row of the change.

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
// per workload, and the largest number of samples any metric had.
func foldLayers(r io.Reader) (map[string]map[string]float64, int, error) {
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
		return nil, 0, err
	}
	if len(samples) == 0 {
		return nil, 0, fmt.Errorf("no benchmark result lines found in input")
	}
	out, runs := map[string]map[string]float64{}, 0
	for w, metrics := range samples {
		out[w] = map[string]float64{}
		for name, xs := range metrics {
			slices.Sort(xs)
			runs = max(runs, len(xs))
			if xs[len(xs)-1] != 0 {
				out[w][name] = (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
			}
		}
	}
	return out, runs, nil
}

// writeLayers puts the folded row into the ledger at path under label,
// replacing a row of the same label and keeping every other.
func writeLayers(path, label string, in io.Reader) error {
	workloads, runs, err := foldLayers(in)
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
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
