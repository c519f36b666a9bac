// Command benchguard turns `go test -bench` text output into a JSON
// record and gates time and allocation regressions against a committed
// baseline. It is the CI bench-regression stage:
//
//	go test -bench 'BenchmarkE10EndToEnd$' -benchmem -benchtime 100x -count=5 -run '^$' . |
//	    benchguard -baseline ci/bench_baseline.json -out BENCH_E10.json
//
// Repeated results for one benchmark (-count=N) are folded into a single
// record before gating, and the record is what -update pins: minimum
// ns/op and B/op — the least-noisy estimates of the code's true cost,
// since scheduler and cache interference only ever add time, and a
// sync.Pool that missed (its per-P cache is empty after the goroutine
// moved, or a GC dropped it) only adds a rebuilt buffer — and maximum
// allocs/op, the worst observation, so a repeat that allocates fails a
// row pinned allocation-free.
//
// The run fails (exit 1) when any baselined benchmark is missing from
// the input, regresses allocs/op by more than -max-regress (default
// 10%), regresses B/op by as much where the baseline pins it beside a
// positive allocs/op, or regresses ns/op by more than -max-time-regress
// (default 25% — looser than the memory gates because wall time is
// machine-dependent). A baseline of exactly 0 allocs/op is a hard gate
// (the benchmark is pinned allocation-free); a negative allocs/op or
// zero/negative ns/op baseline leaves that metric ungated. Refresh the
// baseline after an intentional change with -update.
//
// With -layers LABEL it instead folds the repo benchmark's result lines
// into one row of the per-layer ledger (layers.go, make bench-layers) and,
// unless LABEL is "before", diffs the row against the ledger's before row:
// a table per workload, exit 1 if a count moved.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result line.
type Bench struct {
	Name        string  `json:"name"` // without the -GOMAXPROCS suffix
	Iterations  int     `json:"iterations,omitempty"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the JSON document benchguard reads and writes.
type Report struct {
	Benchmarks []Bench `json:"benchmarks"`
}

// procSuffix strips the trailing -N GOMAXPROCS marker so baselines are
// portable across machines with different core counts.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark result lines from `go test -bench`
// output. Non-benchmark lines (headers, tables logged with -v, PASS) are
// ignored.
func parseBench(r io.Reader) ([]Bench, error) {
	var out []Bench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // e.g. "BenchmarkX --- FAIL" or a log line
		}
		b := Bench{
			Name:       procSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
		}
		// The rest of the line is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	return out, nil
}

// aggregate folds repeated results for one benchmark (-count=N) into a
// single record: minimum ns/op and B/op, maximum allocs/op, summed
// iterations. First-appearance order is preserved.
func aggregate(benches []Bench) []Bench {
	idx := make(map[string]int, len(benches))
	var out []Bench
	for _, b := range benches {
		i, seen := idx[b.Name]
		if !seen {
			idx[b.Name] = len(out)
			out = append(out, b)
			continue
		}
		out[i].Iterations += b.Iterations
		if b.NsPerOp < out[i].NsPerOp {
			out[i].NsPerOp = b.NsPerOp
		}
		if b.BytesPerOp < out[i].BytesPerOp {
			out[i].BytesPerOp = b.BytesPerOp
		}
		if b.AllocsPerOp > out[i].AllocsPerOp {
			out[i].AllocsPerOp = b.AllocsPerOp
		}
	}
	return out
}

// compare checks every baselined benchmark against the current run, as
// folded by aggregate, and returns human-readable violations (empty =
// pass).
func compare(current, baseline []Bench, maxRegress, maxTimeRegress float64) []string {
	byName := make(map[string]Bench, len(current))
	for _, b := range current {
		byName[b.Name] = b
	}
	var bad []string
	for _, base := range baseline {
		cur, ok := byName[base.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: baselined benchmark missing from this run", base.Name))
			continue
		}
		if base.AllocsPerOp >= 0 {
			// A baseline of exactly 0 is a hard gate: the benchmark is
			// pinned allocation-free and any allocation is a regression.
			limit := base.AllocsPerOp * (1 + maxRegress)
			if cur.AllocsPerOp > limit {
				bad = append(bad, fmt.Sprintf(
					"%s: allocs/op %.0f exceeds baseline %.0f by %.1f%% (limit +%.0f%%)",
					base.Name, cur.AllocsPerOp, base.AllocsPerOp,
					100*(cur.AllocsPerOp/base.AllocsPerOp-1), 100*maxRegress))
			}
		}
		// The bytes of a row pinned allocation-free are the runtime's
		// amortised noise, not the code's: that row is held by its allocs.
		if base.AllocsPerOp > 0 && base.BytesPerOp > 0 && cur.BytesPerOp > base.BytesPerOp*(1+maxRegress) {
			bad = append(bad, fmt.Sprintf(
				"%s: B/op %.0f exceeds baseline %.0f by %.1f%% (limit +%.0f%%)",
				base.Name, cur.BytesPerOp, base.BytesPerOp,
				100*(cur.BytesPerOp/base.BytesPerOp-1), 100*maxRegress))
		}
		if base.NsPerOp > 0 && cur.NsPerOp > base.NsPerOp*(1+maxTimeRegress) {
			bad = append(bad, fmt.Sprintf(
				"%s: ns/op %.0f exceeds baseline %.0f by %.1f%% (limit +%.0f%%)",
				base.Name, cur.NsPerOp, base.NsPerOp,
				100*(cur.NsPerOp/base.NsPerOp-1), 100*maxTimeRegress))
		}
	}
	return bad
}

func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		inPath         = flag.String("in", "", "bench output to parse (default: stdin)")
		outPath        = flag.String("out", "", "write the parsed results as JSON to this file")
		basePath       = flag.String("baseline", "", "baseline JSON to gate against")
		maxRegress     = flag.Float64("max-regress", 0.10, "allowed fractional allocs/op and B/op regression")
		maxTimeRegress = flag.Float64("max-time-regress", 0.25, "allowed fractional ns/op regression")
		update         = flag.Bool("update", false, "rewrite -baseline from this run instead of gating")
		layers         = flag.String("layers", "", "fold repo-benchmark result lines into the row of this label in the -out ledger and diff it against the before row (see layers.go)")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	if *layers != "" {
		if err := writeLayers(*outPath, *layers, in); err != nil {
			fatal(err)
		}
		return
	}
	benches, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	benches = aggregate(benches)
	rep := Report{Benchmarks: benches}
	for _, b := range benches {
		fmt.Printf("benchguard: %s  %.0f ns/op  %.0f B/op  %.0f allocs/op\n",
			b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}

	if *outPath != "" {
		if err := writeReport(*outPath, rep); err != nil {
			fatal(err)
		}
	}
	if *basePath == "" {
		return
	}
	if *update {
		if err := writeReport(*basePath, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: baseline %s updated\n", *basePath)
		return
	}
	baseline, err := loadReport(*basePath)
	if err != nil {
		fatal(err)
	}
	if bad := compare(benches, baseline.Benchmarks, *maxRegress, *maxTimeRegress); len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", msg)
		}
		os.Exit(1)
	}
	fmt.Printf("benchguard: OK — %d benchmark(s) within +%.0f%% allocs and bytes, +%.0f%% time of baseline\n",
		len(baseline.Benchmarks), 100**maxRegress, 100**maxTimeRegress)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
