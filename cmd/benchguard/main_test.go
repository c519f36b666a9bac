package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: mosaic
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkE10EndToEnd 	       3	 308301659 ns/op	52425776 B/op	  141769 allocs/op
BenchmarkPipelineThroughput-8 	      12	  95000000 ns/op	1010.52 MB/s	 9000000 B/op	   50000 allocs/op
PASS
ok  	mosaic	1.229s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(benches))
	}
	e10 := benches[0]
	if e10.Name != "BenchmarkE10EndToEnd" {
		t.Errorf("name = %q", e10.Name)
	}
	if e10.Iterations != 3 || e10.NsPerOp != 308301659 ||
		e10.BytesPerOp != 52425776 || e10.AllocsPerOp != 141769 {
		t.Errorf("E10 metrics = %+v", e10)
	}
	// The -8 GOMAXPROCS suffix must be stripped so baselines are portable.
	if benches[1].Name != "BenchmarkPipelineThroughput" {
		t.Errorf("name = %q, want suffix stripped", benches[1].Name)
	}
	if benches[1].AllocsPerOp != 50000 {
		t.Errorf("throughput allocs = %v", benches[1].AllocsPerOp)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok mosaic 1s\n")); err == nil {
		t.Fatal("want error on input with no benchmark lines")
	}
}

func TestParseBenchIgnoresFailedLines(t *testing.T) {
	in := "BenchmarkBroken --- FAIL\nBenchmarkGood 	 5	 100 ns/op	 10 allocs/op\n"
	benches, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 || benches[0].Name != "BenchmarkGood" {
		t.Fatalf("benches = %+v", benches)
	}
}

func TestCompare(t *testing.T) {
	base := []Bench{{Name: "BenchmarkE10EndToEnd", AllocsPerOp: 100000}}
	cases := []struct {
		name    string
		current []Bench
		wantBad int
	}{
		{"identical", []Bench{{Name: "BenchmarkE10EndToEnd", AllocsPerOp: 100000}}, 0},
		{"within 10%", []Bench{{Name: "BenchmarkE10EndToEnd", AllocsPerOp: 109999}}, 0},
		{"improved", []Bench{{Name: "BenchmarkE10EndToEnd", AllocsPerOp: 50000}}, 0},
		{"regressed 11%", []Bench{{Name: "BenchmarkE10EndToEnd", AllocsPerOp: 111000}}, 1},
		{"missing", []Bench{{Name: "BenchmarkOther", AllocsPerOp: 1}}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := compare(aggregate(c.current), base, 0.10, 0.25)
			if len(bad) != c.wantBad {
				t.Errorf("violations = %v, want %d", bad, c.wantBad)
			}
		})
	}
}

func TestCompareTimeGate(t *testing.T) {
	base := []Bench{{Name: "BenchmarkE10EndToEnd", NsPerOp: 100_000_000, AllocsPerOp: 1000}}
	cases := []struct {
		name    string
		current []Bench
		wantBad int
	}{
		{"within 25%", []Bench{{Name: "BenchmarkE10EndToEnd", NsPerOp: 124_000_000, AllocsPerOp: 1000}}, 0},
		{"faster", []Bench{{Name: "BenchmarkE10EndToEnd", NsPerOp: 40_000_000, AllocsPerOp: 1000}}, 0},
		{"26% slower", []Bench{{Name: "BenchmarkE10EndToEnd", NsPerOp: 126_000_000, AllocsPerOp: 1000}}, 1},
		{"both metrics regressed", []Bench{{Name: "BenchmarkE10EndToEnd", NsPerOp: 200_000_000, AllocsPerOp: 9000}}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := compare(aggregate(c.current), base, 0.10, 0.25)
			if len(bad) != c.wantBad {
				t.Errorf("violations = %v, want %d", bad, c.wantBad)
			}
		})
	}
	// A zero/negative ns/op baseline leaves time ungated.
	ungated := []Bench{{Name: "BenchmarkE10EndToEnd", NsPerOp: 0, AllocsPerOp: 1000}}
	cur := []Bench{{Name: "BenchmarkE10EndToEnd", NsPerOp: 9e12, AllocsPerOp: 1000}}
	if bad := compare(aggregate(cur), ungated, 0.10, 0.25); len(bad) != 0 {
		t.Errorf("violations = %v, want none with ns baseline 0", bad)
	}
}

// B/op is held to the same limit as allocs/op where the baseline pins it
// beside a positive allocs/op. Bytes are held by the cleanest repeat, as
// -update pins them: a repeat that rebuilt a borrowed buffer does not
// fail the gate, a run whose every repeat grew does. Allocs are held by
// the worst repeat, so one repeat over the limit fails. A row without
// bytes, or pinned allocation-free, is not gated on them.
func TestCompareBytesGate(t *testing.T) {
	base := []Bench{
		{Name: "BenchmarkFleetdAdmit", BytesPerOp: 20_000, AllocsPerOp: 180},
		{Name: "BenchmarkUnpinned", AllocsPerOp: 10},
		{Name: "BenchmarkAllocFree", BytesPerOp: 29, AllocsPerOp: 0},
	}
	type repeat struct{ bytes, allocs float64 } // FleetdAdmit's
	cases := []struct {
		name    string
		repeats []repeat
		want    string // the violation, "" for none
	}{
		{"within 10%", []repeat{{21_999, 190}, {21_000, 185}}, ""},
		{"smaller", []repeat{{8_000, 100}}, ""},
		{"one repeat rebuilt a buffer", []repeat{{20_000, 180}, {31_000, 181}, {20_100, 181}}, ""},
		{"every repeat 11% more bytes", []repeat{{22_300, 180}, {22_200, 180}, {22_400, 181}}, "BenchmarkFleetdAdmit: B/op 22200"},
		{"one repeat 11% more allocs", []repeat{{20_000, 180}, {20_000, 200}, {20_000, 181}}, "BenchmarkFleetdAdmit: allocs/op 200"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var repeats []Bench
			for _, r := range c.repeats {
				repeats = append(repeats,
					Bench{Name: "BenchmarkFleetdAdmit", BytesPerOp: r.bytes, AllocsPerOp: r.allocs},
					Bench{Name: "BenchmarkUnpinned", BytesPerOp: 1e9, AllocsPerOp: 10},
					Bench{Name: "BenchmarkAllocFree", BytesPerOp: 900, AllocsPerOp: 0})
			}
			bad := compare(aggregate(repeats), base, 0.10, 0.25)
			if c.want == "" && len(bad) != 0 || c.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.want)) {
				t.Errorf("violations = %v, want %q", bad, c.want)
			}
		})
	}
}

func TestAggregateMinOfN(t *testing.T) {
	in := []Bench{
		{Name: "BenchmarkA", Iterations: 3, NsPerOp: 110, BytesPerOp: 72, AllocsPerOp: 2},
		{Name: "BenchmarkB", Iterations: 5, NsPerOp: 900, BytesPerOp: 10, AllocsPerOp: 1},
		{Name: "BenchmarkA", Iterations: 3, NsPerOp: 100, BytesPerOp: 80, AllocsPerOp: 3},
		{Name: "BenchmarkA", Iterations: 4, NsPerOp: 130, BytesPerOp: 64, AllocsPerOp: 2},
	}
	out := aggregate(in)
	if len(out) != 2 {
		t.Fatalf("aggregated to %d records, want 2", len(out))
	}
	a := out[0]
	if a.Name != "BenchmarkA" || a.Iterations != 10 {
		t.Errorf("A = %+v, want first-appearance order and summed iterations", a)
	}
	// min ns/op, min B/op, max allocs/op.
	if a.NsPerOp != 100 || a.BytesPerOp != 64 || a.AllocsPerOp != 3 {
		t.Errorf("A metrics = %+v, want min-ns/min-bytes/max-allocs", a)
	}
	if out[1].Name != "BenchmarkB" || out[1].NsPerOp != 900 {
		t.Errorf("B = %+v, want single record passed through", out[1])
	}
}

func TestCompareZeroAllocBaseline(t *testing.T) {
	// allocs_per_op 0 pins a benchmark allocation-free: any allocation is
	// a violation, no matter how small. A negative baseline (a run
	// missing -benchmem) gates nothing.
	base := []Bench{
		{Name: "BenchmarkPinned", AllocsPerOp: 0},
		{Name: "BenchmarkUngated", AllocsPerOp: -1},
	}
	cur := []Bench{ // one repeat of the pinned row allocates
		{Name: "BenchmarkPinned", AllocsPerOp: 0},
		{Name: "BenchmarkPinned", AllocsPerOp: 1},
		{Name: "BenchmarkUngated", AllocsPerOp: 999999},
	}
	bad := compare(aggregate(cur), base, 0.10, 0.25)
	if len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkPinned") {
		t.Errorf("violations = %v, want exactly the pinned benchmark", bad)
	}
	clean := []Bench{
		{Name: "BenchmarkPinned", AllocsPerOp: 0},
		{Name: "BenchmarkUngated", AllocsPerOp: 5},
	}
	if bad := compare(aggregate(clean), base, 0.10, 0.25); len(bad) != 0 {
		t.Errorf("violations = %v, want none for a 0-alloc run", bad)
	}
}

// The per-layer fold takes the median of each metric per workload over
// repeated runs, merges the untraced and traced passes, drops metrics
// that read 0 in every run, and replaces only the row of its own label.
func TestLayersFoldAndUpsert(t *testing.T) {
	in := `{"workload":"fleet_day","trace":0,"metrics":{"work_per_s":{"value":300},"op_ms_p50":{"value":90}}}
{"correct":true,"metrics":{"work_per_s":{"value":300,"unit":"1/s"}}}
{"workload":"fleet_day","trace":1,"metrics":{"netsim.step_ms_p50":{"value":40},"phy.new_ms":{"value":0}}}
{"workload":"fleet_day","trace":0,"metrics":{"work_per_s":{"value":100},"op_ms_p50":{"value":110}}}
{"workload":"fleet_day","trace":0,"metrics":{"work_per_s":{"value":200},"op_ms_p50":{"value":100}}}
{"workload":"link_clean","trace":0,"metrics":{"work_per_s":{"value":7},"host_mem_mb":{"value":0}}}
{"workload":"link_clean","trace":0,"metrics":{"work_per_s":{"value":9},"host_mem_mb":{"value":0}}}
`
	path := filepath.Join(t.TempDir(), "layers.json")
	if err := os.WriteFile(path, []byte(`[{"label":"before","runs":1,"workloads":{"fleet_day":{"work_per_s":1}}},{"label":"after","runs":9,"workloads":{}}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeLayers(path, "after", strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []layerRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	want := []layerRow{
		{Label: "before", Runs: 1, Workloads: map[string]map[string]float64{"fleet_day": {"work_per_s": 1}}},
		{Label: "after", Runs: 3, Workloads: map[string]map[string]float64{
			"fleet_day":  {"work_per_s": 200, "op_ms_p50": 100, "netsim.step_ms_p50": 40},
			"link_clean": {"work_per_s": 8},
		}},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("ledger after the fold:\n got %+v\nwant %+v", rows, want)
	}
	if err := writeLayers(path, "x", strings.NewReader("PASS\n")); err == nil {
		t.Error("input without a result line must be an error")
	}
}

// TestLayersDiffGatesCounts: a fold under a label other than "before" is
// diffed against the before row. A metric whose fresh runs all agree is a
// count and must equal that row; timings, host-side runtime.* counts, the
// exposition size and a metric seen once are shown, never gated.
func TestLayersDiffGatesCounts(t *testing.T) {
	before := `[{"label":"before","runs":3,"workloads":{"fleet_day":{"work_per_s":400,"netsim.rated_per_flow":8.5,"netsim.peak_cross_flows":7,"runtime.gc_cycles":80,"telemetry.scrape_kb":10.6185}}}]`
	run := func(rated, peak string) error {
		t.Helper()
		path := filepath.Join(t.TempDir(), "layers.json")
		if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
			t.Fatal(err)
		}
		line := `{"workload":"fleet_day","metrics":{"work_per_s":{"value":%d},"netsim.rated_per_flow":{"value":` + rated + `},"netsim.peak_cross_flows":{"value":` + peak + `},"runtime.gc_cycles":{"value":70},"telemetry.scrape_kb":{"value":10.6195}}}` + "\n"
		return writeLayers(path, "after", strings.NewReader(fmt.Sprintf(line, 500)+fmt.Sprintf(line, 520)))
	}
	if err := run("8.5", "7"); err != nil {
		t.Fatalf("counts that did not move: %v", err)
	}
	err := run("8.25", "7")
	if err == nil || !strings.Contains(err.Error(), "fleet_day netsim.rated_per_flow: 8.5 before, 8.25 after") || strings.Contains(err.Error(), "gc_cycles") || strings.Contains(err.Error(), "scrape_kb") {
		t.Fatalf("a moved count must fail the fold, and only it: %v", err)
	}
	if err := run("8.5", "0"); err == nil || !strings.Contains(err.Error(), "netsim.peak_cross_flows: 7 before, 0 after") {
		t.Fatalf("a count that went idle must fail the fold: %v", err)
	}

	var table strings.Builder
	moved := diffLayers(&table, map[string]map[string]float64{"w": {"a": 2, "b": 3}},
		map[string]map[string]float64{"w": {"a": 2, "b": 6}}, map[string]bool{"w a": true})
	if len(moved) != 0 || !strings.Contains(table.String(), "count") || !strings.Contains(table.String(), "2.000") {
		t.Fatalf("table of an unmoved count and a doubled timing:\n%s%v", table.String(), moved)
	}
}
