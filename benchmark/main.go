// Command benchmark is the repository's benchmark: five workloads over
// the link exchange, the fleet day and the serving daemon, each reporting
// the same end-to-end metrics untraced and, on a traced run, per-layer
// metrics measured from outside the layers. See README.md.
//
//	go run ./benchmark -list
//	go run ./benchmark -all [-seed N] [-trace 1] > run.json
//	go run ./benchmark -workload fleet_day -seconds 15
//	go run ./benchmark -compare before.json after.json
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

var workloads = []workloadDef{
	{wLinkClean, "paper's 100x2G prototype link on its clean fast path: the PHY does all the work, MAC/netsim/fleetd none", setupLinkClean},
	{wLinkARQ, "same PHY at BER 2e-4 under the SR-ARQ MAC: full RS decode and resync instead of the clean shortcut, and the only MAC work", setupLinkARQ},
	{wFleetDay, "E24 diurnal day at 1.8x peak on 1752 aging links: netsim alone, in the overloaded deep-backlog regime", setupFleetDay},
	{wStorm, "same flow engine under-loaded through the scenario layer: capacity-fraction churn and recompute, not arrivals and heap drain", setupStorm},
	{wServe, "mosaicfleetd soak configuration behind its HTTP API: fleetd scheduling, pool, merge, event log and telemetry dominate", setupServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// reference pins the simulated outcome at the reference seed and scale.
//
//go:embed reference.json
var referenceJSON []byte

type referencePins struct {
	Seed    int64             `json:"seed"`
	Scale   float64           `json:"scale"`
	Digests map[string]string `json:"digests"`
}

// tinyScale is what -scale tiny stands for: a few hundred ops in all.
const tinyScale = 0.02

type config struct {
	list, all, compare bool
	workload           string
	traceOut           string
	args               []string
	runOpts
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&c.list, "list", false, "print workloads and metric names with units, run nothing")
	fs.BoolVar(&c.all, "all", false, "run every workload")
	fs.BoolVar(&c.compare, "compare", false, "compare two result files: -compare BASE.json NEW.json")
	fs.StringVar(&c.workload, "workload", "", "run one workload and end with the driver's result line")
	fs.Int64Var(&c.seed, "seed", 1, "derives every input")
	fs.Float64Var(&c.seconds, "seconds", 15, "measure whole rounds until this much time has passed")
	fs.IntVar(&c.rounds, "rounds", 0, "measure exactly this many rounds instead (fixed work)")
	scale := fs.String("scale", "1", "multiplies every round size; \"tiny\" is the smoke-test size")
	fs.IntVar(&c.procs, "procs", min(runtime.NumCPU(), 4), "GOMAXPROCS and every layer's worker count")
	trace := fs.Int("trace", 0, "1 adds the traced run and its per-layer metrics")
	fs.StringVar(&c.traceOut, "trace-out", "", "append the traced run's spans to this file, one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.args = fs.Args()

	modes := 0
	for _, on := range []bool{c.list, c.all, c.compare, c.workload != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return c, errors.New("give exactly one of -list, -all, -workload NAME, -compare A B")
	}
	if c.compare {
		if len(c.args) != 2 {
			return c, errors.New("-compare takes two result files")
		}
		return c, nil
	}
	if len(c.args) > 0 {
		return c, fmt.Errorf("unexpected arguments %q", c.args)
	}
	if c.workload != "" {
		if _, ok := findWorkload(c.workload); !ok {
			return c, fmt.Errorf("unknown workload %q (see -list)", c.workload)
		}
	}
	if *scale == "tiny" {
		c.scale = tinyScale
	} else if v, err := strconv.ParseFloat(*scale, 64); err != nil || !(v > 0) {
		return c, fmt.Errorf("-scale %q must be a number above 0 or \"tiny\"", *scale)
	} else {
		c.scale = v
	}
	if c.procs < 1 || c.procs > runtime.NumCPU() {
		return c, fmt.Errorf("-procs %d outside [1, %d]", c.procs, runtime.NumCPU())
	}
	if !(c.seconds > 0) {
		return c, fmt.Errorf("-seconds %g must be above 0", c.seconds)
	}
	if c.rounds < 0 {
		return c, fmt.Errorf("-rounds %d must not be negative", c.rounds)
	}
	if *trace != 0 && *trace != 1 {
		return c, fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	c.trace = *trace == 1
	return c, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	switch {
	case c.list:
		printList(stdout)
		return 0
	case c.compare:
		ok, err := compareFiles(stdout, c.args[0], c.args[1])
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	if c.all {
		return runAll(c, stdout, stderr)
	}
	return runOne(c, stdout, stderr)
}

// runAll runs every workload, each run in a process of its own (this
// binary again, with -workload), exactly as the driver runs them: a
// workload's memory high-water mark and GC state then owe nothing to the
// workload before it. With -trace 1 each workload runs twice, untraced
// then traced, so end-to-end numbers always come from an untraced run.
func runAll(c config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	passes := []string{"0"}
	if c.trace {
		passes = []string{"0", "1"}
	}
	ok := true
	for _, w := range workloads {
		for _, trace := range passes {
			cmd := exec.Command(self, "-workload", w.name, "-trace", trace,
				"-seed", strconv.FormatInt(c.seed, 10),
				"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
				"-rounds", strconv.Itoa(c.rounds),
				"-scale", strconv.FormatFloat(c.scale, 'g', -1, 64),
				"-procs", strconv.Itoa(c.procs),
				"-trace-out", c.traceOut)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
			ok = ok && err == nil
			// Forward the result line; the driver's summary line stays behind.
			line, _, _ := strings.Cut(string(out), "\n")
			if line != "" {
				fmt.Fprintln(stdout, line)
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and ends with the driver's
// summary line.
func runOne(c config, stdout, stderr io.Writer) int {
	var pins referencePins
	if err := json.Unmarshal(referenceJSON, &pins); err != nil {
		fmt.Fprintln(stderr, "benchmark: reference.json:", err)
		return 2
	}
	runtime.GOMAXPROCS(c.procs)
	w, _ := findWorkload(c.workload)
	res, spans := run(w, c.runOpts)
	if want, pinned := pins.Digests[w.name]; pinned && c.seed == pins.Seed && c.scale == pins.Scale && res.SimDigest != want {
		res.problem("sim_digest %s differs from the pinned %s", res.SimDigest, want)
		res.Correct = false
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, p)
	}
	if res.Ops == 0 {
		// Set-up or the first round failed: there is nothing to report.
		return 1
	}
	if c.trace && c.traceOut != "" {
		if err := writeSpans(c.traceOut, w.name, spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := enc.Encode(driverLine(res)); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// driverLine is the one-object summary the benchmark driver reads from
// the last line of a -workload run: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one. A per-layer
// metric whose layer is idle on the workload reads 0.
func driverLine(res result) any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-16s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run, every workload):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %-8s %s is better, may worsen by %g of the base\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, d := range perLayer {
		on := d.On
		if on == "" {
			on = "every workload"
		}
		fmt.Fprintf(w, "  %-34s %-8s on %s; moves %s\n", d.Name, d.Unit, on, d.Moves)
	}
}
