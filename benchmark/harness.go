package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how often a workload's set-up runs before the measured
// phase. setup_s is the median of the repetitions; only the last
// instance is measured.
const setupReps = 5

// env is what a workload may depend on: everything else it derives.
type env struct {
	seed  int64
	procs int     // GOMAXPROCS and every layer's worker count
	scale float64 // multiplies each workload's round size; 1 = reference size
}

// scaled sizes a count by the run's scale, keeping at least floor.
func (e env) scaled(n, floor int) int {
	v := int(float64(n)*e.scale + 0.5)
	if v < floor {
		v = floor
	}
	return v
}

// instance is one set-up workload. The harness calls round until the
// run's time or round budget is spent, check after every round (outside
// the timed interval), then finish once.
type instance interface {
	// round runs one fixed-size round of ops, timing each through m.
	round(r int, m *meter) error
	// check verifies the round just run. After round 0 it also returns
	// the bytes that define sim_digest: the simulated outcome of a fixed
	// amount of work, so it does not depend on how long the run lasted.
	check(r int) (digest []byte, err error)
	// finish drains, verifies end-of-run invariants, fills attempted and
	// failed, and, on a traced run, adds the layer's metrics.
	finish(res *result, ix *spanIndex) error
	// close releases listeners and goroutines.
	close()
}

type workloadDef struct {
	name  string
	why   string
	setup func(e env, tr *tracer) (instance, error)
}

// meter collects per-op timings and per-round work for one run.
//
// On a traced run every other op is traced, and the pattern flips from
// one round to the next: op i of round r is traced when i+r is even.
// Traced and untraced ops so see the same seconds of the same process,
// which is what makes their difference readable on a noisy host, and
// every position in a round is traced in one round and untraced in the
// next, which is what lets ops of different sizes be compared at all.
type meter struct {
	tr *tracer // the run's tracer, nil on an untraced run

	rounds [][]float64 // every op's duration in ns, by round
	work   float64     // work units completed in the current round
	ops    int

	cur     *tracer // tracer of the op in progress, nil when it is untraced
	opStart time.Time
	opSpan  int32

	lastMem  time.Time
	heapPeak uint64
}

// startRound opens the next round's op list.
func (m *meter) startRound() {
	m.work = 0
	m.rounds = append(m.rounds, nil)
}

// traced reports whether op i of round r is a traced op.
func (m *meter) traced(r, i int) bool { return m.tr != nil && (r+i)%2 == 0 }

// begin starts timing one op and returns the tracer its spans go to:
// nil when the op is untraced.
func (m *meter) begin() *tracer {
	r := len(m.rounds) - 1
	m.cur = nil
	if m.traced(r, len(m.rounds[r])) {
		m.cur = m.tr
		m.cur.op = int32(m.ops)
		m.opSpan = m.cur.begin("op")
	}
	m.opStart = time.Now()
	return m.cur
}

// end stops timing the op and credits its work units to the round.
func (m *meter) end(work float64) {
	now := time.Now()
	if m.cur != nil {
		m.cur.end(m.opSpan)
		m.cur.op = -1
	}
	r := len(m.rounds) - 1
	m.rounds[r] = append(m.rounds[r], float64(now.Sub(m.opStart)))
	m.work += work
	m.ops++
	// Heap high-water mark, sampled at op boundaries outside the timed
	// interval and rarely enough that the stop-the-world read is noise.
	if now.Sub(m.lastMem) > 250*time.Millisecond {
		m.sampleHeap()
	}
}

// opNS returns every op duration of the traced or of the untraced ops.
func (m *meter) opNS(traced bool) []float64 {
	var out []float64
	for r, ops := range m.rounds {
		for i, d := range ops {
			if m.traced(r, i) == traced {
				out = append(out, d)
			}
		}
	}
	return out
}

// traceOverhead is the median, over every op and the op at the same
// position one round later, of traced time over untraced time, minus one.
func (m *meter) traceOverhead() float64 {
	var ratios []float64
	for r := 0; r+1 < len(m.rounds); r++ {
		a, b := m.rounds[r], m.rounds[r+1]
		for i := range min(len(a), len(b)) {
			if m.traced(r, i) {
				ratios = append(ratios, a[i]/b[i])
			} else {
				ratios = append(ratios, b[i]/a[i])
			}
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

func (m *meter) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > m.heapPeak {
		m.heapPeak = ms.HeapInuse
	}
	m.lastMem = time.Now()
}

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // timings: how many were taken
	Tail    string  `json:"tail,omitempty"`    // *_tail metrics: which percentile
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string   `json:"workload"`
	Trace     int      `json:"trace"`
	Seed      int64    `json:"seed"`
	Procs     int      `json:"procs"`
	Go        string   `json:"go"`
	Scale     float64  `json:"scale"`
	Rounds    int      `json:"rounds"`
	Ops       int      `json:"ops"`
	MeasuredS float64  `json:"measured_s"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Correct   bool     `json:"correct"`
	SimDigest string   `json:"sim_digest"`
	Problems  []string `json:"problems,omitempty"`

	// SegmentSpread repeats driver.segment_spread on untraced results so
	// -compare can tell an unresolved row from an unchanged one.
	SegmentSpread float64 `json:"segment_spread"`
	// RoundRates is each round's work per second, in order.
	RoundRates []float64 `json:"round_rates"`

	Metrics map[string]value `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name)}
}

func (r *result) setTiming(name string, v float64, samples int) {
	r.Metrics[name] = value{Value: v, Unit: unitOf(name), Samples: samples}
}

func (r *result) setTail(name string, xs []float64, div float64) {
	v, which := tailOf(xs)
	r.Metrics[name] = value{Value: v / div, Unit: unitOf(name), Samples: len(xs), Tail: which}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runOpts is what the command line decides about one run.
type runOpts struct {
	env
	seconds float64 // measure at least this long ...
	rounds  int     // ... or, when > 0, exactly this many rounds
	trace   bool
}

// run sets a workload up, measures it and reports.
func run(w workloadDef, o runOpts) (result, []span) {
	res := result{
		Workload: w.name, Seed: o.seed, Procs: o.procs, Go: runtime.Version(),
		Scale: o.scale, Metrics: map[string]value{},
	}
	var tr *tracer
	if o.trace {
		res.Trace = 1
		tr = newTracer()
	}

	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Every repetition starts from a collected heap, so that setup_s
		// and host_mem_mb describe one instance, not its predecessors.
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(o.env, tr)
		if err != nil {
			res.problem("setup: %v", err)
			return res, nil
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	m := &meter{tr: tr}
	m.sampleHeap()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var rates []float64
	var measured time.Duration
	minRounds := 1
	if o.trace {
		minRounds = 2
	}
	for r := 0; ; r++ {
		m.startRound()
		t0 := time.Now()
		err := inst.round(r, m)
		wall := time.Since(t0)
		if err != nil {
			res.problem("round %d: %v", r, err)
			return res, nil
		}
		measured += wall
		rates = append(rates, m.work/wall.Seconds())
		digest, err := inst.check(r)
		if err != nil {
			res.problem("round %d: %v", r, err)
		}
		if r == 0 {
			h := sha256.Sum256(digest)
			res.SimDigest = hex.EncodeToString(h[:])
		}
		res.Rounds = r + 1
		if o.rounds > 0 {
			if res.Rounds >= o.rounds {
				break
			}
		} else if res.Rounds >= minRounds && measured.Seconds() >= o.seconds {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	m.sampleHeap()
	res.Ops = m.ops
	res.MeasuredS = measured.Seconds()
	res.SegmentSpread = spread(rates)
	res.RoundRates = rates

	var ix *spanIndex
	if o.trace {
		x := indexSpans(tr.spans)
		ix = &x
	}
	if err := inst.finish(&res, ix); err != nil {
		res.problem("finish: %v", err)
	}

	if !o.trace {
		res.setTiming("setup_s", median(setups), len(setups))
		res.setTiming("work_per_s", median(rates), len(rates))
		ops := m.opNS(false)
		res.setTiming("op_ms_p50", median(ops)/1e6, len(ops))
		res.set("host_mem_mb", hostMemMB(&ms1))
	} else {
		res.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(m.ops))
		res.set("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3/float64(m.ops))
		res.set("runtime.heap_peak_mb", float64(m.heapPeak)/1e6)
		res.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		res.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		res.setTail("driver.op_ms_tail", append(m.opNS(false), m.opNS(true)...), 1e6)
		res.set("driver.segment_spread", res.SegmentSpread)
		res.set("driver.trace_overhead_frac", m.traceOverhead())
		res.set("driver.fail_ratio", safeDiv(float64(res.Failed), float64(res.Attempted)))
	}
	res.Correct = len(res.Problems) == 0
	var spans []span
	if tr != nil {
		spans = tr.spans
	}
	return res, spans
}

// hostMemMB is the memory the process took from the host: the kernel's
// high-water mark of its resident set, or, where /proc does not say, what
// the Go runtime obtained from the OS. The resident set moves in pages,
// the runtime's figure in 4 MB arena steps, which on the small workloads
// is a third of the whole.
func hostMemMB(ms *runtime.MemStats) float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1e3
				}
			}
		}
	}
	return float64(ms.Sys) / 1e6
}
