// Package telemetry is the observability layer of the Mosaic reproduction:
// a small, deterministic metrics registry with counters, gauges, and
// fixed-bucket histograms, plus Prometheus-style text exposition and a
// JSON snapshot (expose.go), an HTTP mux with /metrics, /healthz and
// pprof hooks (httpx), and the one mechanism that publishes a stats
// struct into the registry: Mirror over a table of Rows (mirror.go). Every
// collector in the repo is such a table beside the struct it reads — the
// PHY link and channel rows here (link.go), the MAC rows in internal/mac,
// the fleet rows in internal/fleetd — so adding a series is adding a row.
//
// Design constraints, in order:
//
//  1. Allocation-free on the hot path. Metric handles are created once at
//     setup (Counter/Gauge/Histogram look up or create under a lock);
//     Add/Set/Observe on a handle are single atomic operations with no
//     allocation, so the PHY superframe loop can fold statistics at line
//     rate.
//  2. Race-safe reads. Exposition snapshots the registry under a read
//     lock while values are read atomically, so an HTTP scrape can run
//     concurrently with a soak without tripping the race detector.
//  3. Determinism-neutral. The registry only ever *receives* values; it
//     never feeds anything back into the simulation, so enabling
//     telemetry cannot perturb an experiment table or a soak event log.
//     Exposition output is itself deterministic for a given set of values
//     (metrics sort by name, then label signature).
//
// The mirror enforces the same three: handles up front and an
// allocation-free Sync, pushed by the goroutine that owns the source at a
// boundary where it is consistent (a scrape reads atomics, never the
// source), and nothing read back.
//
// The registry deliberately implements the subset of the Prometheus data
// model the repo needs — no external dependencies, no global default
// registry, no metric vectors (labels are baked into the handle at
// creation).
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// kind discriminates metric families so a name cannot be reused across
// metric types (which would produce malformed exposition).
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds a process's metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any    // metric identity -> *Counter, *Gauge or *Histogram
	kinds   map[string]kind   // family name -> kind
	help    map[string]string // family name -> HELP text
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: make(map[string]any),
		kinds:   make(map[string]kind),
		help:    make(map[string]string),
	}
}

// Help sets the HELP text emitted for a metric family. Optional; call
// once at setup.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	r.help[name] = strings.ReplaceAll(text, "\n", " ")
	r.mu.Unlock()
}

// metricID renders the canonical identity of a metric: the family name
// plus its label pairs sorted by key, in exposition syntax. Two handles
// with the same ID are the same metric.
func metricID(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// validate panics on a malformed name or label set: metric registration
// happens at setup time with literal names, so a bad one is a programming
// error, caught in tests — not a runtime condition to limp past.
func validate(name string, labels []string) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: metric %q: odd label list (want key,value pairs)", name))
	}
	for i := 0; i < len(labels); i += 2 {
		if !labelRe.MatchString(labels[i]) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label key %q", name, labels[i]))
		}
	}
}

// checkKind enforces one metric type per family name.
func (r *Registry) checkKind(name string, k kind) {
	if have, ok := r.kinds[name]; ok && have != k {
		panic(fmt.Sprintf("telemetry: metric %q already registered as %v, requested %v", name, have, k))
	}
	r.kinds[name] = k
}

// lookup returns the metric of kind k with the given identity, creating
// it with mk on first use. The family's kind is checked before the stored
// handle is asserted, so reusing a name across types panics readably.
func lookup[M any](r *Registry, k kind, name string, labels []string, mk func(id string) *M) *M {
	validate(name, labels)
	id := metricID(name, labels)
	r.mu.RLock()
	m, ok := r.metrics[id].(*M)
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, k)
	if have, ok := r.metrics[id]; ok {
		return have.(*M)
	}
	m = mk(id)
	r.metrics[id] = m
	return m
}

// Counter returns the counter with the given family name and label pairs
// (key, value, key, value, ...), creating it on first use. The returned
// handle is shared: every call with the same identity returns the same
// counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return lookup(r, kindCounter, name, labels, func(id string) *Counter {
		return &Counter{name: name, id: id}
	})
}

// Gauge returns the gauge with the given identity, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return lookup(r, kindGauge, name, labels, func(id string) *Gauge {
		return &Gauge{name: name, id: id}
	})
}

// Histogram returns the fixed-bucket histogram with the given identity,
// creating it on first use with the supplied upper bucket bounds (sorted,
// deduplicated; +Inf is implicit). Buckets are fixed at creation — later
// calls with different buckets return the existing histogram unchanged.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	return lookup(r, kindHistogram, name, labels, func(id string) *Histogram {
		uppers := make([]float64, 0, len(buckets))
		for _, b := range buckets {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				continue
			}
			uppers = append(uppers, b)
		}
		sort.Float64s(uppers)
		uppers = dedupeSorted(uppers)
		return &Histogram{
			name:   name,
			id:     id,
			labels: append([]string(nil), labels...),
			uppers: uppers,
			counts: make([]atomic.Uint64, len(uppers)+1), // last = +Inf overflow
		}
	})
}

// Unregister removes the metric with the given identity from the
// registry, so it stops appearing in exposition. Handles already held
// keep working but write into detached storage. Returns false when no
// metric with that identity exists. The family's kind registration is
// kept, so a later re-registration under the same name must keep the
// same type. Used by fleet-scale callers that attach per-entity labeled
// metrics at admission and detach them at retirement.
func (r *Registry) Unregister(name string, labels ...string) bool {
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.metrics[id]
	delete(r.metrics, id)
	return ok
}

func dedupeSorted(s []float64) []float64 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Counter is a monotonically increasing uint64. All methods are
// allocation-free and safe for concurrent use.
type Counter struct {
	name string
	id   string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value. All methods are
// allocation-free and safe for concurrent use.
type Gauge struct {
	name string
	id   string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Observe is
// allocation-free and safe for concurrent use. A scrape concurrent with
// Observe may see the per-bucket counts slightly ahead of the sum; each
// individual value is still torn-write-free.
type Histogram struct {
	name    string
	id      string
	labels  []string
	uppers  []float64       // sorted upper bounds; +Inf is counts[len(uppers)]
	counts  []atomic.Uint64 // len(uppers)+1
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first upper bound >= v.
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets is the default histogram bucketing for wall-clock
// timings in seconds: 1ms to ~100s, log-spaced.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}
}

// formatFloat renders a float64 the way both exposition formats need it:
// shortest round-trip representation, with +Inf spelled Prometheus-style.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
