package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// promString renders r's Prometheus exposition to a string.
func promString(r *Registry) string {
	var b strings.Builder
	_ = r.WritePrometheus(&b) // strings.Builder writes cannot fail
	return b.String()
}

func TestHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "method", "get", "code", "200")
	b := r.Counter("requests_total", "code", "200", "method", "get") // label order irrelevant
	if a != b {
		t.Error("same identity returned distinct counter handles")
	}
	if c := r.Counter("requests_total", "method", "get", "code", "500"); c == a {
		t.Error("distinct label values shared a handle")
	}
	g1, g2 := r.Gauge("temp"), r.Gauge("temp")
	if g1 != g2 {
		t.Error("same identity returned distinct gauge handles")
	}
	h1 := r.Histogram("lat", []float64{1, 2})
	h2 := r.Histogram("lat", []float64{5, 6}) // buckets fixed at creation
	if h1 != h2 {
		t.Error("same identity returned distinct histogram handles")
	}
	if len(h1.uppers) != 2 || h1.uppers[0] != 1 || h1.uppers[1] != 2 {
		t.Errorf("buckets changed after creation: %v", h1.uppers)
	}
}

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("v")
	g.Set(2.5)
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g, want 1.5", g.Value())
	}
	g.Set(-7)
	if g.Value() != -7 {
		t.Errorf("gauge = %g, want -7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{2, 1, 2}) // unsorted + duplicate input
	if len(h.uppers) != 2 || h.uppers[0] != 1 || h.uppers[1] != 2 {
		t.Fatalf("uppers = %v, want [1 2]", h.uppers)
	}
	for _, v := range []float64{0.5, 1.0, 1.5, 3} {
		h.Observe(v)
	}
	// v <= le semantics: 0.5 and 1.0 land in le=1, 1.5 in le=2, 3 overflows.
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 4 || h.Sum() != 6 {
		t.Errorf("count/sum = %d/%g, want 4/6", h.Count(), h.Sum())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Help("test_total", "a counter family")
	r.Counter("test_total", "channel", "2").Add(5)
	r.Counter("test_total", "channel", "10").Inc()
	r.Gauge("temp").Set(1.5)
	h := r.Histogram("lat", []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 3} {
		h.Observe(v)
	}
	want := strings.Join([]string{
		`# TYPE lat histogram`,
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		`lat_count 3`,
		`lat_sum 5`,
		`# TYPE temp gauge`,
		`temp 1.5`,
		`# HELP test_total a counter family`,
		`# TYPE test_total counter`,
		`test_total{channel="10"} 1`,
		`test_total{channel="2"} 5`,
		``,
	}, "\n")
	if got := promString(r); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Deterministic: rendering twice is byte-identical.
	if promString(r) != promString(r) {
		t.Error("exposition not deterministic across renders")
	}
	checkJSON(r, t)
}

// checkJSON double-checks the JSON side is deterministic and parseable.
func checkJSON(r *Registry, t *testing.T) {
	var a, b strings.Builder
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("JSON snapshot not deterministic across renders")
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(a.String()), &s); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	if s.Counters[`test_total{channel="2"}`] != 5 {
		t.Errorf("snapshot counter = %d, want 5", s.Counters[`test_total{channel="2"}`])
	}
	if s.Gauges["temp"] != 1.5 {
		t.Errorf("snapshot gauge = %g, want 1.5", s.Gauges["temp"])
	}
	hv, ok := s.Histograms["lat"]
	if !ok || hv.Count != 3 {
		t.Errorf("snapshot histogram = %+v, want count 3", hv)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "path", "a\"b\\c\nd").Inc()
	out := promString(r)
	want := `c{path="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped sample %q not found in:\n%s", want, out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad metric name", func() { r.Counter("bad name") })
	mustPanic("odd labels", func() { r.Counter("ok", "k") })
	mustPanic("bad label key", func() { r.Counter("ok", "bad-key", "v") })
	r.Counter("family")
	// Same identity, other type: the kind check names both kinds before
	// any handle is type-asserted.
	func() {
		defer func() {
			want := `metric "family" already registered as counter, requested gauge`
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Errorf("kind collision panic = %q, want it to contain %q", msg, want)
			}
		}()
		r.Gauge("family")
	}()
}

// TestConcurrentHammer drives writers and scrapers concurrently; it exists
// for the -race pass in make check.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const writers, iters = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits_total", "worker", string(rune('a'+w)))
			g := r.Gauge("level")
			h := r.Histogram("obs", DurationBuckets())
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i) / 1000)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for s := 0; s < 4; s++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.WritePrometheus(io.Discard)
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	var total uint64
	for _, v := range r.Snapshot().Counters {
		total += v
	}
	if total != writers*iters {
		t.Errorf("counted %d increments, want %d", total, writers*iters)
	}
}

func TestUnregister(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "queue", "a").Add(3)
	r.Counter("jobs_total", "queue", "b").Add(5)
	g := r.Gauge("depth")
	g.Set(9)
	r.Histogram("latency", []float64{1, 2})

	if !r.Unregister("jobs_total", "queue", "a") {
		t.Fatal("Unregister known counter = false")
	}
	out := promString(r)
	if strings.Contains(out, `queue="a"`) {
		t.Error("unregistered series still exposed")
	}
	if !strings.Contains(out, `jobs_total{queue="b"} 5`) {
		t.Error("sibling series vanished with it")
	}

	// Label order must not matter — identity is the sorted label set.
	r.Counter("multi", "x", "1", "y", "2")
	if !r.Unregister("multi", "y", "2", "x", "1") {
		t.Error("Unregister with reordered labels = false")
	}

	if !r.Unregister("depth") || !r.Unregister("latency") {
		t.Error("Unregister gauge/histogram = false")
	}
	if r.Unregister("depth") {
		t.Error("second Unregister = true")
	}
	if r.Unregister("never_registered") {
		t.Error("Unregister of unknown metric = true")
	}

	// The detached handle keeps working, invisibly.
	g.Set(11)
	if g.Value() != 11 {
		t.Error("detached handle stopped working")
	}
	if strings.Contains(promString(r), "depth") {
		t.Error("detached gauge reappeared")
	}

	// The family kind survives detachment: re-registering under another
	// type must still panic.
	defer func() {
		if recover() == nil {
			t.Error("re-registering a detached family as another kind did not panic")
		}
	}()
	r.Gauge("jobs_total")
}
