package telemetry

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/phy"
)

func newTestLink(t *testing.T) *phy.Link {
	t.Helper()
	link, err := phy.New(phy.Config{
		Lanes: 2, Spares: 1, FEC: phy.NewRSLite(), UnitLen: 27,
		PerChannelBitRate: 2e9, Seed: 5, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return link
}

// TestLinkCollector drives a real link through clean exchanges, a channel
// kill, and a sparing remap, checking that the registry counters track the
// exchange statistics and the per-channel gauges track the monitor.
func TestLinkCollector(t *testing.T) {
	link := newTestLink(t)
	r := NewRegistry()
	c := NewLinkCollector(r, link)

	frames := [][]byte{[]byte("hello mosaic"), []byte("telemetry")}
	var wantIn, wantDelivered uint64
	for i := 0; i < 3; i++ {
		out, st, err := link.Exchange(frames)
		if err != nil {
			t.Fatal(err)
		}
		wantIn += uint64(st.FramesIn)
		wantDelivered += uint64(len(out))
		c.ObserveExchange(st)
		c.Sync()
	}
	if got := r.Counter("mosaic_link_frames_in_total").Value(); got != wantIn {
		t.Fatalf("frames_in counter %d, want %d", got, wantIn)
	}
	if got := r.Counter("mosaic_link_frames_delivered_total").Value(); got != wantDelivered {
		t.Fatalf("frames_delivered counter %d, want %d", got, wantDelivered)
	}
	if got := r.Gauge("mosaic_link_superframes").Value(); got != 3 {
		t.Fatalf("superframes gauge %v, want 3", got)
	}
	if got := r.Gauge("mosaic_link_lanes_active").Value(); got != 2 {
		t.Fatalf("lanes_active gauge %v, want 2", got)
	}
	if got := r.Gauge("mosaic_link_spares_left").Value(); got != 1 {
		t.Fatalf("spares_left gauge %v, want 1", got)
	}
	okBefore := r.Counter("mosaic_channel_frames_ok_total", "channel", "0").Value()
	if okBefore == 0 {
		t.Fatal("channel 0 accepted no frames over 3 clean exchanges")
	}

	// Kill channel 0's transmitter: the dead gauge must flip, losses must
	// accrue, and after a remap the spare count must drop.
	link.KillChannel(0)
	if _, st, err := link.Exchange(frames); err != nil {
		t.Fatal(err)
	} else {
		c.ObserveExchange(st)
	}
	c.Sync()
	if got := r.Gauge("mosaic_channel_dead", "channel", "0").Value(); got != 1 {
		t.Fatalf("dead gauge for killed channel %v, want 1", got)
	}
	if got := r.Counter("mosaic_channel_frames_lost_total", "channel", "0").Value(); got == 0 {
		t.Fatal("killed channel shows no lost frames")
	}
	if got := r.Counter("mosaic_link_units_lost_total").Value(); got == 0 {
		t.Fatal("link shows no lost units with a dead channel")
	}
	link.FailChannel(0)
	c.Sync()
	if got := r.Gauge("mosaic_link_spares_left").Value(); got != 0 {
		t.Fatalf("spares_left after remap %v, want 0", got)
	}
}

// TestLinkCollectorOnTransition drives every transition pair the
// monitor's state machine can produce and checks each lands in its
// from/to counter at the next Sync — counted from attach time, not from
// the monitor's birth.
func TestLinkCollectorOnTransition(t *testing.T) {
	link := newTestLink(t)
	mon := link.Monitor()
	noisy := func(ch int) { mon.Observe(ch, 10, 10, 50, 1000) } // estimated BER 0.05: degraded
	noisy(2)                                                    // history the collector must not replay

	r := NewRegistry()
	c := NewLinkCollector(r, link)
	transitions := func(from, to phy.ChannelState) uint64 {
		return r.Counter("mosaic_monitor_transitions_total", "from", from.String(), "to", to.String()).Value()
	}
	if got := transitions(phy.Healthy, phy.Degraded); got != 0 {
		t.Fatalf("attach replayed %d pre-attach transitions", got)
	}

	noisy(0)
	noisy(1)
	mon.MarkFailed(0)
	if got := transitions(phy.Healthy, phy.Degraded); got != 0 {
		t.Fatalf("transitions reached the registry before Sync: %d", got)
	}
	c.Sync()
	if got := transitions(phy.Healthy, phy.Degraded); got != 2 {
		t.Fatalf("healthy->degraded transitions %d, want 2", got)
	}
	if got := transitions(phy.Degraded, phy.Failed); got != 1 {
		t.Fatalf("degraded->failed transitions %d, want 1", got)
	}

	mon.Observe(1, 10, 10, 0, 1e12) // a long clean window: channel 1 recovers
	c.Sync()
	mon.MarkFailed(1)
	c.Sync()
	c.Sync() // nothing moved: adds nothing
	for _, tc := range []struct {
		from, to phy.ChannelState
		want     uint64
	}{
		{phy.Healthy, phy.Degraded, 2},
		{phy.Degraded, phy.Healthy, 1},
		{phy.Degraded, phy.Failed, 1},
		{phy.Healthy, phy.Failed, 1},
	} {
		if got := transitions(tc.from, tc.to); got != tc.want {
			t.Errorf("%v->%v transitions %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
	if got := r.Gauge("mosaic_channel_state", "channel", "1").Value(); got != float64(phy.Failed) {
		t.Errorf("channel 1 state gauge %v, want failed", got)
	}
}

// A per-superframe Sync of the link and channel tables allocates nothing.
func TestLinkCollectorSyncAllocs(t *testing.T) {
	link := newTestLink(t)
	c := NewLinkCollector(NewRegistry(), link)
	_, st, err := link.Exchange([][]byte{[]byte("hello mosaic")})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.ObserveExchange(st); c.Sync() }); allocs != 0 {
		t.Errorf("ObserveExchange+Sync allocates %v times per superframe, want 0", allocs)
	}
}

// TestWriteFile covers the file-dump twin of the HTTP endpoints: JSON when
// the path says so, Prometheus text otherwise, and error propagation for
// an unwritable path.
func TestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("mosaic_test_total").Add(7)
	r.Gauge("mosaic_test_gauge").Set(2.5)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "metrics.json")
	if err := WriteFile(r, jsonPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSON dump does not parse: %v", err)
	}

	promPath := filepath.Join(dir, "metrics.prom")
	if err := WriteFile(r, promPath); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "mosaic_test_total 7") {
		t.Fatalf("Prometheus dump missing counter line:\n%s", raw)
	}

	if err := WriteFile(r, filepath.Join(dir, "no-such-dir", "x.json")); err == nil {
		t.Fatal("unwritable path did not error")
	}
}

// TestHistogramBucketEdges pins the boundary convention (a value equal to
// an upper bound lands in that bucket) and the bucket-list sanitation:
// unsorted, duplicated, NaN and +Inf inputs.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mosaic_test_hist", []float64{5, 1, 2, 2, math.NaN(), math.Inf(1)})
	h.Observe(1)   // == first upper bound: le="1"
	h.Observe(1.5) // le="2"
	h.Observe(5)   // == last finite bound: le="5"
	h.Observe(6)   // overflow: +Inf only
	if h.Count() != 4 || h.Sum() != 13.5 {
		t.Fatalf("count=%d sum=%v, want 4 and 13.5", h.Count(), h.Sum())
	}
	text := promString(r)
	for _, line := range []string{
		`mosaic_test_hist_bucket{le="1"} 1`,
		`mosaic_test_hist_bucket{le="2"} 2`,
		`mosaic_test_hist_bucket{le="5"} 3`,
		`mosaic_test_hist_bucket{le="+Inf"} 4`,
		`mosaic_test_hist_count 4`,
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
	// Re-registering with different buckets returns the existing histogram.
	if got := r.Histogram("mosaic_test_hist", []float64{100}); got != h {
		t.Fatal("histogram identity not stable across re-registration")
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{2.5, "2.5"},
		{0, "0"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[kind]string{
		kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram", kind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Fatalf("kind %d stringifies to %q, want %q", k, got, want)
		}
	}
}
