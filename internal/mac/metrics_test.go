package mac

import (
	"testing"

	"mosaic/internal/telemetry"
)

// collectorPair is a pair whose endpoints have vcs virtual channels, for
// sizing a collector; the synthetic-Stats cases never tick it.
func collectorPair(t *testing.T, vcs int) *Pair {
	t.Helper()
	p, err := NewPair(testLink(t, 1, 1), testLink(t, 2, 1), PairConfig{
		Endpoint: Config{VCs: vcs, ARQ: ARQSelectiveRepeat, MaxPayload: 200, PayloadBudget: 3000},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMACCollectorSync checks delta folding, the windowed retx-rate math
// (including the zero-denominator window), the series built with the
// session, and bridge-level publication.
func TestMACCollectorSync(t *testing.T) {
	r := telemetry.NewRegistry()
	c := newCollector(r, collectorPair(t, 3))
	a, b := &c.eps[0], &c.eps[1]

	// Every endpoint and VC series exists before the first sync.
	snap := r.Snapshot()
	for _, id := range []string{
		`mosaic_mac_retransmits_total{endpoint="a"}`,
		`mosaic_mac_retransmits_total{endpoint="b"}`,
		`mosaic_mac_vc_delivered_total{endpoint="a",vc="2"}`,
		`mosaic_mac_vc_delivered_total{endpoint="b",vc="0"}`,
	} {
		if _, ok := snap.Counters[id]; !ok {
			t.Fatalf("series %s not built with the session", id)
		}
	}
	if _, ok := snap.Counters[`mosaic_mac_vc_delivered_total{endpoint="a",vc="3"}`]; ok {
		t.Fatal("series for a VC the pair lacks")
	}

	s := Stats{
		PacketsQueued: 10, DataTx: 20, Retransmits: 5, AcksTx: 2,
		DataRx: 18, Delivered: 9, Duplicates: 1, Discarded: 1,
		AcksRx: 15, CreditStalls: 3, Timeouts: 2,
		InFlight: 4, QueueDepth: 6,
		Deframe: DeframeStats{Frames: 40, CRCRejects: 2, HeaderRejects: 1, SkippedBytes: 7},
	}
	a.sync(s)
	if got := r.Counter("mosaic_mac_retransmits_total", "endpoint", "a").Value(); got != 5 {
		t.Fatalf("retransmits %d, want 5", got)
	}
	// First window: 5 retransmits over 20 fresh + 5 retx data frames.
	if got := r.Gauge("mosaic_mac_retx_rate", "endpoint", "a").Value(); got != 5.0/25.0 {
		t.Fatalf("retx rate %v, want 0.2", got)
	}
	if got := r.Gauge("mosaic_mac_replay_occupancy", "endpoint", "a").Value(); got != 4 {
		t.Fatalf("replay occupancy %v, want 4", got)
	}

	// Second sync with identical cumulative stats: every delta is zero, so
	// counters hold and the retx-rate window divides by nothing -> 0.
	a.sync(s)
	if got := r.Counter("mosaic_mac_retransmits_total", "endpoint", "a").Value(); got != 5 {
		t.Fatalf("retransmits double-counted: %d", got)
	}
	if got := r.Gauge("mosaic_mac_retx_rate", "endpoint", "a").Value(); got != 0 {
		t.Fatalf("empty-window retx rate %v, want 0", got)
	}

	// Third sync: only fresh data this window -> rate 0 with nonzero
	// denominator; counters advance by the delta only.
	s2 := s
	s2.DataTx += 10
	s2.Delivered += 10
	a.sync(s2)
	if got := r.Gauge("mosaic_mac_retx_rate", "endpoint", "a").Value(); got != 0 {
		t.Fatalf("clean-window retx rate %v, want 0", got)
	}
	if got := r.Counter("mosaic_mac_data_frames_tx_total", "endpoint", "a").Value(); got != 30 {
		t.Fatalf("data_tx %d, want 30", got)
	}

	// The second endpoint has its own handle set.
	b.sync(Stats{DataTx: 1})
	if got := r.Counter("mosaic_mac_data_frames_tx_total", "endpoint", "b").Value(); got != 1 {
		t.Fatalf("endpoint b data_tx %d, want 1", got)
	}

	c.bridge.Sync(&Bridge{renegotiations: 2, lastFrac: 0.5})
	c.bridge.Sync(&Bridge{renegotiations: 5, lastFrac: 1.0})
	if got := r.Counter("mosaic_mac_renegotiations_total").Value(); got != 5 {
		t.Fatalf("renegotiations %d, want 5", got)
	}
	if got := r.Gauge("mosaic_mac_capacity_fraction").Value(); got != 1.0 {
		t.Fatalf("capacity fraction %v, want 1", got)
	}
}

// A tick's worth of pushes — endpoint, VC and bridge tables — allocates
// nothing: the whole session sync, and the per-endpoint step on its own.
func TestMACCollectorSyncAllocs(t *testing.T) {
	p := collectorPair(t, 3)
	c := newCollector(telemetry.NewRegistry(), p)
	b := &Bridge{lastFrac: 0.5, renegotiations: 1}
	if err := p.A.SendVC(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	s := Stats{DataTx: 20, Retransmits: 5}
	push := func() {
		c.sync(p, b)
		s.DataTx++
		c.eps[0].sync(s)
	}
	push()
	if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
		t.Errorf("MAC telemetry push allocates %v times per tick, want 0", allocs)
	}
}
