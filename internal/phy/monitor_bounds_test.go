package phy

import (
	"math"
	"reflect"
	"testing"
)

// Regression tests for the accessor hardening: Health and WorstChannels
// used to panic on out-of-range input where Observe/MarkFailed silently
// guard, and EstimatedBER's 0 on a dead channel read as "perfect".

func TestHealthOutOfRangeReturnsSentinel(t *testing.T) {
	m := NewMonitor(4, DefaultMonitorConfig())
	m.Observe(1, 10, 10, 3, 1000)
	for _, physical := range []int{-1, -100, math.MinInt, 4, 5, 1 << 20, math.MaxInt} {
		h := m.Health(physical)
		if h.Physical != -1 {
			t.Errorf("Health(%d).Physical = %d, want -1 sentinel", physical, h.Physical)
		}
		if h.FramesOK != 0 || h.FramesLost != 0 || h.Corrections != 0 ||
			h.BitsObserved != 0 || h.State != Healthy {
			t.Errorf("Health(%d) = %+v, want zero-value stats", physical, h)
		}
	}
	// In-range still returns the real record, keyed by its own index.
	for physical := 0; physical < 4; physical++ {
		if h := m.Health(physical); h.Physical != physical {
			t.Errorf("Health(%d).Physical = %d", physical, h.Physical)
		}
	}
	if h := m.Health(1); h.Corrections != 3 || h.BitsObserved != 1000 {
		t.Errorf("Health(1) = %+v, want the observed stats", h)
	}
}

func TestWorstChannelsClampsK(t *testing.T) {
	m := NewMonitor(3, DefaultMonitorConfig())
	for _, tc := range []struct {
		k, wantLen int
	}{
		{math.MinInt, 0}, {-100, 0}, {-1, 0}, {0, 0},
		{1, 1}, {3, 3}, {4, 3}, {math.MaxInt, 3},
	} {
		if got := len(m.WorstChannels(tc.k)); got != tc.wantLen {
			t.Errorf("len(WorstChannels(%d)) = %d, want %d", tc.k, got, tc.wantLen)
		}
	}
}

func TestWorstChannelsDeterministicTieBreak(t *testing.T) {
	m := NewMonitor(6, DefaultMonitorConfig())
	// Channels 5, 3, 1 share one BER estimate; 4 and 2 share a worse one;
	// 0 has no data. Worst-first with ties broken on the physical index.
	for _, p := range []int{5, 3, 1} {
		m.Observe(p, 10, 10, 10, 1_000_000)
	}
	for _, p := range []int{4, 2} {
		m.Observe(p, 10, 10, 100, 1_000_000)
	}
	wantOrder := []int{2, 4, 1, 3, 5, 0}
	first := m.WorstChannels(6)
	for i, h := range first {
		if h.Physical != wantOrder[i] {
			t.Fatalf("WorstChannels order = %v, want physicals %v",
				physicals(first), wantOrder)
		}
	}
	// Stable across calls: exposition built from this order cannot flap.
	for i := 0; i < 5; i++ {
		if got := m.WorstChannels(6); !reflect.DeepEqual(physicals(got), wantOrder) {
			t.Fatalf("call %d: order %v, want %v", i, physicals(got), wantOrder)
		}
	}
}

func physicals(hs []ChannelHealth) []int {
	out := make([]int, len(hs))
	for i, h := range hs {
		out[i] = h.Physical
	}
	return out
}

func TestEstimatedBERNoDataIsExplicit(t *testing.T) {
	// A hard-killed channel: every frame lost, nothing decoded. Its BER
	// estimate must read as "no data", not as a perfect channel.
	dead := ChannelHealth{Physical: 7, FramesLost: 40}
	if dead.EstimatedBER() != 0 {
		t.Errorf("dead EstimatedBER = %g, want 0", dead.EstimatedBER())
	}
	if dead.HasBERData() {
		t.Error("dead channel claims BER data")
	}
	if dead.LossRatio() != 1 {
		t.Errorf("dead LossRatio = %g, want 1", dead.LossRatio())
	}
	healthy := ChannelHealth{FramesOK: 100, Corrections: 5, BitsObserved: 1000}
	if !healthy.HasBERData() || healthy.EstimatedBER() != 0.005 {
		t.Errorf("healthy = (%v, %g), want (true, 0.005)",
			healthy.HasBERData(), healthy.EstimatedBER())
	}
	if healthy.LossRatio() != 0 {
		t.Errorf("healthy LossRatio = %g, want 0", healthy.LossRatio())
	}
	partial := ChannelHealth{FramesOK: 30, FramesLost: 10}
	if partial.LossRatio() != 0.25 {
		t.Errorf("partial LossRatio = %g, want 0.25", partial.LossRatio())
	}
	if (ChannelHealth{}).LossRatio() != 0 {
		t.Errorf("zero-value LossRatio = %g, want 0", (ChannelHealth{}).LossRatio())
	}
}

// TestObserveClassifiesDeadViaLoss pins the classifier consistency: a
// channel that delivers nothing has no BER evidence, so it must be
// Failed via the loss-ratio test — never mistaken for healthy because
// its EstimatedBER reads 0.
func TestObserveClassifiesDeadViaLoss(t *testing.T) {
	m := NewMonitor(2, DefaultMonitorConfig())
	m.Observe(0, 20, 0, 0, 0) // total loss window, zero decoded bits
	h := m.Health(0)
	if h.State != Failed {
		t.Fatalf("state = %v, want failed (loss test, not BER)", h.State)
	}
	if h.HasBERData() {
		t.Error("dead channel accumulated BER data")
	}
	if tr := m.Transitions(); tr.HealthyToFailed != 1 {
		t.Errorf("transitions = %+v, want one healthy->failed", tr)
	}
}

// TestSnapshotIsACopy: a snapshot is the caller's — mutating it never
// reaches the monitor's own health records.
func TestSnapshotIsACopy(t *testing.T) {
	m := NewMonitor(8, DefaultMonitorConfig())
	m.Observe(3, 10, 9, 2, 1000)
	want := m.Health(3)
	snap := m.Snapshot()
	if len(snap) != 8 || !reflect.DeepEqual(snap[3], want) {
		t.Fatalf("snapshot %+v, want 8 channels with channel 3 = %+v", snap, want)
	}
	for i := range snap {
		snap[i] = ChannelHealth{Physical: -7, State: Failed}
	}
	if got := m.Health(3); !reflect.DeepEqual(got, want) {
		t.Errorf("mutating the snapshot changed Health(3): %+v, want %+v", got, want)
	}
}
