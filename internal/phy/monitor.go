package phy

import (
	"fmt"
	"sort"
)

// ChannelState is the health state of one physical channel.
type ChannelState int

// Health states.
const (
	Healthy  ChannelState = iota
	Degraded              // correcting persistently, still delivering
	Failed                // not delivering; must be spared out
)

// String names the state.
func (s ChannelState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MonitorConfig tunes the health classifier.
type MonitorConfig struct {
	// DegradedBER is the estimated pre-FEC BER above which a channel is
	// declared degraded.
	DegradedBER float64
	// FailedLossRatio is the fraction of expected frames missing in an
	// observation window above which the channel is declared failed.
	FailedLossRatio float64
}

// DefaultMonitorConfig returns the thresholds used by the experiments.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{DegradedBER: 1e-6, FailedLossRatio: 0.5}
}

// ChannelHealth aggregates one physical channel's observed statistics.
type ChannelHealth struct {
	Physical     int
	FramesOK     uint64
	FramesLost   uint64
	Corrections  uint64
	BitsObserved uint64
	State        ChannelState
}

// EstimatedBER returns the pre-FEC BER estimate from FEC corrections.
//
// The estimate only exists where FEC decoded something: a channel with
// BitsObserved == 0 returns 0, which does NOT mean "perfect" — a
// hard-killed channel that delivered nothing (FramesLost > 0) has no BER
// evidence at all. Check HasBERData before treating 0 as a measurement,
// and use LossRatio for the delivery dimension. The classifier is
// consistent with this split: Observe declares such channels Failed via
// the FailedLossRatio window test, never via the BER estimate.
func (h ChannelHealth) EstimatedBER() float64 {
	if h.BitsObserved == 0 {
		return 0
	}
	return float64(h.Corrections) / float64(h.BitsObserved)
}

// HasBERData reports whether EstimatedBER is backed by decoded bits. It
// is the NaN-free "no data" signal: false means the 0 from EstimatedBER
// is absence of evidence, not a perfect channel.
func (h ChannelHealth) HasBERData() bool { return h.BitsObserved > 0 }

// LossRatio returns the lifetime fraction of expected frames that never
// arrived (0 when the channel has seen no traffic). A dead channel shows
// LossRatio 1 with HasBERData false — the loss dimension is where its
// damage is visible, not the BER estimate.
func (h ChannelHealth) LossRatio() float64 {
	total := h.FramesOK + h.FramesLost
	if total == 0 {
		return 0
	}
	return float64(h.FramesLost) / float64(total)
}

// TransitionCounts aggregates state-machine transitions across all
// channels of a monitor. Failure-injection harnesses use these to assert
// that device-level events surfaced as the expected classifications.
type TransitionCounts struct {
	HealthyToDegraded uint64
	DegradedToHealthy uint64
	DegradedToFailed  uint64
	HealthyToFailed   uint64
}

// Monitor tracks the health of every physical channel from the per-frame
// statistics the framer reports. This is the observability layer a real
// Mosaic module exposes to its sparing logic: per-channel corrected-error
// counters are a free byproduct of FEC decoding.
type Monitor struct {
	cfg         MonitorConfig
	channels    []ChannelHealth
	transitions TransitionCounts
	onTransit   func(physical int, from, to ChannelState)
}

// NewMonitor creates a monitor over n physical channels.
func NewMonitor(n int, cfg MonitorConfig) *Monitor {
	m := &Monitor{cfg: cfg, channels: make([]ChannelHealth, n)}
	for i := range m.channels {
		m.channels[i].Physical = i
	}
	return m
}

// Observe folds one observation window for a physical channel: how many
// frames were expected, how many arrived, how many errors were corrected,
// and how many payload bits were checked.
func (m *Monitor) Observe(physical, expectedFrames, gotFrames, corrections int, bits uint64) {
	if physical < 0 || physical >= len(m.channels) {
		return
	}
	h := &m.channels[physical]
	h.FramesOK += uint64(gotFrames)
	if expectedFrames > gotFrames {
		h.FramesLost += uint64(expectedFrames - gotFrames)
	}
	h.Corrections += uint64(corrections)
	h.BitsObserved += bits

	// Classify using this window (loss) and lifetime (BER estimate). The
	// two dimensions are deliberately independent: a channel delivering
	// nothing has no decoded bits and therefore no BER estimate
	// (HasBERData == false), so it must fail on the loss test here — the
	// BER clauses below can never fire for it, and its EstimatedBER of 0
	// is "no data", not "healthy".
	switch {
	case expectedFrames > 0 &&
		float64(expectedFrames-gotFrames)/float64(expectedFrames) >= m.cfg.FailedLossRatio:
		m.setState(physical, Failed)
	case h.State != Failed && h.EstimatedBER() > m.cfg.DegradedBER:
		m.setState(physical, Degraded)
	case h.State == Degraded && h.EstimatedBER() <= m.cfg.DegradedBER:
		m.setState(physical, Healthy)
	}
}

// setState applies a classification, counting the transition and firing
// the hook when the state actually changes.
func (m *Monitor) setState(physical int, to ChannelState) {
	h := &m.channels[physical]
	from := h.State
	if from == to {
		return
	}
	h.State = to
	switch {
	case from == Healthy && to == Degraded:
		m.transitions.HealthyToDegraded++
	case from == Degraded && to == Healthy:
		m.transitions.DegradedToHealthy++
	case from == Degraded && to == Failed:
		m.transitions.DegradedToFailed++
	case from == Healthy && to == Failed:
		m.transitions.HealthyToFailed++
	}
	if m.onTransit != nil {
		m.onTransit(physical, from, to)
	}
}

// Transitions returns the cumulative transition counters.
func (m *Monitor) Transitions() TransitionCounts { return m.transitions }

// SetTransitionHook registers fn to be called on every channel state
// change (from Observe or MarkFailed). The hook runs synchronously on the
// observing goroutine — lane observations fold serially in lane order, so
// a fixed seed produces an identical call sequence at any worker count.
// Pass nil to remove the hook.
func (m *Monitor) SetTransitionHook(fn func(physical int, from, to ChannelState)) {
	m.onTransit = fn
}

// TransitionHook returns the currently installed hook (nil when unset),
// so a new subscriber can chain rather than replace it — the monitor has
// a single hook slot by design (deterministic call order).
func (m *Monitor) TransitionHook() func(physical int, from, to ChannelState) {
	return m.onTransit
}

// MarkFailed forces a channel into the failed state (e.g. laser-off test
// or an explicit kill in a failure-injection experiment).
func (m *Monitor) MarkFailed(physical int) {
	if physical >= 0 && physical < len(m.channels) {
		m.setState(physical, Failed)
	}
}

// Health returns a copy of one channel's health. An out-of-range index
// returns a zero-value health with Physical == -1 instead of panicking —
// the same silent guard Observe and MarkFailed apply, so callers probing
// a channel id from external input (a fault schedule, an HTTP query)
// cannot crash the process.
func (m *Monitor) Health(physical int) ChannelHealth {
	if physical < 0 || physical >= len(m.channels) {
		return ChannelHealth{Physical: -1}
	}
	return m.channels[physical]
}

// Snapshot returns a copy of all channels' health.
func (m *Monitor) Snapshot() []ChannelHealth {
	return append([]ChannelHealth(nil), m.channels...)
}

// FailedChannels lists physical channels currently in the failed state.
func (m *Monitor) FailedChannels() []int {
	var out []int
	for i := range m.channels {
		if m.channels[i].State == Failed {
			out = append(out, i)
		}
	}
	return out
}

// WorstChannels returns the k channels with the highest estimated BER,
// worst first. Ties break on the physical channel index (ascending), so
// the order — and any exposition built from it — is stable across runs.
// k is clamped to [0, number of channels]; a negative k returns an empty
// slice instead of panicking.
func (m *Monitor) WorstChannels(k int) []ChannelHealth {
	snap := m.Snapshot()
	sort.Slice(snap, func(i, j int) bool {
		bi, bj := snap[i].EstimatedBER(), snap[j].EstimatedBER()
		if bi != bj {
			return bi > bj
		}
		return snap[i].Physical < snap[j].Physical
	})
	if k < 0 {
		k = 0
	}
	if k > len(snap) {
		k = len(snap)
	}
	return snap[:k]
}
