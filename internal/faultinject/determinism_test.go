package faultinject

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mosaic/internal/eventlog"
	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

// The soak harness must be deterministic the same way the PHY pipeline is
// (see internal/phy/determinism_test.go): a fixed link seed, traffic
// seed, and fault schedule produce a byte-identical event log and summary
// at any pool worker count. The golden hash below pins the complete log
// of a scenario that exercises every event kind (kill, aging, burst,
// correlated), proactive maintenance, spare exhaustion, and degradation.

// goldenSoakSHA is sha256[:8] of the scenario's joined log + summary.
// Re-pinned when the BSC moved to the spec'd xoshiro256++ stream with
// geometric skip-sampling (the noise draw sequence changed, the channel
// model did not); the run was certified by a clean verify-deep pass and
// the scenario still exercises every event kind, proactive maintenance,
// spare exhaustion, and degradation — see the milestone spot-checks.
const goldenSoakSHA = "4a51bb45f333f4cb"

// runGoldenSoak executes the pinned scenario at the given worker count.
// reg may be nil; the golden hash must not depend on it (telemetry is
// write-only — TestSoakTelemetryPreservesGoldenLog pins exactly that).
func runGoldenSoak(t *testing.T, workers int, reg *telemetry.Registry) (string, *Result) {
	t.Helper()
	link, err := phy.New(phy.Config{
		Lanes:             12,
		Spares:            3,
		FEC:               phy.NewRSLite(),
		UnitLen:           63,
		PerChannelBitRate: 2e9,
		Seed:              11,
		Workers:           workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{Events: []Event{
		{At: 3, Kind: KindKill, Channel: 2},
		{At: 8, Kind: KindAging, Channel: 6, BER: 1e-4, Duration: 10},
		{At: 14, Kind: KindBurst, Channel: 9, BER: 3e-4, Duration: 5},
		{At: 30, Kind: KindCorrelated, Channel: 10, Span: 3},
	}}
	res, err := Run(Config{
		Link:          link,
		Schedule:      sched,
		Superframes:   48,
		FramesPerSF:   8,
		FrameLen:      120,
		Seed:          21,
		Policy:        phy.DefaultMaintenancePolicy(),
		MaintainEvery: 6,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eventlog.Digest(res.Log, res.Summary()), res
}

func TestSoakDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, runtime.NumCPU(), 0} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			sha, res := runGoldenSoak(t, w, nil)
			if sha != goldenSoakSHA {
				t.Errorf("event log hash = %s, want %s; log:\n%s",
					sha, goldenSoakSHA, strings.Join(res.Log, "\n"))
			}
			// Spot-check the milestones the hash pins, so a drift failure
			// reports something human-readable too.
			if res.Remaps != 4 || res.MaintenanceActions != 1 {
				t.Errorf("remaps=%d maintenance=%d, want 4/1", res.Remaps, res.MaintenanceActions)
			}
			if res.FirstDropSF != 3 || res.DegradedSF != 30 || res.SpareExhaustSF != 30 {
				t.Errorf("milestones first-drop=%d degraded=%d exhausted=%d, want 3/30/30",
					res.FirstDropSF, res.DegradedSF, res.SpareExhaustSF)
			}
		})
	}
}

// TestSoakRerunIdentical re-runs the same scenario twice on fresh links
// and requires identical logs — no hidden global state between runs.
func TestSoakRerunIdentical(t *testing.T) {
	a, _ := runGoldenSoak(t, 4, nil)
	b, _ := runGoldenSoak(t, 4, nil)
	if a != b {
		t.Fatalf("re-run diverged: %s vs %s", a, b)
	}
}
