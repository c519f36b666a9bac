package mac

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mosaic/internal/eventlog"
	"mosaic/internal/faultinject"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
	"mosaic/internal/telemetry"
)

// The MAC session must be deterministic the same way the PHY pipeline
// and the soak harness are: a fixed pair of link seeds, traffic seed,
// and fault schedule produce a byte-identical event log and summary at
// any worker count. The golden hash pins a scenario that exercises
// injection, aging-driven retransmission, reactive sparing, spare
// exhaustion, and bridge renegotiations.

// goldenSessionSHA is sha256[:8] of the scenario's joined log + summary.
const goldenSessionSHA = "d02225b7ded5020b"

// goldenInterval is the pinned scenario's superframe period.
const goldenInterval = sim.Time(1e-5)

// runGoldenSession executes the pinned scenario with Run. reg may be nil;
// the golden hash must not depend on it (telemetry is write-only).
func runGoldenSession(t *testing.T, workers int, reg *telemetry.Registry) (string, *Result, *Bridge) {
	t.Helper()
	return driveGoldenSession(t, workers, reg, (*Session).Run)
}

// driveGoldenSession builds the pinned scenario and hands it to drive.
func driveGoldenSession(t *testing.T, workers int, reg *telemetry.Registry, drive func(*Session) *Result) (string, *Result, *Bridge) {
	t.Helper()
	fwd := testLink(t, 11, workers)
	rev := testLink(t, 12, workers)
	bridge := NewBridge(fwd)
	sess, err := NewSession(SessionConfig{
		Fwd:  fwd,
		Rev:  rev,
		Pair: PairConfig{PHYFrameLen: 120},
		Schedule: faultinject.Schedule{Events: []faultinject.Event{
			{At: 5, Kind: faultinject.KindKill, Channel: 2},
			{At: 10, Kind: faultinject.KindAging, Channel: 6, BER: 4e-3, Duration: 8},
			{At: 22, Kind: faultinject.KindBurst, Channel: 9, BER: 5e-3, Duration: 4},
			{At: 30, Kind: faultinject.KindCorrelated, Channel: 3, Span: 2},
		}},
		Superframes:  45,
		Interval:     goldenInterval,
		PacketsPerSF: 4,
		PacketLen:    150,
		Seed:         21,
		Bridge:       bridge,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := drive(sess)
	return eventlog.Digest(res.Log, res.Summary()), res, bridge
}

func TestSessionDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, runtime.NumCPU(), 0} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			sha, res, bridge := runGoldenSession(t, w, nil)
			if sha != goldenSessionSHA {
				t.Errorf("event log hash = %s, want %s; log:\n%s\n%s",
					sha, goldenSessionSHA, strings.Join(res.Log, "\n"), res.Summary())
			}
			// The hash pins everything; spot-check the shape so a drift
			// failure reports something human-readable.
			if res.Err != "" {
				t.Errorf("session error: %s", res.Err)
			}
			if res.B.Delivered != res.A.PacketsQueued {
				t.Errorf("delivered %d of %d queued", res.B.Delivered, res.A.PacketsQueued)
			}
			if res.A.Retransmits == 0 {
				t.Errorf("aging scenario produced no retransmissions: %+v", res.A)
			}
			if res.Renegotiations == 0 || bridge.Renegotiations() != res.Renegotiations || bridge.Fraction() >= 1 {
				t.Errorf("spare exhaustion never renegotiated (result %d; bridge %d, fraction %v)",
					res.Renegotiations, bridge.Renegotiations(), bridge.Fraction())
			}
		})
	}
}

// A co-simulation (E23) steps the session itself, one Step per Interval
// between advances of its flow simulator; that must be the same session
// Run produces — the same log bytes, "renegotiate t=" labels included
// (they come from the session's own clock, whoever calls Step), and the
// same Result.
func TestSessionStepEqualsRun(t *testing.T) {
	byHand := func(s *Session) *Result {
		for s.Step() {
		}
		if s.Step() {
			t.Error("Step after the last superframe reported more work")
		}
		return s.Result()
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			stepSHA, stepped, _ := driveGoldenSession(t, w, nil, byHand)
			runSHA, ran, _ := runGoldenSession(t, w, nil)
			if stepSHA != runSHA || stepSHA != goldenSessionSHA {
				t.Errorf("stepped sha %s, Run sha %s, golden %s", stepSHA, runSHA, goldenSessionSHA)
			}
			if !reflect.DeepEqual(stepped, ran) {
				t.Errorf("results differ:\nstepped %+v\nrun     %+v", stepped, ran)
			}
		})
	}
}

// Two identical runs on fresh state must agree byte for byte — no
// hidden globals.
func TestSessionRerunIdentical(t *testing.T) {
	a, _, _ := runGoldenSession(t, 4, nil)
	b, _, _ := runGoldenSession(t, 4, nil)
	if a != b {
		t.Fatalf("re-run diverged: %s vs %s", a, b)
	}
}

// Telemetry must be write-only: attaching a registry cannot change the
// event log, and the registry must reflect what the log says happened.
func TestSessionTelemetryPreservesLog(t *testing.T) {
	reg := telemetry.NewRegistry()
	sha, res, _ := runGoldenSession(t, 2, reg)
	if sha != goldenSessionSHA {
		t.Fatalf("telemetry changed the event log: %s, want %s", sha, goldenSessionSHA)
	}
	if got := reg.Counter("mosaic_mac_retransmits_total", "endpoint", "a").Value(); got != res.A.Retransmits {
		t.Errorf("retransmit counter = %d, want %d", got, res.A.Retransmits)
	}
	if got := reg.Counter("mosaic_mac_delivered_total", "endpoint", "b").Value(); got != res.B.Delivered {
		t.Errorf("delivered counter = %d, want %d", got, res.B.Delivered)
	}
	if got := reg.Counter("mosaic_mac_renegotiations_total").Value(); got != res.Renegotiations {
		t.Errorf("renegotiation counter = %d, want %d", got, res.Renegotiations)
	}
}

// A link carries its sparing history in its mapper, so a second session
// on links whose first session spared a channel has nothing to remap (no
// phantom "spare channel failed" line at sf=0), and the session that
// ended left no hook of its own behind on the monitor.
func TestSessionOnReusedLinksRemapsNothing(t *testing.T) {
	fwd, rev := testLink(t, 11, 1), testLink(t, 12, 1)
	run := func(sched faultinject.Schedule) *Result {
		t.Helper()
		sess, err := NewSession(SessionConfig{
			Fwd: fwd, Rev: rev,
			Pair:     PairConfig{PHYFrameLen: 120},
			Schedule: sched, Superframes: 10, Interval: 1e-5,
			PacketsPerSF: 4, PacketLen: 150, Seed: 21,
			Bridge: NewBridge(fwd),
		})
		if err != nil {
			t.Fatal(err)
		}
		res := sess.Run()
		if fwd.Monitor().TransitionHook() != nil {
			t.Fatal("finished session left its transition hook installed")
		}
		return res
	}
	first := run(faultinject.Schedule{Events: []faultinject.Event{{At: 2, Kind: faultinject.KindKill, Channel: 3}}})
	if n := strings.Count(strings.Join(first.Log, "\n"), " remap "); n != 1 {
		t.Fatalf("first session logged %d remaps, want 1:\n%s", n, strings.Join(first.Log, "\n"))
	}
	if second := run(faultinject.Schedule{}); len(second.Log) != 0 {
		t.Fatalf("second session on the spared link logged:\n%s", strings.Join(second.Log, "\n"))
	}
}

// shedSession runs a short session on a spare-less 10-lane pair: any
// kill in sched sheds a lane in the superframe it lands on.
func shedSession(t *testing.T, fwd, rev *phy.Link, sched faultinject.Schedule, reg *telemetry.Registry) *Result {
	t.Helper()
	sess, err := NewSession(SessionConfig{
		Fwd: fwd, Rev: rev,
		Schedule: sched, Superframes: 4, Interval: 1e-5,
		PacketsPerSF: 2, PacketLen: 100, Seed: 21,
		Bridge:  NewBridge(fwd),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Run()
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	return res
}

var killOnLastSuperframe = faultinject.Schedule{Events: []faultinject.Event{{At: 3, Kind: faultinject.KindKill, Channel: 4}}}

// The bridge series are pushed after the tick's own renegotiation, so a
// lane shed on the final superframe still reaches the registry.
func TestSessionTelemetrySeesFinalSuperframeRenegotiation(t *testing.T) {
	reg := telemetry.NewRegistry()
	res := shedSession(t, bridgeLink(t, 10, 0), bridgeLink(t, 10, 0), killOnLastSuperframe, reg)
	if res.Fraction != 0.9 || res.Renegotiations != 1 {
		t.Fatalf("result fraction=%v renegotiations=%d, want 0.9/1", res.Fraction, res.Renegotiations)
	}
	if got := reg.Gauge("mosaic_mac_capacity_fraction").Value(); got != res.Fraction {
		t.Errorf("capacity fraction gauge = %v, result says %v", got, res.Fraction)
	}
	if got := reg.Counter("mosaic_mac_renegotiations_total").Value(); got != res.Renegotiations {
		t.Errorf("renegotiation counter = %d, result says %d", got, res.Renegotiations)
	}
}

// The bridge's 1.0 is the configured width, not the width it was built
// on: a second session (new bridge) on a pair whose first
// session shed a lane reports the worn fraction, published once.
func TestSessionOnWornLinkReportsRealFraction(t *testing.T) {
	fwd, rev := bridgeLink(t, 10, 0), bridgeLink(t, 10, 0)
	shedSession(t, fwd, rev, killOnLastSuperframe, nil)
	second := shedSession(t, fwd, rev, faultinject.Schedule{}, nil)
	if second.LanesStart != 9 || second.Fraction != 0.9 || second.Renegotiations != 1 {
		t.Fatalf("second session lanes_start=%d fraction=%v renegotiations=%d, want 9/0.9/1",
			second.LanesStart, second.Fraction, second.Renegotiations)
	}
}
