package faultinject

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mosaic/internal/eventlog"
	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

// supLink is the 16+2 link the supervisor tests share: RS-lite so aging
// and bursts surface as corrections the monitor can classify.
func supLink(t *testing.T) *phy.Link {
	t.Helper()
	link, err := phy.New(phy.Config{
		Lanes: 16, Spares: 2, FEC: phy.NewRSLite(), UnitLen: 63,
		PerChannelBitRate: 2e9, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return link
}

// drive crosses n superframe boundaries the way every harness does:
// Begin, one Exchange of fixed traffic, Spare, End.
func drive(t *testing.T, link *phy.Link, sup *Supervisor, from, n int) (remaps int) {
	t.Helper()
	frames := phy.SeededFrames(5, 8, 120)
	for sf := from; sf < from+n; sf++ {
		sup.Begin(sf)
		_, st, err := link.Exchange(frames)
		if err != nil {
			t.Fatalf("sf=%d: %v", sf, err)
		}
		remaps += sup.Spare()
		sup.End(st)
	}
	return remaps
}

// canonical keeps the four lines the supervisor owns.
func canonical(lines []string) []string {
	var out []string
	for _, l := range lines {
		for _, k := range []string{" transition ", " remap ", " degraded lanes=", " spares-exhausted"} {
			if strings.Contains(l, k) {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// Whatever the schedule does to the link, the supervisor remaps each
// monitor-failed channel exactly once however many boundaries follow,
// fires each milestone once, and does both at the superframe Run logs
// them: its canonical lines are Run's, byte for byte.
func TestSupervisorBoundary(t *testing.T) {
	const superframes = 40
	cases := []struct {
		name      string
		events    []Event
		remaps    int
		degraded  bool
		exhausted bool
	}{
		{"kill", []Event{{At: 4, Kind: KindKill, Channel: 3}}, 1, false, false},
		{"two kills exhaust", []Event{
			{At: 2, Kind: KindKill, Channel: 1},
			{At: 9, Kind: KindKill, Channel: 7},
		}, 2, false, true},
		{"aging to death", []Event{{At: 1, Kind: KindAging, Channel: 5, BER: 0.4, Duration: 10}}, 1, false, false},
		{"burst", []Event{{At: 3, Kind: KindBurst, Channel: 6, BER: 5e-4, Duration: 4}}, 0, false, false},
		{"correlated degrades", []Event{{At: 6, Kind: KindCorrelated, Channel: 2, Span: 4}}, 4, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := Schedule{Events: tc.events}
			if err := sched.Validate(); err != nil {
				t.Fatal(err)
			}
			link := supLink(t)
			var log eventlog.Log
			sup := Supervise(link, &log, nil)
			sup.Load(sched, 0)
			remaps := drive(t, link, sup, 0, superframes)
			sup.Close()

			if remaps != tc.remaps {
				t.Errorf("remaps = %d, want %d", remaps, tc.remaps)
			}
			perChannel := map[string]int{}
			milestones := map[string]int{}
			for _, l := range log.Lines() {
				if i := strings.Index(l, " remap "); i >= 0 {
					perChannel[strings.Fields(l[i+len(" remap "):])[1]]++
				}
				for _, k := range []string{" degraded lanes=", " spares-exhausted"} {
					if strings.Contains(l, k) {
						milestones[k]++
					}
				}
			}
			for ch, n := range perChannel {
				if n != 1 {
					t.Errorf("channel %s remapped %d times", ch, n)
				}
			}
			if failed := len(link.Monitor().FailedChannels()); failed != remaps {
				t.Errorf("%d monitor-failed channels, %d remaps", failed, remaps)
			}
			degradedSF, exhaustSF := sup.Milestones()
			if got := degradedSF >= 0; got != tc.degraded || milestones[" degraded lanes="] > 1 {
				t.Errorf("degraded milestone at %d (%d lines), want fired=%v once",
					degradedSF, milestones[" degraded lanes="], tc.degraded)
			}
			if got := exhaustSF >= 0; got != tc.exhausted || milestones[" spares-exhausted"] > 1 {
				t.Errorf("spares-exhausted milestone at %d (%d lines), want fired=%v once",
					exhaustSF, milestones[" spares-exhausted"], tc.exhausted)
			}

			res, err := Run(Config{Link: supLink(t), Schedule: sched,
				Superframes: superframes, FramesPerSF: 8, FrameLen: 120, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if want := canonical(res.Log); !slices.Equal(log.Lines(), want) {
				t.Errorf("canonical lines diverge from Run:\n got %q\nwant %q", log.Lines(), want)
			}
			if degradedSF != res.DegradedSF || exhaustSF != res.SpareExhaustSF {
				t.Errorf("milestones (%d, %d), Run reports (%d, %d)", degradedSF,
					exhaustSF, res.DegradedSF, res.SpareExhaustSF)
			}
		})
	}
}

// A schedule loaded mid-life (fleetd's horizon rounds) replays from its
// own At=0 at the boundary it was loaded for, while the canonical lines
// keep the absolute superframe label.
func TestSupervisorReloadReplaysFromOrigin(t *testing.T) {
	link := supLink(t)
	var log eventlog.Log
	sup := Supervise(link, &log, nil)
	defer sup.Close()
	var injected []string
	sf := 0
	sup.OnInject = func(e Event) { injected = append(injected, fmt.Sprintf("sf=%d ch=%d", sf, e.Channel)) }
	round := func(ch int) Schedule {
		return Schedule{Events: []Event{{At: 2, Kind: KindKill, Channel: ch}}}
	}
	frames := phy.SeededFrames(5, 8, 120)
	for ; sf < 20; sf++ {
		if sf%10 == 0 {
			sup.Load(round(1+sf/10), sf)
		}
		sup.Begin(sf)
		_, st, err := link.Exchange(frames)
		if err != nil {
			t.Fatal(err)
		}
		sup.Spare()
		sup.End(st)
	}
	if want := []string{"sf=2 ch=1", "sf=12 ch=2"}; !slices.Equal(injected, want) {
		t.Fatalf("injections %v, want %v", injected, want)
	}
	if !slices.ContainsFunc(log.Lines(), func(l string) bool {
		return strings.HasPrefix(l, "sf=12 remap channel 2 ")
	}) {
		t.Fatalf("second round's remap not labelled with the absolute superframe: %q", log.Lines())
	}
}

// A boundary of a link that already has spared channels — the steady
// state of every long-lived fleet member — allocates nothing.
func TestSupervisorBoundaryZeroAllocs(t *testing.T) {
	link := supLink(t)
	var log eventlog.Log
	sup := Supervise(link, &log, nil)
	defer sup.Close()
	sup.Load(Schedule{Events: []Event{{At: 1, Kind: KindKill, Channel: 4}}}, 0)
	if drive(t, link, sup, 0, 5) != 1 {
		t.Fatal("setup: the killed channel was not spared")
	}
	sf := 5
	var st phy.ExchangeStats
	if allocs := testing.AllocsPerRun(200, func() {
		sup.Begin(sf)
		sup.Spare()
		sup.End(st)
		sf++
	}); allocs != 0 {
		t.Fatalf("boundary allocates %.1f times per superframe, want 0", allocs)
	}
}

// A link carries its sparing history in its mapper, so a second run on a
// link that already spared a channel has nothing to remap: no phantom
// "spare channel failed" line, no Remaps, no counter movement.
func TestRunOnReusedLinkRemapsNothing(t *testing.T) {
	link := soakLink(t, 2, 1)
	reg := telemetry.NewRegistry()
	run := func(sched Schedule) *Result {
		t.Helper()
		res, err := Run(Config{Link: link, Schedule: sched, Superframes: 10,
			FramesPerSF: 8, FrameLen: 120, Seed: 5, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(Schedule{Events: []Event{{At: 2, Kind: KindKill, Channel: 3}}})
	if first.Remaps != 1 {
		t.Fatalf("first run remaps = %d, want 1", first.Remaps)
	}
	second := run(Schedule{})
	if second.Remaps != 0 || len(second.Log) != 0 {
		t.Fatalf("second run on the spared link: remaps=%d log=%q, want none", second.Remaps, second.Log)
	}
	if got := reg.Counter("mosaic_soak_remaps_total").Value(); got != 1 {
		t.Fatalf("mosaic_soak_remaps_total = %d after two runs, want 1", got)
	}
}

// Run borrows the monitor's hook slot: a hook installed by the caller (a
// mac.Bridge, say) keeps firing during the run and is back in place
// after it.
func TestRunKeepsCallersTransitionHook(t *testing.T) {
	link := soakLink(t, 2, 1)
	fired := 0
	link.Monitor().SetTransitionHook(func(int, phy.ChannelState, phy.ChannelState) { fired++ })
	res := runSoak(t, link, Schedule{Events: []Event{{At: 2, Kind: KindKill, Channel: 3}}}, 10, 0)
	if fired != 1 || !hasLog(res, "transition ch=3") {
		t.Fatalf("caller's hook fired %d times during the run, want 1; log %q", fired, res.Log)
	}
	link.FailChannel(7)
	if fired != 2 {
		t.Fatalf("caller's hook not restored after the run (fired=%d)", fired)
	}
}
