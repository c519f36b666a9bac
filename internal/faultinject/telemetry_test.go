package faultinject

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

// The telemetry contract for the soak runner: enabling a registry changes
// nothing observable (the golden event log stays byte-identical at any
// worker count), the registry's counters agree exactly with the Result,
// and scraping the registry while a soak runs is race-free.

func TestSoakTelemetryPreservesGoldenLog(t *testing.T) {
	for _, w := range []int{1, 4, runtime.NumCPU(), 0} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			sha, _ := runGoldenSoak(t, w, reg)
			if sha != goldenSoakSHA {
				t.Errorf("event log hash with telemetry = %s, want %s (telemetry must be write-only)",
					sha, goldenSoakSHA)
			}
		})
	}
}

func TestSoakMetricsAgreeWithResult(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, res := runGoldenSoak(t, 2, reg)
	snap := reg.Snapshot()

	counters := map[string]uint64{
		"mosaic_link_frames_in_total":                                    uint64(res.FramesIn),
		"mosaic_link_frames_delivered_total":                             uint64(res.FramesDelivered),
		"mosaic_link_frames_corrupted_total":                             uint64(res.FramesCorrupted),
		"mosaic_link_frames_lost_total":                                  uint64(res.FramesLost),
		"mosaic_link_units_lost_total":                                   uint64(res.UnitsLost),
		"mosaic_link_fec_corrections_total":                              uint64(res.Corrections),
		"mosaic_soak_remaps_total":                                       uint64(res.Remaps),
		"mosaic_soak_maintenance_actions_total":                          uint64(res.MaintenanceActions),
		"mosaic_soak_superframes_total":                                  uint64(res.Superframes),
		`mosaic_soak_injections_total{kind="kill"}`:                      1,
		`mosaic_soak_injections_total{kind="aging"}`:                     1,
		`mosaic_soak_injections_total{kind="burst"}`:                     1,
		`mosaic_soak_injections_total{kind="correlated"}`:                1,
		`mosaic_monitor_transitions_total{from="healthy",to="degraded"}`: res.Transitions.HealthyToDegraded,
		`mosaic_monitor_transitions_total{from="degraded",to="healthy"}`: res.Transitions.DegradedToHealthy,
		`mosaic_monitor_transitions_total{from="degraded",to="failed"}`:  res.Transitions.DegradedToFailed,
		`mosaic_monitor_transitions_total{from="healthy",to="failed"}`:   res.Transitions.HealthyToFailed,
	}
	for id, want := range counters {
		if got, ok := snap.Counters[id]; !ok || got != want {
			t.Errorf("counter %s = %d (present=%v), want %d", id, got, ok, want)
		}
	}
	gauges := map[string]float64{
		"mosaic_link_lanes_active":             float64(res.LanesEnd),
		"mosaic_link_spares_left":              float64(res.SparesEnd),
		"mosaic_link_superframes":              float64(res.Superframes),
		"mosaic_soak_first_drop_superframe":    float64(res.FirstDropSF),
		"mosaic_soak_degraded_superframe":      float64(res.DegradedSF),
		"mosaic_soak_spare_exhaust_superframe": float64(res.SpareExhaustSF),
	}
	for id, want := range gauges {
		if got, ok := snap.Gauges[id]; !ok || got != want {
			t.Errorf("gauge %s = %g (present=%v), want %g", id, got, ok, want)
		}
	}

	// Per-channel counters must sum to the link totals, and the killed
	// channel must expose its loss with an explicit no-BER-data marker
	// rather than a perfect-looking estimate.
	var chOK, chLost uint64
	for ch := 0; ch < 15; ch++ {
		chOK += snap.Counters[fmt.Sprintf(`mosaic_channel_frames_ok_total{channel="%d"}`, ch)]
		chLost += snap.Counters[fmt.Sprintf(`mosaic_channel_frames_lost_total{channel="%d"}`, ch)]
	}
	if chOK == 0 || chLost == 0 {
		t.Errorf("per-channel counters empty: ok=%d lost=%d", chOK, chLost)
	}
	killed := `mosaic_channel_frames_lost_total{channel="2"}` // KindKill at sf=3
	if snap.Counters[killed] == 0 {
		t.Errorf("killed channel shows no lost frames")
	}
	// Exposition renders and includes per-channel series.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, want := range []string{
		`mosaic_channel_ber_estimate{channel="2"}`,
		`mosaic_channel_state{channel="2"} 2`, // failed
		`mosaic_soak_remaps_total`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRegistryScrapeRaceUnderSoak hammers exposition reads against a
// running soak; it exists for the -race pass in make check, proving a
// live /metrics scrape cannot race the superframe loop.
func TestRegistryScrapeRaceUnderSoak(t *testing.T) {
	reg := telemetry.NewRegistry()
	link, err := phy.New(phy.Config{
		Lanes:             12,
		Spares:            3,
		FEC:               phy.NewRSLite(),
		UnitLen:           63,
		PerChannelBitRate: 2e9,
		Seed:              11,
		Workers:           0, // worker pool active: scrapes race the pool too, if they can
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{Events: []Event{
		{At: 2, Kind: KindKill, Channel: 1},
		{At: 5, Kind: KindAging, Channel: 6, BER: 1e-4, Duration: 10},
		{At: 9, Kind: KindBurst, Channel: 9, BER: 3e-4, Duration: 4},
	}}

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = reg.WritePrometheus(io.Discard)
					_ = reg.Snapshot()
				}
			}
		}()
	}

	_, err = Run(Config{
		Link:          link,
		Schedule:      sched,
		Superframes:   40,
		FramesPerSF:   6,
		FrameLen:      120,
		Seed:          21,
		Policy:        phy.DefaultMaintenancePolicy(),
		MaintainEvery: 5,
		Metrics:       reg,
	})
	close(done)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}
}
