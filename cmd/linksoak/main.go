// Command linksoak runs deterministic fault-injection soaks against the
// bit-true Mosaic PHY: scripted or seeded-random fault schedules are
// replayed at superframe boundaries while the sparing, monitoring, and
// maintenance machinery reacts, and the run emits an event log of remaps,
// maintenance actions, health transitions, and loss milestones.
//
//	linksoak                                  # default scenario, 100+4 channels
//	linksoak -superframes 500 -hazard 0.001   # random channel deaths
//	linksoak -schedule faults.json            # replay a scripted schedule
//	linksoak -scenario E26                    # replay a library scenario's witness faults
//	linksoak -dump faults.json -hazard 0.002  # write the generated schedule
//	linksoak -trials 200 -spares 2            # survival study vs closed form
//	linksoak -json                            # machine-readable event log
//	linksoak -metrics m.prom                  # dump a telemetry snapshot after the soak
//	linksoak -mac                             # soak a full MAC session (framing + LLR + bridge)
//	linksoak -mac -arq sr -vc 3               # selective repeat over three QoS-classed VCs
//	linksoak -serve :9090 -hazard 0.0005      # soak round after round behind HTTP
//
// With -mac the schedule is replayed against the forward link of a
// full-duplex MAC pair instead of a bare PHY: client packets cross the
// CRC-framed LLR while the bridge renegotiates capacity as sparing
// consumes lanes. -frames/-framesize become client packets per
// superframe and packet length; -arq selects the retransmission
// discipline and -vc the virtual-channel count (classes assigned
// round-robin, per-superframe packets split evenly across VCs).
//
// A fixed -seed and schedule produce a byte-identical event log at any
// -workers value. Schedule files are JSON:
//
//	{"seed": 1, "events": [
//	  {"at": 10, "kind": "kill", "channel": 5},
//	  {"at": 20, "kind": "aging", "channel": 7, "ber": 1e-4, "duration": 30},
//	  {"at": 40, "kind": "burst", "channel": 3, "ber": 3e-4, "duration": 8},
//	  {"at": 60, "kind": "correlated", "channel": 96, "span": 4}
//	]}
//
// -serve ADDR soaks round after round against one link and serves its
// live registry: /metrics (Prometheus text), /metrics.json, /healthz (200
// at full width, 503 degraded or, with -mac, while the windowed LLR
// retransmit rate exceeds -max-retx-rate) and /debug/pprof/. Round r
// replays the schedule a one-shot run with the same flags would, drawn
// with seed+r (the one-shot run is round 0). A link that wears out
// mid-round is swapped for a fresh module (counted in
// mosaic_soakd_link_replacements_total); a round that cannot start ends
// the command. SIGTERM/SIGINT stop the soak at a round boundary, then
// the server shuts down gracefully. Each mode refuses the flags it would
// ignore (see Resolve).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"strings"

	"mosaic/internal/faultinject"
	"mosaic/internal/telemetry"
	"mosaic/internal/telemetry/httpx"
)

func main() {
	soak := AddSoak(flag.CommandLine)
	flag.Parse()
	if err := soak.Resolve(flag.CommandLine); err != nil {
		fatal(err)
	}
	switch {
	case soak.Trials > 0:
		runStudy(soak)
	case soak.Serve != "":
		d, err := soak.daemon(telemetry.NewRegistry())
		if err == nil {
			err = d.ListenAndServe()
		}
		if err != nil {
			fatal(err)
		}
	default:
		runOnce(soak)
	}
}

// runOnce runs one soak round against a fresh module and prints its
// event log (or writes its JSON).
func runOnce(soak *Soak) {
	links, err := soak.NewLinks()
	if err != nil {
		fatal(err)
	}
	sched, err := soak.buildSchedule(soak.Seed)
	if err != nil {
		fatal(err)
	}
	if soak.DumpPath != "" {
		f, err := os.Create(soak.DumpPath)
		if err != nil {
			fatal(err)
		}
		if err := sched.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	var reg *telemetry.Registry
	if soak.MetricsPath != "" {
		reg = telemetry.NewRegistry()
	}
	rep, runErr := soak.Round(links, sched, reg)
	if rep == nil {
		fatal(runErr)
	}
	if reg != nil {
		if err := telemetry.WriteFile(reg, soak.MetricsPath); err != nil {
			fatal(err)
		}
	}

	if soak.JSON {
		writeJSON(rep.Result)
	} else {
		if soak.MAC.Enabled {
			fmt.Printf("mac soak: %d+%d channels, %s FEC, %s arq, %d vc, %d superframes x %d packets x %dB, seed %d\n",
				soak.Lanes, soak.Spares, soak.FEC.Name(), soak.ARQ, soak.VCs, soak.Superframes, soak.Frames, soak.FrameLen, soak.Seed)
		} else {
			fmt.Printf("soak: %d+%d channels, %s FEC, %d superframes x %d frames, seed %d\n",
				soak.Lanes, soak.Spares, soak.FEC.Name(), soak.Superframes, soak.Frames, soak.Seed)
		}
		for _, e := range sched.Events {
			fmt.Printf("scheduled: %v\n", e)
		}
		fmt.Println()
		for _, line := range rep.Log {
			fmt.Println(line)
		}
		fmt.Println()
		fmt.Println(rep.Summary)
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// runStudy cross-validates pipeline survival against the k-of-n closed
// form, like experiment E22 but at caller-chosen scale.
func runStudy(soak *Soak) {
	hazard := soak.Hazard
	if hazard <= 0 {
		hazard = 0.002
	}
	res, err := faultinject.SurvivalStudy(faultinject.SurvivalConfig{
		Lanes:       soak.Lanes,
		Spares:      soak.Spares,
		HazardPerSF: hazard,
		Superframes: soak.Superframes,
		Trials:      soak.Trials,
		Seed:        soak.Seed,
		Workers:     soak.Workers,
	})
	if err != nil {
		fatal(err)
	}
	if soak.JSON {
		writeJSON(res)
		return
	}
	fmt.Printf("survival study: %d+%d channels, hazard %.2e/superframe, %d superframes, %d trials\n",
		soak.Lanes, soak.Spares, hazard, soak.Superframes, soak.Trials)
	fmt.Printf("simulated survival: %.4f  (%d/%d trials kept full width)\n",
		res.SimSurvival, res.Survived, res.Trials)
	fmt.Printf("closed-form k-of-n: %.4f  (|err| %.4f, tolerance %.4f)\n",
		res.ClosedForm, math.Abs(res.SimSurvival-res.ClosedForm), res.Tolerance)
	fmt.Printf("mean remaps/trial: %.2f; %d trials dropped frames (mean first drop sf %.1f)\n",
		res.MeanRemaps, res.DroppedTrials, res.MeanFirstDrop)
	if res.Agrees() {
		fmt.Println("verdict: pipeline agrees with the closed form within Monte-Carlo tolerance")
	} else {
		fmt.Println("verdict: DISAGREEMENT beyond Monte-Carlo tolerance")
		os.Exit(1)
	}
}

// daemon starts soaking round after round against one module, feeding
// reg, and returns the daemon that serves reg on -serve. A round that
// cannot start is fatal.
func (s *Soak) daemon(reg *telemetry.Registry) (*httpx.Daemon, error) {
	reg.Help("mosaic_soakd_rounds_total", "soak rounds attempted")
	reg.Help("mosaic_soakd_link_replacements_total", "worn-out links replaced by a fresh module")
	roundsTotal := reg.Counter("mosaic_soakd_rounds_total")

	// The health view reads only registry gauges — the soak goroutine
	// owns the link, so /healthz can never race it (or crash on it: the
	// whole accessor surface underneath is bounds-guarded).
	lanesActive := reg.Gauge("mosaic_link_lanes_active")
	sparesLeft := reg.Gauge("mosaic_link_spares_left")
	superframesG := reg.Gauge("mosaic_link_superframes")
	retxRate := reg.Gauge("mosaic_mac_retx_rate", "endpoint", "a")
	healthz := func(w http.ResponseWriter, _ *http.Request) {
		active, rate := int(lanesActive.Value()), retxRate.Value()
		status, code := "ok", http.StatusOK
		if active < s.Lanes {
			status, code = "degraded", http.StatusServiceUnavailable
		}
		if s.MaxRetxRate > 0 && rate > s.MaxRetxRate {
			status, code = "retx-storm", http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":           status,
			"lanes_active":     active,
			"lanes_configured": s.Lanes,
			"spares_left":      int(sparesLeft.Value()),
			"superframes":      int64(superframesG.Value()),
			"soak_rounds":      roundsTotal.Value(),
			"mac_retx_rate":    rate,
			"max_retx_rate":    s.MaxRetxRate,
		})
	}

	links, err := s.NewLinks()
	if err != nil {
		return nil, err
	}
	// The soak goroutine checks stop at round boundaries and closes done
	// when it exits; Drain waits for it up to the shutdown grace.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.soakLoop(links, reg, stop); err != nil {
			fatal(err)
		}
	}()
	return &httpx.Daemon{
		Addr:    s.Serve,
		Handler: httpx.NewMux(reg, healthz),
		Drain: func(ctx context.Context) {
			close(stop)
			select {
			case <-done:
				log.Printf("linksoak: soak drained after %d rounds", roundsTotal.Value())
			case <-ctx.Done():
				log.Printf("linksoak: soak still mid-round at shutdown deadline")
			}
		},
	}, nil
}

// soakLoop runs -rounds rounds (0 = until stop), feeding reg: round r
// replays buildSchedule(Seed+r) against the same links — a bare PHY, or
// with -mac the forward link of a full-duplex MAC session, which adds the
// mosaic_mac_* set to the per-link metrics. Links persist across rounds
// and wear out: a partial round — a link with no lanes left cannot
// Exchange — swaps in a fresh module and the soak goes on, while a round
// that cannot start is returned as an error. Every attempted round is
// counted once. It checks stop at round boundaries.
func (s *Soak) soakLoop(links Links, reg *telemetry.Registry, stop <-chan struct{}) error {
	roundsTotal := reg.Counter("mosaic_soakd_rounds_total")
	replacements := reg.Counter("mosaic_soakd_link_replacements_total")
	for round := 0; s.Rounds == 0 || round < s.Rounds; round++ {
		select {
		case <-stop:
			return nil
		default:
		}
		sched, err := s.buildSchedule(s.Seed + int64(round))
		if err != nil {
			return err
		}
		rep, err := s.Round(links, sched, reg)
		roundsTotal.Inc()
		switch {
		case rep == nil:
			return fmt.Errorf("round %d cannot start: %w", round, err)
		case err != nil:
			log.Printf("round %d: %v; replacing the link module", round, err)
			replacements.Inc()
			if links, err = s.NewLinks(); err != nil {
				return err
			}
		default:
			summary, _, _ := strings.Cut(rep.Summary, "\n")
			log.Printf("round %d: %s", round, summary)
		}
	}
	log.Printf("soak finished after %d rounds; still serving", s.Rounds)
	return nil
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linksoak:", err)
	os.Exit(1)
}
