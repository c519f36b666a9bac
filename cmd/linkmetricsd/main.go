// Command linkmetricsd is the serving face of the telemetry layer: it
// drives a Mosaic link through continuous fault-injection soak rounds and
// exposes the live metric registry over HTTP —
//
//	/metrics        Prometheus text exposition (per-link and per-channel)
//	/metrics.json   the same registry as a JSON snapshot
//	/healthz        link health summary; 200 at full width, 503 degraded
//	/debug/pprof/   net/http/pprof (CPU, heap, goroutine, ...)
//
// Each round replays a seeded random-kill schedule (seed + round index,
// so rounds differ but a given invocation is reproducible) against the
// same link while reactive sparing and proactive maintenance respond.
// When the link finally wears out (no lanes left), it is replaced by a
// fresh one — counted in mosaic_soakd_link_replacements_total — and the
// soak continues, so the daemon models a module swap rather than dying.
//
//	linkmetricsd                            # 100+4 channels on :9090
//	linkmetricsd -addr :8080 -hazard 0.01   # faster wear for demos
//	linkmetricsd -rounds 3                  # soak 3 rounds, then just serve
//	linkmetricsd -mac -max-retx-rate 0.2    # MAC session soak; 503 on retransmit storms
//	linkmetricsd -mac -arq sr -vc 3         # selective repeat over three QoS-classed VCs
//
// With -mac each round drives a full MAC session (CRC framing, the
// selected LLR discipline, capacity bridge) instead of a bare-PHY soak,
// adding the mosaic_mac_* metric set (per-VC counters when -vc > 1), and
// /healthz also returns 503 while the LLR retransmit rate (windowed,
// endpoint "a") exceeds -max-retx-rate.
//
// The HTTP side never touches the link: scrapes read only the registry's
// atomics, which the soak goroutine refreshes at superframe boundaries.
//
// On SIGTERM/SIGINT the daemon drains gracefully: the soak goroutine is
// told to stop and given the remainder of its current round to finish
// (bounded by the shutdown grace), then the HTTP server shuts down with
// http.Server.Shutdown so in-flight scrapes complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"mosaic/cmd/internal/linkflags"
	"mosaic/internal/telemetry"
	"mosaic/internal/telemetry/httpx"
)

func main() {
	soak := linkflags.AddSoak(flag.CommandLine, 240, 0.0005)
	var (
		addr        = flag.String("addr", ":9090", "HTTP listen address")
		rounds      = flag.Int("rounds", 0, "soak rounds to run (0 = forever); serving continues after the last round")
		maxRetxRate = flag.Float64("max-retx-rate", 0.5, "/healthz returns 503 while the windowed LLR retransmit rate exceeds this fraction (0 disables)")
	)
	flag.Parse()
	if err := soak.Resolve(); err != nil {
		fatal(err)
	}

	reg := telemetry.NewRegistry()
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
		active := int(lanesActive.Value())
		rate := retxRate.Value()
		status := "ok"
		code := http.StatusOK
		if active < soak.Lanes {
			status = "degraded"
			code = http.StatusServiceUnavailable
		}
		if *maxRetxRate > 0 && rate > *maxRetxRate {
			status = "retx-storm"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status":           status,
			"lanes_active":     active,
			"lanes_configured": soak.Lanes,
			"spares_left":      int(sparesLeft.Value()),
			"superframes":      int64(superframesG.Value()),
			"soak_rounds":      roundsTotal.Value(),
			"mac_retx_rate":    rate,
			"max_retx_rate":    *maxRetxRate,
		})
	}

	// The soak goroutine checks stop at round boundaries and closes done
	// when it exits; Drain waits for it up to the shutdown grace.
	stop := make(chan struct{})
	done := make(chan struct{})
	go soakLoop(soak, *rounds, reg, stop, done)

	d := &httpx.Daemon{
		Addr:    *addr,
		Handler: httpx.NewMux(reg, healthz),
		Drain: func(ctx context.Context) {
			close(stop)
			select {
			case <-done:
				log.Printf("linkmetricsd: soak drained after %d rounds", roundsTotal.Value())
			case <-ctx.Done():
				log.Printf("linkmetricsd: soak still mid-round at shutdown deadline")
			}
		},
	}
	log.Printf("linkmetricsd: serving /metrics /metrics.json /healthz /debug/pprof on %s", *addr)
	if err := d.ListenAndServe(); err != nil {
		fatal(err)
	}
}

// soakLoop runs soak rounds forever (or for rounds), feeding reg: each
// round replays a seeded random-kill schedule against the same link — a
// bare PHY, or with -mac the forward link of a full-duplex MAC session,
// which adds the mosaic_mac_* set (retransmits, replay occupancy, credit
// stalls, renegotiations) to the per-link metrics. Links persist across
// rounds and wear out; a round that cannot run — a link with no lanes
// left cannot Exchange — swaps in a fresh module and keeps going. Every
// attempted round is counted once. It checks stop at round boundaries
// and closes done on exit, so shutdown waits at most one round.
func soakLoop(soak *linkflags.Soak, rounds int, reg *telemetry.Registry, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	roundsTotal := reg.Counter("mosaic_soakd_rounds_total")
	replacements := reg.Counter("mosaic_soakd_link_replacements_total")
	newLinks := func() linkflags.Links {
		links, err := soak.NewLinks()
		if err != nil {
			fatal(err)
		}
		return links
	}
	links := newLinks()
	for round := 0; rounds == 0 || round < rounds; round++ {
		select {
		case <-stop:
			return
		default:
		}
		rep, err := soak.Round(links, soak.RandomKills(soak.Seed+int64(round)), reg)
		roundsTotal.Inc()
		if err != nil {
			log.Printf("round %d: %v; replacing the link module", round, err)
			replacements.Inc()
			links = newLinks()
			continue
		}
		log.Printf("round %d: %s", round, firstLine(rep.Summary))
	}
	log.Printf("soak finished after %d rounds; still serving", rounds)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linkmetricsd:", err)
	os.Exit(1)
}
