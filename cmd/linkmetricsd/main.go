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
	"math/rand"
	"net/http"
	"os"
	"strings"

	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
	"mosaic/internal/telemetry"
	"mosaic/internal/telemetry/httpx"
)

func main() {
	var (
		addr        = flag.String("addr", ":9090", "HTTP listen address")
		lanes       = flag.Int("lanes", 100, "active data lanes")
		spares      = flag.Int("spares", 4, "spare channels")
		fecName     = flag.String("fec", "rslite", "per-channel FEC: none|hamming72|rslite|kp4")
		unitLen     = flag.Int("unit", 243, "stripe unit length in bytes (multiple of 9)")
		superframes = flag.Int("superframes", 240, "superframes per soak round")
		frames      = flag.Int("frames", 24, "frames per superframe")
		frameLen    = flag.Int("framesize", 1500, "bytes per frame")
		seed        = flag.Int64("seed", 1, "base seed; round r uses seed+r for its schedule")
		workers     = flag.Int("workers", 0, "PHY lane workers (0 = all cores)")
		hazard      = flag.Float64("hazard", 0.0005, "per-superframe channel death probability per round")
		maintEvery  = flag.Int("maintain-every", 10, "superframes between proactive maintenance passes (0 = never)")
		keepSpares  = flag.Int("keep-spares", 1, "spares held back for hard failures")
		spareAbove  = flag.Float64("spare-above", 1e-6, "proactive remap threshold (estimated BER)")
		rounds      = flag.Int("rounds", 0, "soak rounds to run (0 = forever); serving continues after the last round")
		macMode     = flag.Bool("mac", false, "soak a full MAC session per round (framing + LLR + bridge) instead of a bare PHY")
		arqName     = flag.String("arq", "gbn", "LLR retransmission discipline with -mac: gbn|sr")
		vcCount     = flag.Int("vc", 1, "virtual channels with -mac (classes assigned round-robin)")
		maxRetxRate = flag.Float64("max-retx-rate", 0.5, "/healthz returns 503 while the windowed LLR retransmit rate exceeds this fraction (0 disables)")
	)
	flag.Parse()

	arq, err := mac.ARQByName(*arqName)
	if err != nil {
		fatal(err)
	}

	fec, err := phy.FECByName(*fecName)
	if err != nil {
		fatal(err)
	}
	newLink := func() *phy.Link {
		link, err := phy.New(phy.Config{
			Lanes:             *lanes,
			Spares:            *spares,
			FEC:               fec,
			UnitLen:           *unitLen,
			PerChannelBitRate: 2e9,
			Seed:              *seed,
			Workers:           *workers,
		})
		if err != nil {
			fatal(err)
		}
		return link
	}

	reg := telemetry.NewRegistry()
	reg.Help("mosaic_soakd_rounds_total", "completed soak rounds")
	reg.Help("mosaic_soakd_link_replacements_total", "worn-out links replaced by a fresh module")
	roundsTotal := reg.Counter("mosaic_soakd_rounds_total")
	replacements := reg.Counter("mosaic_soakd_link_replacements_total")

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
		if active < *lanes {
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
			"lanes_configured": *lanes,
			"spares_left":      int(sparesLeft.Value()),
			"superframes":      int64(superframesG.Value()),
			"soak_rounds":      roundsTotal.Value(),
			"mac_retx_rate":    rate,
			"max_retx_rate":    *maxRetxRate,
		})
	}

	params := soakParams{
		channels:    *lanes + *spares,
		superframes: *superframes,
		frames:      *frames,
		frameLen:    *frameLen,
		seed:        *seed,
		hazard:      *hazard,
		maintEvery:  *maintEvery,
		keepSpares:  *keepSpares,
		spareAbove:  *spareAbove,
		rounds:      *rounds,
		arq:         arq,
		vcs:         *vcCount,
	}
	// The soak goroutine checks stop at round boundaries and closes done
	// when it exits; Drain waits for it up to the shutdown grace.
	stop := make(chan struct{})
	done := make(chan struct{})
	if *macMode {
		go macSoakLoop(newLink, reg, roundsTotal, replacements, params, stop, done)
	} else {
		go soakLoop(newLink, reg, roundsTotal, replacements, params, stop, done)
	}

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

type soakParams struct {
	channels, superframes, frames, frameLen int
	seed                                    int64
	hazard                                  float64
	maintEvery, keepSpares, rounds          int
	spareAbove                              float64
	arq                                     mac.ARQKind
	vcs                                     int
}

// soakLoop runs soak rounds forever (or for params.rounds), feeding reg.
// A round that fails — a link with no lanes left cannot Exchange — swaps
// in a fresh link and keeps going. It checks stop at round boundaries and
// closes done on exit, so shutdown waits at most one round.
func soakLoop(newLink func() *phy.Link, reg *telemetry.Registry,
	roundsTotal, replacements *telemetry.Counter, p soakParams,
	stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	link := newLink()
	for round := 0; p.rounds == 0 || round < p.rounds; round++ {
		select {
		case <-stop:
			return
		default:
		}
		var sched faultinject.Schedule
		if p.hazard > 0 {
			sched = faultinject.RandomKills(rand.New(rand.NewSource(p.seed+int64(round))),
				p.channels, p.hazard, p.superframes)
		}
		res, err := faultinject.Run(faultinject.Config{
			Link:        link,
			Schedule:    sched,
			Superframes: p.superframes,
			FramesPerSF: p.frames,
			FrameLen:    p.frameLen,
			Seed:        p.seed,
			Policy: phy.MaintenancePolicy{
				SpareAboveBER: p.spareAbove,
				KeepSpares:    p.keepSpares,
			},
			MaintainEvery: p.maintEvery,
			Metrics:       reg,
		})
		roundsTotal.Inc()
		if err != nil {
			log.Printf("round %d: %v; replacing the link module", round, err)
			replacements.Inc()
			link = newLink()
			continue
		}
		log.Printf("round %d: %s", round, firstLine(res.Summary()))
	}
	log.Printf("soak finished after %d rounds; still serving", p.rounds)
}

// macSoakLoop is soakLoop's MAC-mode twin: each round replays a seeded
// random-kill schedule against the forward link of a full-duplex MAC
// session, so the registry carries the mosaic_mac_* set (retransmits,
// replay occupancy, credit stalls, renegotiations) on top of the
// per-link metrics. Links persist across rounds and wear out; a round
// that cannot run swaps in a fresh pair. Like soakLoop it stops at round
// boundaries and closes done on exit.
func macSoakLoop(newLink func() *phy.Link, reg *telemetry.Registry,
	roundsTotal, replacements *telemetry.Counter, p soakParams,
	stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	var pc mac.PairConfig
	pc.Endpoint.ARQ = p.arq
	pc.Endpoint.VCs = p.vcs
	var vcPackets []int
	pc.Endpoint.VCClass, vcPackets = mac.RoundRobinVCs(p.vcs, p.frames)
	fwd, rev := newLink(), newLink()
	for round := 0; p.rounds == 0 || round < p.rounds; round++ {
		select {
		case <-stop:
			return
		default:
		}
		var sched faultinject.Schedule
		if p.hazard > 0 {
			sched = faultinject.RandomKills(rand.New(rand.NewSource(p.seed+int64(round))),
				p.channels, p.hazard, p.superframes)
		}
		eng := sim.NewEngine(p.seed + int64(round))
		sess, err := mac.NewSession(mac.SessionConfig{
			Engine:       eng,
			Fwd:          fwd,
			Rev:          rev,
			Pair:         pc,
			Schedule:     sched,
			Superframes:  p.superframes,
			Interval:     1e-5,
			PacketsPerSF: p.frames,
			VCPackets:    vcPackets,
			PacketLen:    p.frameLen,
			Seed:         p.seed,
			Bridge:       mac.NewBridge(fwd, mac.DiscardCapacity{}, 0),
			Metrics:      reg,
		})
		if err != nil {
			log.Printf("round %d: %v; replacing the link pair", round, err)
			replacements.Inc()
			fwd, rev = newLink(), newLink()
			continue
		}
		eng.Run()
		res := sess.Result()
		roundsTotal.Inc()
		if res.Err != "" {
			log.Printf("round %d: %s; replacing the link pair", round, res.Err)
			replacements.Inc()
			fwd, rev = newLink(), newLink()
			continue
		}
		log.Printf("round %d: %s", round, firstLine(res.Summary()))
	}
	log.Printf("mac soak finished after %d rounds; still serving", p.rounds)
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
