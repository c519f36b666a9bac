// Command mosaicfleetd is the fleet service: a long-lived daemon owning
// thousands of simulated Mosaic links — each a full PHY/MAC/bridge stack
// under seeded fault injection — on a shared work-stealing pool, behind
// an admission-controlled HTTP/JSON API.
//
//	POST /v1/links                  admit links ({"count":N,"design":{...}}); 201 {"ids":[...]}
//	GET  /v1/links?limit=N          list live links
//	GET  /v1/links/{id}             inspect one link
//	POST /v1/links/{id}/degrade     kill channels ({"kill":K}); 200 {"link":id,"action":"degrade"}
//	POST /v1/links/{id}/renegotiate commit a degraded width; 200 {"link":id,"action":"renegotiate"}
//	POST /v1/links/{id}/retire      drain and retire; 200 {"link":id,"action":"retire"}
//	POST /v1/links/batch            a JSON op script, applied in order; 200 with one {"ok":...} per op
//	POST /reload                    hot-reload budgets/design (also SIGHUP)
//	GET  /v1/fleet                  fleet snapshot
//	GET  /healthz                   200; 503 while overloaded or draining
//	/metrics /metrics.json /debug/pprof/  the standard operational mux
//
// The fleet advances in epochs on a wall-clock ticker; everything inside
// an epoch is deterministic (fixed seed, worker-count-invariant event
// log). Every route above but /reload, and the -links start-up
// admission, is one fleetd.Op through Fleet.Apply, so the same operation
// script replayed against internal/fleetd reproduces the daemon's event
// log byte for byte.
//
// Admission is token-bucket gated and load-shedding: past the rate,
// link, or topology budgets the API answers 429 and books the shed.
// SIGHUP (or POST /reload) re-reads -config and swaps budgets and the
// default link design without touching serving links. SIGTERM/SIGINT
// drain gracefully: admissions stop, every link walks its lifecycle to
// retired (bounded by -grace), telemetry flushes, and the HTTP server
// shuts down with http.Server.Shutdown.
//
//	mosaicfleetd -links 2000 -seed 7        # bring up 2000 links on :9091
//	mosaicfleetd -config fleet.json         # budgets/design from JSON
//	mosaicfleetd -scenario E26              # default links replay E26's witness faults
//	curl -XPOST :9091/v1/links -d '{"count":10}'
//	curl -XPOST :9091/v1/links -d '{"count":4,"scenario":"E27"}'
//	curl :9091/v1/fleet
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mosaic/internal/fleetd"
	"mosaic/internal/telemetry"
	"mosaic/internal/telemetry/httpx"
)

func main() {
	var (
		addr     = flag.String("addr", ":9091", "HTTP listen address")
		cfgPath  = flag.String("config", "", "JSON config file (budgets + default link design); reloaded on SIGHUP")
		links    = flag.Int("links", 0, "links to admit at startup (retried across epochs until reached)")
		seed     = flag.Int64("seed", 1, "fleet seed (event log is deterministic for a given seed and op sequence)")
		workers  = flag.Int("workers", 0, "pool workers (0 = all cores)")
		maxLinks = flag.Int("max-links", 0, "cap on live links (0 = config default)")
		epoch    = flag.Duration("epoch", 50*time.Millisecond, "wall-clock epoch interval")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown grace (drain + HTTP shutdown share it)")
		lanes    = flag.Int("lanes", 0, "default design: active lanes (0 = config default)")
		spares   = flag.Int("spares", -1, "default design: spare channels (-1 = config default)")
		hazard   = flag.Float64("hazard", -1, "default design: per-superframe channel kill probability (-1 = config default)")
		scenName = flag.String("scenario", "", "default design: bind links to a registered scenario's witness fault schedule (experiment ID like E26 or spec name; see mosaicbench -list)")
	)
	flag.Parse()

	loadCfg := func() (fleetd.Config, error) {
		cfg := fleetd.DefaultConfig()
		if *cfgPath != "" {
			var err error
			if cfg, err = fleetd.LoadConfig(*cfgPath); err != nil {
				return cfg, err
			}
		}
		// Flags layer on top of the file (or the defaults).
		cfg.Seed = *seed
		cfg.Workers = *workers
		if *maxLinks > 0 {
			cfg.Budgets.MaxLinks = *maxLinks
		}
		if *lanes > 0 {
			cfg.Design.Lanes = *lanes
		}
		if *spares >= 0 {
			cfg.Design.Spares = *spares
		}
		if *hazard >= 0 {
			cfg.Design.Hazard = *hazard
		}
		if *scenName != "" {
			cfg.Design.Scenario = *scenName
		}
		return cfg, cfg.Validate()
	}

	cfg, err := loadCfg()
	if err != nil {
		fatal(err)
	}
	reg := telemetry.NewRegistry()
	fleet, err := fleetd.New(cfg, reg)
	if err != nil {
		fatal(err)
	}
	srv := fleetd.NewServer(fleet, reg)
	reload := func() error {
		cfg, err := loadCfg()
		if err != nil {
			return err
		}
		return fleet.Reload(cfg)
	}
	srv.ReloadConfig = reload

	// The ticker goroutine is the only caller of Step: operations from
	// the API land between epochs on the fleet mutex, exactly like ops in
	// a deterministic replay script land at epoch boundaries.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(*epoch)
		defer t.Stop()
		remaining := *links
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if remaining > 0 {
					ids, _ := fleet.Apply(fleetd.Op{Action: "create", Count: remaining})
					remaining -= len(ids)
					if remaining == 0 {
						log.Printf("mosaicfleetd: startup target reached (%d links admitted)", *links)
					}
				}
				fleet.Step()
			}
		}
	}()

	d := &httpx.Daemon{
		Addr:    *addr,
		Handler: srv.Handler(),
		Grace:   *grace,
		Reload:  reload,
		Drain: func(ctx context.Context) {
			close(stop)
			<-done
			if left := fleet.Drain(ctx); left > 0 {
				log.Printf("mosaicfleetd: drain deadline hit with %d links still live", left)
			} else {
				adm := fleet.Admission()
				log.Printf("mosaicfleetd: drained clean after %d epochs (admitted=%d retired=%d)",
					fleet.Snapshot().Epoch, adm.Admitted, adm.Retired)
			}
		},
	}
	log.Printf("mosaicfleetd: seed=%d workers=%d max_links=%d epoch=%v on %s",
		cfg.Seed, cfg.Workers, cfg.Budgets.MaxLinks, *epoch, *addr)
	if err := d.ListenAndServe(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mosaicfleetd:", err)
	os.Exit(1)
}
