// Package httpx is the shared HTTP shell for the repo's daemons
// (linksoak -serve, mosaicfleetd): the standard operational mux and a
// signal-aware server lifecycle with graceful drain.
//
// NewMux wires a registry (and an optional health handler) into a
// standalone *http.ServeMux with the standard operational endpoints.
// The mux is deliberately explicit — nothing registers on
// http.DefaultServeMux — so a binary can mount it wherever it wants:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON snapshot of the same registry
//	/healthz        the supplied health handler (404 when nil)
//	/debug/pprof/*  net/http/pprof profiling (CPU, heap, goroutine, ...)
//
// Daemon runs a handler on an address with the shared shutdown
// discipline: SIGTERM/SIGINT trigger a bounded Drain callback (stop
// admissions, drain workers, flush telemetry) followed by
// http.Server.Shutdown, and SIGHUP triggers a Reload callback (config
// hot-reload) without interrupting serving.
package httpx

import (
	"context"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mosaic/internal/telemetry"
)

// NewMux returns a mux serving the registry plus pprof. healthz may be
// nil.
func NewMux(r *telemetry.Registry, healthz http.HandlerFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	if healthz != nil {
		mux.HandleFunc("/healthz", healthz)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Daemon is the shared serve-and-shutdown shell.
type Daemon struct {
	Addr    string       // listen address (":9090")
	Handler http.Handler // typically a NewMux with API routes added

	// Grace bounds the whole shutdown sequence — Drain plus
	// http.Server.Shutdown share one deadline (default 15s).
	Grace time.Duration

	// Drain, when non-nil, runs on SIGTERM/SIGINT before the HTTP server
	// shuts down: stop admissions, drain or stop worker goroutines, flush
	// telemetry. It must return when ctx expires.
	Drain func(ctx context.Context)

	// Reload, when non-nil, runs on SIGHUP (and can be shared with a
	// POST /reload route). Errors are logged, never fatal — a bad config
	// must not take the daemon down.
	Reload func() error
}

// ListenAndServe serves until a termination signal lands, then runs the
// graceful sequence and returns. A SIGHUP triggers Reload and serving
// continues.
func (d *Daemon) ListenAndServe() error {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt, syscall.SIGHUP)
	defer signal.Stop(sigs)
	log.Printf("httpx: serving on %s", ln.Addr())
	return d.Serve(ln, sigs)
}

// Serve is ListenAndServe with the listener and signal source injected
// (tests drive shutdown through a fake signal channel).
func (d *Daemon) Serve(ln net.Listener, sigs <-chan os.Signal) error {
	grace := d.Grace
	if grace <= 0 {
		grace = 15 * time.Second
	}
	srv := &http.Server{Handler: d.Handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	for {
		select {
		case err := <-errc:
			return err
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if d.Reload == nil {
					continue
				}
				if err := d.Reload(); err != nil {
					log.Printf("httpx: reload failed (serving continues): %v", err)
				} else {
					log.Printf("httpx: reloaded")
				}
				continue
			}
			log.Printf("httpx: %v received; draining (grace %v)", sig, grace)
			ctx, cancel := context.WithTimeout(context.Background(), grace)
			if d.Drain != nil {
				d.Drain(ctx)
			}
			err := srv.Shutdown(ctx)
			cancel()
			<-errc // Serve has returned http.ErrServerClosed
			if err != nil {
				log.Printf("httpx: shutdown incomplete: %v", err)
			}
			return err
		}
	}
}
