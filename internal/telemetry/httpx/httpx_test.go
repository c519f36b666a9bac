package httpx

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mosaic/internal/telemetry"
)

func TestMuxEndpoints(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("up_total").Inc()
	healthz := func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}
	srv := httptest.NewServer(NewMux(r, healthz))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body := get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if snap.Counters["up_total"] != 1 {
		t.Errorf("/metrics.json counter = %d, want 1", snap.Counters["up_total"])
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// pprof is mounted (cmdline is the cheapest endpoint to probe).
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestMuxNilHealthz(t *testing.T) {
	srv := httptest.NewServer(NewMux(telemetry.NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/healthz without handler = %d, want 404", resp.StatusCode)
	}
}

// TestDaemonGracefulShutdown drives the full lifecycle through a fake
// signal channel: serve, SIGHUP reload (serving continues), then
// SIGTERM with the Drain hook observed before Serve returns.
func TestDaemonGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reloads, drains atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("pong"))
	})
	d := &Daemon{
		Handler: mux,
		Grace:   5 * time.Second,
		Drain:   func(context.Context) { drains.Add(1) },
		Reload:  func() error { reloads.Add(1); return nil },
	}
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- d.Serve(ln, sigs) }()

	url := "http://" + ln.Addr().String() + "/ping"
	waitUp := func() {
		t.Helper()
		for i := 0; i < 100; i++ {
			resp, err := http.Get(url)
			if err == nil {
				resp.Body.Close()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal("server never came up")
	}
	waitUp()

	sigs <- syscall.SIGHUP
	for i := 0; i < 100 && reloads.Load() == 0; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if reloads.Load() != 1 {
		t.Fatalf("reloads = %d, want 1", reloads.Load())
	}
	// Still serving after the reload.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET after SIGHUP: %v", err)
	}
	resp.Body.Close()

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after SIGTERM")
	}
	if drains.Load() != 1 {
		t.Errorf("drains = %d, want 1", drains.Load())
	}
	if _, err := http.Get(url); err == nil {
		t.Error("server still reachable after shutdown")
	}
}
