package main

import (
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"mosaic/internal/telemetry"
)

// served is a -serve soak running on a loopback listener, driven through
// httpx.Daemon.Serve with a fake signal channel.
type served struct {
	url  string
	reg  *telemetry.Registry
	sigs chan os.Signal
	errc chan error
}

// small is a 16-lane link that soaks a round in milliseconds.
var small = []string{"-serve", "127.0.0.1:0", "-lanes", "16", "-unit", "63", "-workers", "1", "-superframes", "20"}

func startServe(t *testing.T, args ...string) *served {
	t.Helper()
	s := parseSoak(t, append(append([]string{}, small...), args...)...)
	ln, err := net.Listen("tcp", s.Serve)
	if err != nil {
		t.Fatal(err)
	}
	sv := &served{url: "http://" + ln.Addr().String(), reg: telemetry.NewRegistry(), sigs: make(chan os.Signal, 1), errc: make(chan error, 1)}
	d, err := s.daemon(sv.reg)
	if err != nil {
		t.Fatal(err)
	}
	go func() { sv.errc <- d.Serve(ln, sv.sigs) }()
	return sv
}

func (sv *served) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(sv.url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// waitFor polls cond for up to 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// stop sends SIGTERM and wants a clean shutdown.
func (sv *served) stop(t *testing.T) {
	t.Helper()
	sv.sigs <- syscall.SIGTERM
	select {
	case err := <-sv.errc:
		if err != nil {
			t.Errorf("serve after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not return after SIGTERM")
	}
}

func (sv *served) count(name string) uint64 { return sv.reg.Counter(name).Value() }

// At -hazard 0 every round replays the default scenario; on eight
// spares two rounds of it leave the link at full width, and /healthz
// says so.
func TestServeRoundsHealthy(t *testing.T) {
	sv := startServe(t, "-rounds", "2", "-hazard", "0", "-spares", "8")
	var code int
	var health map[string]any
	waitFor(t, "two rounds on /healthz", func() bool {
		var body string
		code, body = sv.get(t, "/healthz")
		if err := json.Unmarshal([]byte(body), &health); err != nil {
			t.Fatalf("/healthz body %q: %v", body, err)
		}
		return health["soak_rounds"] == 2.0
	})
	if code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("/healthz after 2 rounds = %d %v, want 200 ok", code, health)
	}
	if _, body := sv.get(t, "/metrics"); !strings.Contains(body, "mosaic_soakd_rounds_total 2\n") {
		t.Errorf("/metrics lacks mosaic_soakd_rounds_total 2:\n%s", body)
	}
	sv.stop(t)
}

// -hazard 1 kills every channel at superframe 0, so every round wears
// the module out and swaps in a fresh one.
func TestServeReplacesWornModule(t *testing.T) {
	const rounds = 3
	sv := startServe(t, "-rounds", "3", "-hazard", "1")
	waitFor(t, "three replacements", func() bool {
		_, body := sv.get(t, "/metrics")
		return strings.Contains(body, "mosaic_soakd_link_replacements_total 3\n")
	})
	if got := sv.count("mosaic_soakd_rounds_total"); got != rounds {
		t.Errorf("rounds = %d, want %d", got, rounds)
	}
	sv.stop(t)
}

// A round that cannot start is a configuration error, not wear: the
// soak ends after one attempt with an error and replaces nothing.
func TestSoakLoopRoundThatCannotStartIsFatal(t *testing.T) {
	s := parseSoak(t, append(append([]string{}, small...), "-frames", "0")...)
	links, err := s.NewLinks()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if err := s.soakLoop(links, reg, nil); err == nil || !strings.Contains(err.Error(), "cannot start") {
		t.Errorf("soakLoop = %v, want a round that cannot start", err)
	}
	if got := reg.Counter("mosaic_soakd_rounds_total").Value(); got != 1 {
		t.Errorf("rounds = %d, want 1", got)
	}
	if got := reg.Counter("mosaic_soakd_link_replacements_total").Value(); got != 0 {
		t.Errorf("replacements = %d, want 0", got)
	}
}

// Each mode refuses the flags it would ignore.
func TestModeRefusesIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // "" = accepted
	}{
		{[]string{}, ""},
		{[]string{"-mac", "-arq", "sr", "-vc", "3", "-dump", "f.json", "-metrics", "m.prom", "-json", "-scenario", "E26", "-unit", "63"}, ""},
		{[]string{"-rounds", "3"}, "-rounds does not apply to a one-shot soak"},
		{[]string{"-max-retx-rate", "0.2"}, "-max-retx-rate does not apply to a one-shot soak"},
		{[]string{"-trials", "20", "-lanes", "8", "-spares", "1", "-hazard", "0.01", "-superframes", "30", "-seed", "3", "-workers", "1", "-json"}, ""},
		{[]string{"-trials", "20", "-mac", "-arq", "sr", "-lanes", "8", "-spares", "1"}, "-arq does not apply to -trials"},
		{[]string{"-trials", "20", "-fec", "none"}, "-fec does not apply to -trials: the survival study counts raw channel deaths and always runs without FEC"},
		{[]string{"-trials", "20", "-frames", "4"}, "-frames does not apply to -trials"},
		{[]string{"-trials", "20", "-schedule", "f.json"}, "-schedule does not apply to -trials"},
		{[]string{"-trials", "20", "-serve", ":0"}, "-serve does not apply to -trials"},
		{[]string{"-serve", ":0", "-rounds", "3", "-max-retx-rate", "0.2", "-mac", "-schedule", "f.json", "-hazard", "0.1"}, ""},
		{[]string{"-serve", ":0", "-dump", "f.json"}, "-dump does not apply to -serve"},
		{[]string{"-serve", ":0", "-json"}, "-json does not apply to -serve"},
		{[]string{"-serve", ":0", "-metrics", "m.prom"}, "-metrics does not apply to -serve"},
	} {
		fs := flag.NewFlagSet("linksoak", flag.ContinueOnError)
		s := AddSoak(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := s.Resolve(fs); err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("%v: error %q, want %q", tc.args, got, tc.err)
		}
	}
}
