package fleetd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mosaic/internal/telemetry"
)

type apiHarness struct {
	t     *testing.T
	fleet *Fleet
	srv   *Server
	ts    *httptest.Server
}

func newAPIHarness(t *testing.T, cfg Config) *apiHarness {
	t.Helper()
	reg := telemetry.NewRegistry()
	f, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(f, reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &apiHarness{t: t, fleet: f, srv: srv, ts: ts}
}

func (h *apiHarness) do(method, path string, body any) (int, []byte) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (h *apiHarness) decode(data []byte, v any) {
	h.t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		h.t.Fatalf("bad JSON %q: %v", data, err)
	}
}

func TestAPILifecycle(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))

	// Create two links.
	code, body := h.do("POST", "/v1/links", map[string]int{"count": 2})
	if code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, body)
	}
	var created createResponse
	h.decode(body, &created)
	if len(created.IDs) != 2 {
		t.Fatalf("created %v", created.IDs)
	}

	// Bring them up.
	for i := 0; i < 6; i++ {
		h.fleet.Step()
	}

	// List and inspect.
	code, body = h.do("GET", "/v1/links?limit=1", nil)
	var list []LinkInfo
	h.decode(body, &list)
	if code != http.StatusOK || len(list) != 1 || list[0].ID != 0 {
		t.Fatalf("list = %d %s", code, body)
	}
	code, body = h.do("GET", "/v1/links/1", nil)
	var info LinkInfo
	h.decode(body, &info)
	if code != http.StatusOK || info.ID != 1 || info.State != "serving" {
		t.Fatalf("inspect = %d %+v", code, info)
	}
	if code, _ = h.do("GET", "/v1/links/99", nil); code != http.StatusNotFound {
		t.Fatalf("inspect unknown = %d", code)
	}
	if code, _ = h.do("GET", "/v1/links/bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("inspect non-numeric = %d", code)
	}

	// Degrade past the spare pool, step, renegotiate, step.
	kill := h.fleet.cfg.Design.Spares + 2
	code, body = h.do("POST", "/v1/links/0/degrade", map[string]int{"kill": kill})
	if code != http.StatusOK {
		t.Fatalf("degrade = %d %s", code, body)
	}
	h.fleet.Step()
	if s, _ := h.fleet.StateOf(0); s != StateDegraded {
		t.Fatalf("after degrade: %s", s)
	}
	// Renegotiating a healthy link is a 409.
	if code, _ = h.do("POST", "/v1/links/1/renegotiate", nil); code != http.StatusConflict {
		t.Fatalf("renegotiate serving link = %d, want 409", code)
	}
	if code, body = h.do("POST", "/v1/links/0/renegotiate", nil); code != http.StatusOK {
		t.Fatalf("renegotiate = %d %s", code, body)
	}
	h.fleet.Step()
	if s, _ := h.fleet.StateOf(0); s != StateServing {
		t.Fatalf("after renegotiate: %s", s)
	}

	// Retire and drain out.
	if code, body = h.do("POST", "/v1/links/0/retire", nil); code != http.StatusOK {
		t.Fatalf("retire = %d %s", code, body)
	}
	for i := 0; i < 20; i++ {
		h.fleet.Step()
	}
	code, body = h.do("GET", "/v1/links/0", nil)
	h.decode(body, &info)
	if code != http.StatusOK || info.State != "retired" {
		t.Fatalf("tombstone = %d %+v", code, info)
	}

	// Fleet snapshot reflects all of it.
	code, body = h.do("GET", "/v1/fleet", nil)
	var snap Snapshot
	h.decode(body, &snap)
	if code != http.StatusOK || snap.LiveLinks != 1 || snap.Admission.Retired != 1 {
		t.Fatalf("fleet = %d %s", code, body)
	}
	if !strings.Contains(string(body), `"event_log_dropped":0`) {
		t.Errorf("fleet snapshot does not serve event_log_dropped: %s", body)
	}
}

func TestAPIBatch(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))
	ops := []Op{
		{Action: "create", Count: 2},
		{Action: "retire", Link: 0},
		{Action: "renegotiate", Link: 1}, // conflict: still admitted
		{Action: "frobnicate"},
	}
	code, body := h.do("POST", "/v1/links/batch", ops)
	if code != http.StatusOK {
		t.Fatalf("batch = %d %s", code, body)
	}
	var results []struct {
		OK    bool   `json:"ok"`
		IDs   []int  `json:"ids"`
		Error string `json:"error"`
	}
	h.decode(body, &results)
	if len(results) != 4 {
		t.Fatalf("batch results: %s", body)
	}
	if !results[0].OK || len(results[0].IDs) != 2 {
		t.Errorf("batch create: %+v", results[0])
	}
	if !results[1].OK {
		t.Errorf("batch retire: %+v", results[1])
	}
	if results[2].OK || !strings.Contains(results[2].Error, "illegal transition") {
		t.Errorf("batch conflict: %+v", results[2])
	}
	if results[3].OK || !strings.Contains(results[3].Error, "unknown action") {
		t.Errorf("batch unknown action: %+v", results[3])
	}
}

// TestAPIBatchRefusesNegativeCounts: a batch op with a negative count or
// kill is refused like the single routes refuse it, instead of acting as
// one; only a zero means the default.
func TestAPIBatchRefusesNegativeCounts(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))
	if code, body := h.do("POST", "/v1/links", nil); code != http.StatusCreated {
		t.Fatalf("create = %d %s", code, body)
	}
	stepUntil(t, h.fleet, func() bool { return stateOf(t, h.fleet, 0) == StateServing }, 10, "serving")
	logBefore, admBefore := h.fleet.EventLog(), h.fleet.Admission()
	code, body := h.do("POST", "/v1/links/batch", []Op{
		{Action: "create", Count: -3},
		{Action: "degrade", Link: 0, Kill: -2},
	})
	var results []struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}
	h.decode(body, &results)
	if code != http.StatusOK || len(results) != 2 {
		t.Fatalf("batch = %d %s", code, body)
	}
	for i, r := range results {
		if r.OK || !strings.Contains(r.Error, "needs count > 0") {
			t.Errorf("op %d with a negative count: %+v, want refused", i, r)
		}
	}
	if got := h.fleet.Admission(); got != admBefore {
		t.Errorf("refused ops moved admission: %+v -> %+v", admBefore, got)
	}
	if got := h.fleet.EventLog(); len(got) != len(logBefore) {
		t.Errorf("refused ops wrote %d log lines: %q", len(got)-len(logBefore), got[len(logBefore):])
	}
}

// TestAPIReplaysScenarioGolden drives the determinism witness's script
// through the HTTP routes instead of Fleet.Run — creates, degrades,
// renegotiations and retirements on their own routes, the budget reload
// as a one-op batch — and requires the same golden event log: the
// routes and a replayed script are one door.
func TestAPIReplaysScenarioGolden(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cfg := testConfig(workers)
		cfg.Design.Hazard = 0.002 // as runScenario
		h := newAPIHarness(t, cfg)
		script := scenarioScript()
		for e, next := 0, 0; e < 40; e++ {
			for ; next < len(script) && script[next].Epoch <= e; next++ {
				op := script[next]
				switch op.Action {
				case "create":
					h.do("POST", "/v1/links", map[string]int{"count": op.Count})
				case "degrade":
					h.do("POST", fmt.Sprintf("/v1/links/%d/degrade", op.Link), map[string]int{"kill": op.Kill})
				case "renegotiate", "retire":
					h.do("POST", fmt.Sprintf("/v1/links/%d/%s", op.Link, op.Action), nil)
				default:
					code, body := h.do("POST", "/v1/links/batch", Script{op})
					if code != http.StatusOK || !strings.HasPrefix(string(body), `[{"ok":true}`) {
						t.Fatalf("%s as a batch = %d %s", op.Action, code, body)
					}
				}
			}
			h.fleet.Step()
		}
		log := h.fleet.EventLog()
		sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
		if got := hex.EncodeToString(sum[:]); got != fleetScenarioGolden {
			_, want := runScenario(t, workers)
			t.Fatalf("%d workers: event log over HTTP sha = %s, golden = %s\nfirst diff: %s",
				workers, got, fleetScenarioGolden, firstDiff(log, want))
		}
	}
}

// TestAPIAdmissionShedding: past the token bucket the API answers 429
// and the shed counters advance; /healthz reports the overload window
// at the next epoch and recovers after a quiet one.
func TestAPIAdmissionShedding(t *testing.T) {
	cfg := testConfig(1)
	cfg.Budgets.AdmitPerEpoch = 1
	cfg.Budgets.AdmitBurst = 2
	h := newAPIHarness(t, cfg)

	code, body := h.do("POST", "/v1/links", map[string]int{"count": 5})
	if code != http.StatusCreated {
		t.Fatalf("partial create = %d %s", code, body)
	}
	var created createResponse
	h.decode(body, &created)
	if len(created.IDs) != 2 || created.Shed != string(ShedRate) {
		t.Fatalf("partial create: %+v", created)
	}

	// Bucket is dry: the next create sheds entirely.
	if code, _ = h.do("POST", "/v1/links", nil); code != http.StatusTooManyRequests {
		t.Fatalf("dry-bucket create = %d, want 429", code)
	}

	// The epoch that follows the sheds reports overload on /healthz...
	h.fleet.Step()
	code, body = h.do("GET", "/healthz", nil)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "overloaded") {
		t.Fatalf("healthz during overload window = %d %s", code, body)
	}
	// ...and a quiet epoch clears it.
	h.fleet.Step()
	if code, body = h.do("GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after quiet epoch = %d %s", code, body)
	}
}

// TestAPIScrapeGate: /metrics beyond the per-epoch budget sheds with
// 429 while /healthz stays reachable; the next epoch resets the gate.
func TestAPIScrapeGate(t *testing.T) {
	cfg := testConfig(1)
	cfg.Budgets.ScrapePerEpoch = 2
	h := newAPIHarness(t, cfg)

	for i := 0; i < 2; i++ {
		if code, _ := h.do("GET", "/metrics", nil); code != http.StatusOK {
			t.Fatalf("scrape %d = %d", i, code)
		}
	}
	if code, _ := h.do("GET", "/metrics", nil); code != http.StatusTooManyRequests {
		t.Fatal("third scrape not shed")
	}
	if code, _ := h.do("GET", "/metrics.json", nil); code != http.StatusTooManyRequests {
		t.Fatal("json scrape not shed")
	}
	// Health stays observable straight through the shed window. (The
	// fleet books the sheds, so this is the overload 503 — but it must
	// answer, not 429.)
	if code, _ := h.do("GET", "/healthz", nil); code == http.StatusTooManyRequests {
		t.Fatal("healthz shed by the scrape gate")
	}
	if h.fleet.Admission().ShedScrape != 2 {
		t.Fatalf("scrape sheds = %d, want 2", h.fleet.Admission().ShedScrape)
	}

	// A shed scrape never takes the fleet lock: it answers while an epoch
	// (here, the test) holds it.
	h.fleet.mu.Lock()
	shed := make(chan int, 1)
	go func() {
		resp, err := http.Get(h.ts.URL + "/metrics")
		if err != nil {
			shed <- 0
			return
		}
		resp.Body.Close()
		shed <- resp.StatusCode
	}()
	select {
	case code := <-shed:
		h.fleet.mu.Unlock()
		if code != http.StatusTooManyRequests {
			t.Fatalf("scrape over budget under the fleet lock = %d, want 429", code)
		}
	case <-time.After(5 * time.Second):
		h.fleet.mu.Unlock()
		<-shed
		t.Fatal("a shed scrape waited on the fleet lock")
	}

	h.fleet.Step()
	if got := h.fleet.Admission().ShedScrape; got != 3 {
		t.Fatalf("scrape sheds = %d, want 3", got)
	}
	if got := h.fleet.Snapshot().Admission.ShedScrape; got != 3 {
		t.Fatalf("snapshot scrape sheds = %d, want 3", got)
	}
	if code, body := h.do("GET", "/healthz", nil); code != http.StatusServiceUnavailable || !strings.Contains(string(body), "overloaded") {
		t.Fatalf("healthz after scrape sheds = %d %s", code, body)
	}
	// A scrape is not an op: the sheds leave the event log exactly as a
	// fleet that was never scraped.
	ref, err := New(cfg, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ref.Step()
	if got, want := h.fleet.EventLog(), ref.EventLog(); !slices.Equal(got, want) {
		t.Fatalf("scrape sheds changed the event log:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	if code, _ := h.do("GET", "/metrics", nil); code != http.StatusOK {
		t.Fatal("scrape gate did not reset at the epoch")
	}
	var sb strings.Builder
	if err := h.srv.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `mosaic_fleetd_shed_total{reason="scrape"} 3`; !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition lacks %q", want)
	}
}

func TestAPIReload(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))

	// Body reload: tighten MaxLinks.
	newCfg := testConfig(1)
	newCfg.Budgets.MaxLinks = 1
	code, body := h.do("POST", "/reload", newCfg)
	if code != http.StatusOK {
		t.Fatalf("reload = %d %s", code, body)
	}
	if h.fleet.Snapshot().MaxLinks == 1 {
		t.Fatal("snapshot refreshed before an epoch") // barrier refreshes it
	}
	h.fleet.Step()
	if got := h.fleet.Snapshot().MaxLinks; got != 1 {
		t.Fatalf("MaxLinks after reload = %d", got)
	}

	// A reload that tries to change the seed or the event-log cap is a
	// 400, and the cap stays where it was.
	newCfg.MaxLog = 100
	if code, body = h.do("POST", "/reload", newCfg); code != http.StatusBadRequest || !strings.Contains(string(body), "max_log") {
		t.Fatalf("max_log-changing reload = %d %s, want 400", code, body)
	}
	if h.fleet.log.Max != 200000 || h.fleet.cfg.MaxLog != 0 {
		t.Fatalf("refused reload moved the log cap: log.Max=%d cfg.MaxLog=%d", h.fleet.log.Max, h.fleet.cfg.MaxLog)
	}
	newCfg.MaxLog = 0
	newCfg.Seed = 123
	if code, _ = h.do("POST", "/reload", newCfg); code != http.StatusBadRequest {
		t.Fatalf("seed-changing reload = %d, want 400", code)
	}

	// Empty body without a hook is a 400; with a hook it runs the hook.
	if code, _ = h.do("POST", "/reload", nil); code != http.StatusBadRequest {
		t.Fatalf("hookless empty reload = %d, want 400", code)
	}
	ran := false
	h.srv.ReloadConfig = func() error { ran = true; return nil }
	if code, _ = h.do("POST", "/reload", nil); code != http.StatusOK || !ran {
		t.Fatalf("hooked reload = %d ran=%v", code, ran)
	}
}

// TestReloadRejectsUnboundedFlows: flows_per_epoch is the length of a loop
// the epoch runs under the fleet lock, so a reload past maxFlowsPerEpoch is
// a 400 that applies nothing, and the fleet goes on stepping.
func TestReloadRejectsUnboundedFlows(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))
	budgets := func() Budgets {
		h.fleet.mu.Lock()
		defer h.fleet.mu.Unlock()
		return h.fleet.cfg.Budgets
	}
	before := budgets()
	cfg := testConfig(1)
	cfg.Budgets.MaxLinks++ // would show if any of the body were applied
	cfg.Budgets.FlowsPerEpoch = 1_000_000_000_000
	if code, body := h.do("POST", "/reload", cfg); code != http.StatusBadRequest {
		t.Fatalf("reload with flows_per_epoch=1e12 = %d %s, want 400", code, body)
	}
	if got := budgets(); got != before {
		t.Fatalf("a refused reload changed the budgets: %+v, were %+v", got, before)
	}
	epoch := h.fleet.Snapshot().Epoch
	h.fleet.Step()
	if code, _ := h.do("GET", "/healthz", nil); h.fleet.Snapshot().Epoch != epoch+1 || code != http.StatusOK {
		t.Fatalf("fleet did not step after the refused reload: epoch %d -> %d, healthz %d", epoch, h.fleet.Snapshot().Epoch, code)
	}
	cfg.Budgets.FlowsPerEpoch = maxFlowsPerEpoch
	if code, body := h.do("POST", "/reload", cfg); code != http.StatusOK {
		t.Fatalf("reload at the limit = %d %s, want 200", code, body)
	}
}

func TestAPIBadRequests(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))
	for _, tc := range []struct {
		method, path, body string
	}{
		{"POST", "/v1/links", `{"count": "many"}`},
		{"POST", "/v1/links", `{"unknown_field": 1}`},
		{"POST", "/v1/links/batch", `{"not": "an array"}`},
		{"POST", "/v1/links/batch", ""},
		{"GET", "/v1/links?limit=-3", ""},
	} {
		req, err := http.NewRequest(tc.method, h.ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s %q = %d, want 400", tc.method, tc.path, tc.body, resp.StatusCode)
		}
	}
	// A create with an invalid design override is a 400 too.
	bad := DefaultLinkDesign()
	bad.UnitLen = 10 // not a multiple of 9
	code, _ := h.do("POST", "/v1/links", createRequest{Count: 1, Design: &bad})
	if code != http.StatusBadRequest {
		t.Fatalf("invalid design create = %d, want 400", code)
	}
}

// post sends a raw body and returns the status.
func (h *apiHarness) post(path, body string) int {
	h.t.Helper()
	resp, err := http.Post(h.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		h.t.Fatalf("POST %s: %v", path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestAPIBodyLimit: a request body past maxBodyBytes is refused with 413
// on every decoding endpoint instead of being read to its end. The
// padding is leading whitespace, so each body is valid JSON and only its
// size is wrong.
func TestAPIBodyLimit(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))
	pad := strings.Repeat(" ", maxBodyBytes)
	cfg, err := json.Marshal(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"/v1/links":           `{"count": 1}`,
		"/v1/links/batch":     `[{"action": "create"}]`,
		"/v1/links/0/degrade": `{"kill": 1}`,
		"/reload":             string(cfg),
	} {
		if code := h.post(path, pad+body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d, want 413", path, len(pad)+len(body), code)
		}
	}
	if adm := h.fleet.Admission(); adm.Admitted != 0 {
		t.Errorf("an oversize request admitted %d links", adm.Admitted)
	}
	// The same bodies inside the limit go through.
	if code := h.post("/v1/links", pad[:1000]+`{"count": 1}`); code != http.StatusCreated {
		t.Errorf("padded create inside the limit = %d, want 201", code)
	}
	if code := h.post("/reload", string(cfg)); code != http.StatusOK {
		t.Errorf("reload inside the limit = %d, want 200", code)
	}
}

// TestAPIBatchLimit: a batch over maxBatchOps is refused whole — 400, no
// op applied — while one at the limit runs.
func TestAPIBatchLimit(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))
	batch := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(`{"action":"retire","link":9},`, n), ",") + "]"
	}
	logBefore, admBefore := h.fleet.EventLog(), h.fleet.Admission()
	long := `[{"action":"create"},` + batch(maxBatchOps)[1:]
	if code := h.post("/v1/links/batch", long); code != http.StatusBadRequest {
		t.Fatalf("batch of %d ops = %d, want 400", maxBatchOps+1, code)
	}
	if got := h.fleet.EventLog(); len(got) != len(logBefore) {
		t.Errorf("refused batch wrote %d log lines", len(got)-len(logBefore))
	}
	if got := h.fleet.Admission(); got != admBefore {
		t.Errorf("refused batch moved admission: %+v -> %+v", admBefore, got)
	}
	if code := h.post("/v1/links/batch", batch(maxBatchOps)); code != http.StatusOK {
		t.Errorf("batch of exactly %d ops = %d, want 200", maxBatchOps, code)
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestAPIDesignLimits: a create whose design is over a size limit is
// refused whole — 400, nothing admitted — before any pooled step could
// build a link that size, while a design at every limit is admitted and
// served within a measured allocation bound.
func TestAPIDesignLimits(t *testing.T) {
	h := newAPIHarness(t, testConfig(1))
	over := map[string]func(d *LinkDesign){
		"lanes":              func(d *LinkDesign) { d.Lanes = 2_000_000_000 },
		"spares":             func(d *LinkDesign) { d.Spares = 2_000_000_000 },
		"lanes+spares":       func(d *LinkDesign) { d.Lanes, d.Spares, d.UnitLen = maxDesignChannels-4, 5, 9 },
		"spares overflowing": func(d *LinkDesign) { d.Spares = math.MaxInt },
		"unit_len":           func(d *LinkDesign) { d.UnitLen = 9 * 1_000_000 },
		"channels x unit_len": func(d *LinkDesign) {
			d.UnitLen = maxDesignUnitLen / 9 * 9
			d.Lanes = maxDesignFrameBodies/(d.UnitLen+10) - d.Spares + 1
		},
		"packet_len":             func(d *LinkDesign) { d.PacketLen, d.PacketsPerSF = maxDesignPacketLen+1, 1 },
		"packets_per_sf":         func(d *LinkDesign) { d.PacketsPerSF = 2_000_000_000 },
		"packets x len":          func(d *LinkDesign) { d.PacketLen, d.PacketsPerSF = 1024, maxDesignSFBytes/1024+1 },
		"horizon":                func(d *LinkDesign) { d.Horizon = 2_000_000_000 },
		"scenario-bound horizon": func(d *LinkDesign) { d.Scenario, d.Horizon = "flash-diurnal-thermal", maxDesignHorizon+1 },
	}
	admBefore := h.fleet.Admission()
	for name, mutate := range over {
		d := DefaultLinkDesign()
		mutate(&d)
		if code, body := h.do("POST", "/v1/links", createRequest{Count: 1, Design: &d}); code != http.StatusBadRequest {
			t.Errorf("%s over its limit: create = %d %s, want 400", name, code, body)
		}
	}
	if got := h.fleet.Admission(); got != admBefore {
		t.Errorf("refused designs moved admission: %+v -> %+v", admBefore, got)
	}
	if n := h.fleet.Snapshot().LiveLinks; n != 0 {
		t.Errorf("refused designs admitted %d links", n)
	}

	// At the limits: the widest design, with the longest units that
	// width allows, and the longest units, each with a superframe of
	// maximum-length packets. Both are admitted, and bringing one up and
	// serving it allocates a bounded multiple of the frame-body and
	// traffic limits, not gigabytes.
	atLimit := map[string]func(d *LinkDesign){
		"wide": func(d *LinkDesign) {
			d.UnitLen = (maxDesignFrameBodies/maxDesignChannels - 10) / 9 * 9
			d.Lanes, d.Spares = maxDesignChannels-4, 4
		},
		"long": func(d *LinkDesign) {
			d.UnitLen = maxDesignUnitLen / 9 * 9
			d.Lanes, d.Spares = maxDesignFrameBodies/(d.UnitLen+10)-2, 2
		},
	}
	// Allocated, not retained: the total caps the peak. A plain build
	// reads 45–100 MiB per design, a -race build up to about 170 MiB.
	allocBound := uint64(128 * (maxDesignFrameBodies + maxDesignSFBytes))
	if raceEnabled {
		allocBound *= 2
	}
	for name, shape := range atLimit {
		t.Run(name, func(t *testing.T) {
			d := DefaultLinkDesign()
			shape(&d)
			d.PacketLen, d.PacketsPerSF = maxDesignPacketLen, maxDesignSFBytes/maxDesignPacketLen
			d.Horizon = maxDesignHorizon
			h := newAPIHarness(t, testConfig(1))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if code, body := h.do("POST", "/v1/links", createRequest{Count: 1, Design: &d}); code != http.StatusCreated {
				t.Fatalf("design at every limit: create = %d %s, want 201", code, body)
			}
			for i := 0; i < 1+d.BringUpSF+2; i++ { // construct, bring-up, two served superframes
				h.fleet.Step()
			}
			runtime.ReadMemStats(&after)
			if info, _ := h.fleet.Inspect(0); info.SF != d.BringUpSF+2 || info.Err != "" {
				t.Errorf("design at every limit did not serve: %+v", info)
			}
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d lanes + %d spares × unit_len %d: %.1f MiB allocated", d.Lanes, d.Spares, d.UnitLen, float64(got)/(1<<20))
			if got > allocBound {
				t.Errorf("design at every limit allocated %d bytes to serve, want <= %d", got, allocBound)
			}
		})
	}
}
