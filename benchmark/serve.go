package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"mosaic/internal/fleetd"
	"mosaic/internal/telemetry"
)

const (
	serveBaseLinks  = 2000 // admitted in set-up, must all survive
	serveRound      = 50   // epochs per round at scale 1
	serveWarmup     = 16   // scripted epochs run inside set-up
	serveChurn      = 4    // links created per epoch ...
	serveChurnAge   = 8    // ... and retired this many epochs later
	serveKillsPerEp = 2    // degrade calls per epoch
	serveVictimEps  = 2    // consecutive epochs a victim is hit: 4 kills, two past its spares
	serveInspectLag = 32   // epochs until a victim is looked at again
	serveBringupMax = 200
)

// serve is mosaicfleetd's soak configuration behind its HTTP API on a
// loopback listener. One goroutine plays every client and the epoch
// ticker in turn: it issues the epoch's API calls over one keep-alive
// connection, waits for each reply, then steps the fleet. Serialising
// the shell this way is what makes the event log, and so sim_digest,
// reproducible.
type serve struct {
	fleet  *fleetd.Fleet
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	client *http.Client
	base   string
	tr     *tracer // tracer of the epoch in progress, nil when it is untraced
	err    error   // first transport error of the HTTP client

	nbase   int
	epochs  int // epochs per round
	epoch   int // scripted epochs run so far
	offset  int // victim order: (offset + k*stride) mod nbase
	stride  int //
	churn   [][]int
	bringup int

	apiCalls, apiBad int64
	lastBad          string
	liveLinkEpochs   int64
	scrapeBytes      []float64
	firstLog         []string

	// Counts over round 0, a fixed amount of work whatever the run length.
	logLinesRound0, tasksRound0, stealsRound0 int
}

func setupServe(e env, tr *tracer) (instance, error) {
	w := &serve{nbase: e.scaled(serveBaseLinks, 32), epochs: e.scaled(serveRound, 8)}
	cfg := fleetd.DefaultConfig()
	cfg.Seed = e.seed
	cfg.Workers = e.procs
	cfg.Budgets.MaxLinks = w.nbase + 256 // churn headroom
	cfg.Budgets.AdmitBurst = float64(w.nbase + 256)
	cfg.Budgets.AdmitPerEpoch = 64
	cfg.Budgets.StepBudget = 128
	cfg.Budgets.ScrapePerEpoch = 0
	cfg.Design.Hazard = 0.0001
	reg := telemetry.NewRegistry()
	fleet, err := fleetd.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	w.fleet = fleet

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.srv = &http.Server{Handler: fleetd.NewServer(fleet, reg).Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.srv.Serve(ln) // returns ErrServerClosed on close()
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}

	// Victim order: a seed-chosen walk over the base links that visits
	// each exactly once.
	w.offset = int(uint64(e.seed) % uint64(w.nbase))
	w.stride = 1 + int(uint64(e.seed)*2654435761%uint64(w.nbase))
	for gcd(w.stride, w.nbase) != 1 {
		w.stride++
	}

	id := tr.begin("fleetd.create")
	ids, err := fleet.Create(w.nbase, nil)
	tr.end(id)
	if err != nil || len(ids) != w.nbase {
		w.close()
		return nil, fmt.Errorf("base admission: %d of %d links, err=%v", len(ids), w.nbase, err)
	}
	for {
		snap := fleet.Snapshot()
		if snap.States["serving"]+snap.States["degraded"] >= w.nbase {
			break
		}
		if w.bringup++; w.bringup > serveBringupMax {
			w.close()
			return nil, fmt.Errorf("bring-up stalled after %d epochs: %v", serveBringupMax, snap.States)
		}
		fleet.Step()
	}
	for i := 0; i < serveWarmup; i++ {
		if err := w.scriptedEpoch(); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (w *serve) victim(k int) int { return (w.offset + k*w.stride) % w.nbase }

// call issues one API request, waits for the whole reply, and checks the
// status against what the script expects. A transport error sticks in
// w.err and turns the calls after it into no-ops; scriptedEpoch returns
// it.
func (w *serve) call(span, method, path, body string, want int) []byte {
	if w.err != nil {
		return nil
	}
	id := w.tr.begin(span)
	defer w.tr.end(id)
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		w.err = err
		return nil
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		w.err = err
		return nil
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		w.err = err
		return nil
	}
	w.apiCalls++
	if resp.StatusCode != want {
		w.bad("%s %s = %d, want %d: %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(b)))
	}
	return b
}

// bad counts one API reply outside what the script expects.
func (w *serve) bad(format string, args ...any) {
	w.apiBad++
	w.lastBad = fmt.Sprintf(format, args...)
}

// scriptedEpoch is one epoch of client traffic followed by Step.
func (w *serve) scriptedEpoch() error {
	e := w.epoch
	w.epoch++

	// Admission churn: four links in, the four from eight epochs ago out.
	b := w.call("api.create", "POST", "/v1/links", fmt.Sprintf(`{"count":%d}`, serveChurn), http.StatusCreated)
	var created struct {
		IDs []int `json:"ids"`
	}
	if w.err == nil && (json.Unmarshal(b, &created) != nil || len(created.IDs) != serveChurn) {
		w.bad("create admitted %d of %d: %s", len(created.IDs), serveChurn, strings.TrimSpace(string(b)))
	}
	w.churn = append(w.churn, created.IDs)
	if len(w.churn) > serveChurnAge {
		for _, id := range w.churn[0] {
			w.call("api.retire", "POST", fmt.Sprintf("/v1/links/%d/retire", id), "", http.StatusOK)
		}
		w.churn = w.churn[1:]
	}

	// Faults: each victim takes two kills in each of two consecutive
	// epochs, which uses up its spares and costs it two lanes. Once every
	// base link has had its turn the script stops degrading.
	if v := e / serveVictimEps; v < w.nbase {
		for k := 0; k < serveKillsPerEp; k++ {
			w.call("api.degrade", "POST", fmt.Sprintf("/v1/links/%d/degrade", w.victim(v)), `{"kill":1}`, http.StatusOK)
		}
	}
	// Look at the victim of serveInspectLag epochs ago; by now the step
	// budget's rotor has served it, so it reports degraded once.
	target := 0
	if v := (e - serveInspectLag) / serveVictimEps; e >= serveInspectLag && v < w.nbase {
		target = w.victim(v)
	}
	b = w.call("api.inspect", "GET", fmt.Sprintf("/v1/links/%d", target), "", http.StatusOK)
	var info fleetd.LinkInfo
	if w.err == nil && json.Unmarshal(b, &info) != nil {
		w.bad("inspect reply does not parse: %s", strings.TrimSpace(string(b)))
	}
	if info.State == fleetd.StateDegraded.String() {
		w.call("api.renegotiate", "POST", fmt.Sprintf("/v1/links/%d/renegotiate", target), "", http.StatusOK)
	}

	w.call("api.healthz", "GET", "/healthz", "", http.StatusOK)
	if e%4 == 0 {
		b := w.call("api.scrape", "GET", "/metrics", "", http.StatusOK)
		w.scrapeBytes = append(w.scrapeBytes, float64(len(b)))
	}
	if e%16 == 0 {
		b := w.call("api.list", "GET", "/v1/links", "", http.StatusOK)
		var links []fleetd.LinkInfo
		if w.err == nil && (json.Unmarshal(b, &links) != nil || len(links) < w.nbase) {
			w.bad("list returned %d links, want at least %d", len(links), w.nbase)
		}
	}
	if w.err != nil {
		return w.err
	}

	id := w.tr.begin("fleetd.step")
	w.fleet.Step()
	w.tr.end(id)
	w.liveLinkEpochs += int64(w.fleet.Snapshot().LiveLinks)
	return nil
}

func (w *serve) round(r int, m *meter) error {
	var lines0 int
	var ps0 fleetd.PoolStats
	if r == 0 {
		lines0 = len(w.fleet.EventLog())
		ps0 = w.fleet.PoolStats()
	}
	for i := 0; i < w.epochs; i++ {
		before := w.liveLinkEpochs
		w.tr = m.begin()
		err := w.scriptedEpoch()
		w.tr = nil
		m.end(float64(w.liveLinkEpochs - before))
		if err != nil {
			return err
		}
	}
	if r == 0 {
		w.firstLog = w.fleet.EventLog()
		w.logLinesRound0 = len(w.firstLog) - lines0
		ps := w.fleet.PoolStats()
		w.tasksRound0, w.stealsRound0 = int(ps.Tasks-ps0.Tasks), int(ps.Steals-ps0.Steals)
	}
	return nil
}

func (w *serve) check(r int) ([]byte, error) {
	var err error
	if w.apiBad > 0 {
		err = fmt.Errorf("%d API replies outside the script, last: %s", w.apiBad, w.lastBad)
	}
	if r != 0 {
		return nil, err
	}
	return []byte(strings.Join(w.firstLog, "\n")), err
}

// droppedBase counts base links that are no longer carrying traffic.
func (w *serve) droppedBase() int64 {
	var dropped int64
	for id := 0; id < w.nbase; id++ {
		switch s, ok := w.fleet.StateOf(id); {
		case !ok:
			dropped++
		case s != fleetd.StateServing && s != fleetd.StateDegraded && s != fleetd.StateRenegotiating:
			dropped++
		}
	}
	return dropped
}

func (w *serve) finish(res *result, ix *spanIndex) error {
	dropped := w.droppedBase()
	res.Attempted = w.apiCalls + int64(w.nbase)
	res.Failed = w.apiBad + dropped
	if dropped > 0 {
		res.problem("%d of %d base links dropped", dropped, w.nbase)
	}
	if ix == nil {
		return nil
	}
	adm := w.fleet.Admission()
	create := ix.byName["fleetd.create"]
	res.setTiming("fleetd.create_us_per_link", median(create)/1e3/float64(w.nbase), len(create))
	res.set("fleetd.bringup_epochs", float64(w.bringup))

	steps := ix.byName["fleetd.step"]
	res.setTiming("fleetd.step_ms_p50", median(steps)/1e6, len(steps))
	res.setTail("fleetd.step_ms_tail", steps, 1e6)
	// Live links per traced epoch: the run's mean is close enough to
	// turn a step time into a per-link cost.
	livePerEpoch := safeDiv(float64(w.liveLinkEpochs), float64(w.epoch))
	res.set("fleetd.step_us_per_live_link", safeDiv(median(steps)/1e3, livePerEpoch))

	var api []float64
	var apiNS float64
	for _, op := range []string{"create", "degrade", "renegotiate", "retire", "inspect", "list", "healthz", "scrape"} {
		d := ix.byName["api."+op]
		api = append(api, d...)
		apiNS += sum(d)
		switch op {
		case "healthz":
			res.setTiming("telemetry.healthz_us_p50", median(d)/1e3, len(d))
		case "scrape":
			res.setTiming("telemetry.scrape_us_p50", median(d)/1e3, len(d))
		default:
			res.setTiming("fleetd.api_"+op+"_us_p50", median(d)/1e3, len(d))
		}
	}
	res.setTail("fleetd.api_us_tail", api, 1e3)
	res.set("fleetd.api_share_of_epoch", safeDiv(apiNS, ix.total("op")))
	res.set("telemetry.scrape_kb", median(w.scrapeBytes)/1e3)

	res.set("fleetd.pool_tasks_per_epoch", float64(w.tasksRound0)/float64(w.epochs))
	res.set("fleetd.pool_steals_per_epoch", float64(w.stealsRound0)/float64(w.epochs))
	res.set("fleetd.eventlog_lines_per_epoch", float64(w.logLinesRound0)/float64(w.epochs))
	res.set("fleetd.shed_ratio", safeDiv(float64(adm.Sheds()), float64(adm.Admitted+adm.Sheds())))
	res.set("fleetd.dropped_links", float64(dropped))
	return nil
}

func (w *serve) close() {
	w.client.CloseIdleConnections()
	_ = w.srv.Close()
	<-w.served
}
