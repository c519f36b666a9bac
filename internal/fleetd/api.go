package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"mosaic/internal/telemetry"
	"mosaic/internal/telemetry/httpx"
)

// Server is the HTTP/JSON face of a Fleet: the admission-controlled
// operation API plus the standard operational mux (metrics, health,
// pprof) with per-epoch scrape-load shedding.
//
//	POST /v1/links                  {"count":N,"design":{...}}   admit links
//	GET  /v1/links?limit=N          list live links
//	GET  /v1/links/{id}             inspect one link (tombstones included)
//	POST /v1/links/{id}/degrade     {"kill":K}                   induce faults
//	POST /v1/links/{id}/renegotiate                              commit degraded width
//	POST /v1/links/{id}/retire                                   drain and retire
//	POST /v1/links/batch            [{"action":...},...]         a Script, applied in order
//	POST /reload                    re-validate and swap budgets/design
//	GET  /v1/fleet                  fleet snapshot (states, admission, pool)
//	GET  /healthz                   200; 503 while overloaded or draining
//
// Every mutating route but /reload is one Op through Fleet.Apply. A
// create answers 201 {"ids":[...],"shed":reason}, a per-link op 200
// {"link":id,"action":"<action>"}, a batch 200 with one
// {"ok":...,"ids":[...],"error":...} per op, a reload 200
// {"status":"reloaded"}. Errors: shed operations return 429 (with the
// reason and the shed counters bumped), illegal lifecycle edges 409,
// unknown links 404, a body over maxBodyBytes 413, malformed requests
// (an empty batch body and a batch over maxBatchOps included) 400.
type Server struct {
	fleet *Fleet
	reg   *telemetry.Registry

	// ReloadConfig, when non-nil, is invoked by POST /reload with no
	// body (and by SIGHUP via the daemon shell): it re-reads the config
	// source and calls Fleet.Reload. A request with a JSON body bypasses
	// it and reloads from the body.
	ReloadConfig func() error

	scrapeEpoch atomic.Uint64
	scrapes     atomic.Int64
}

// Request limits. Constants, not budgets: they bound what one request can
// make the server buffer, how long one batch can hold the epoch loop off
// the fleet lock, how long a reloaded flows_per_epoch can keep an epoch
// inside it, and how much one admitted link design makes a pooled step
// build, whatever the operator configured. A step's scratch holds at
// least one frame body — unit_len plus the framer's 10 header and CRC
// bytes — per channel before any traffic, so that product is bounded
// itself. Each channel also keeps its own scrambler, channel model and
// monitor state, so the channel count is capped too, at forty times the
// paper's 100-channel prototype (well inside the framer's u16 lane
// field); the unit_len limit only keeps the product from overflowing.
// Packets ride MAC frames with a u16 payload length; one superframe's
// client traffic and one fault-schedule horizon are materialised per link.
const (
	maxBodyBytes         = 1 << 20
	maxBatchOps          = 4096
	maxFlowsPerEpoch     = 1 << 16
	maxDesignChannels    = 1 << 12 // lanes + spares
	maxDesignUnitLen     = 1 << 16
	maxDesignFrameBodies = 1 << 20 // (lanes+spares) × (unit_len+10)
	maxDesignPacketLen   = 1<<16 - 1
	maxDesignSFBytes     = 1 << 20 // packets_per_sf × packet_len
	maxDesignHorizon     = 1 << 16
)

// NewServer wires a server for the fleet. reg must be the registry the
// fleet publishes into.
func NewServer(f *Fleet, reg *telemetry.Registry) *Server {
	return &Server{fleet: f, reg: reg}
}

// Handler builds the full route set on the shared operational mux.
func (s *Server) Handler() http.Handler {
	mux := httpx.NewMux(s.reg, s.healthz)
	mux.HandleFunc("POST /v1/links", s.handleCreate)
	mux.HandleFunc("GET /v1/links", s.handleList)
	mux.HandleFunc("GET /v1/links/{id}", s.handleInspect)
	mux.HandleFunc("POST /v1/links/{id}/degrade", s.handleLinkOp("degrade"))
	mux.HandleFunc("POST /v1/links/{id}/renegotiate", s.handleLinkOp("renegotiate"))
	mux.HandleFunc("POST /v1/links/{id}/retire", s.handleLinkOp("retire"))
	mux.HandleFunc("POST /v1/links/batch", s.handleBatch)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
	gated := s.scrapeGate(mux)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes) // reading past it fails the decode: 413
		gated.ServeHTTP(w, r)
	})
}

// scrapeGate sheds /metrics traffic beyond the per-epoch budget with
// 429, counting every shed. /healthz is never gated — health must stay
// observable through an overload window.
func (s *Server) scrapeGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" || r.URL.Path == "/metrics.json" {
			if !s.allowScrape() {
				s.fleet.CountScrapeShed()
				http.Error(w, "scrape budget exceeded; retry next epoch", http.StatusTooManyRequests)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// allowScrape admits a scrape against the per-epoch budget. The
// counter resets when the epoch advances; the reset race is benign
// (a scrape or two of slack, never a stuck gate).
func (s *Server) allowScrape() bool {
	snap := s.fleet.Snapshot()
	if snap.ScrapeBudget <= 0 {
		return true
	}
	if e := snap.Epoch; s.scrapeEpoch.Load() != e {
		s.scrapeEpoch.Store(e)
		s.scrapes.Store(0)
	}
	return s.scrapes.Add(1) <= snap.ScrapeBudget
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.fleet.Snapshot()
	status, code := "ok", http.StatusOK
	if snap.Overloaded {
		status, code = "overloaded", http.StatusServiceUnavailable
	}
	if snap.Draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": status,
		"fleet":  snap,
	})
}

// writeErr maps fleet errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	var shed *ShedError
	var edge *TransitionError
	var tooBig *http.MaxBytesError
	code := http.StatusBadRequest
	switch {
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &shed):
		code = http.StatusTooManyRequests
	case errors.As(err, &edge):
		code = http.StatusConflict
	case errors.Is(err, ErrUnknownLink):
		code = http.StatusNotFound
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

type createRequest struct {
	Count  int         `json:"count"`
	Design *LinkDesign `json:"design,omitempty"`
	// Scenario binds the created links to a registered scenario
	// (internal/scenario) by experiment ID or spec name: their fault
	// schedules become the scenario's witness schedule. Shorthand for
	// setting design.scenario on top of the fleet's default design.
	Scenario string `json:"scenario,omitempty"`
}

type createResponse struct {
	IDs  []int  `json:"ids"`
	Shed string `json:"shed,omitempty"` // reason, when the batch was cut short
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Scenario != "" {
		d := s.fleet.DesignOrDefault(req.Design)
		d.Scenario = req.Scenario
		req.Design = &d
	}
	ids, err := s.fleet.Apply(Op{Action: "create", Count: req.Count, Design: req.Design})
	resp := createResponse{IDs: ids}
	var shed *ShedError
	if errors.As(err, &shed) {
		resp.Shed = string(shed.Reason)
		if len(ids) == 0 {
			writeJSON(w, http.StatusTooManyRequests, resp)
			return
		}
	} else if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, errors.New("fleetd: bad limit"))
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, s.fleet.List(limit))
}

func (s *Server) linkID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, errors.New("fleetd: bad link id"))
		return 0, false
	}
	return id, true
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	id, ok := s.linkID(w, r)
	if !ok {
		return
	}
	info, ok := s.fleet.Inspect(id)
	if !ok {
		writeErr(w, ErrUnknownLink)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleLinkOp applies one per-link op from its route; only degrade
// reads a body ({"kill":K}).
func (s *Server) handleLinkOp(action string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := s.linkID(w, r)
		if !ok {
			return
		}
		op := Op{Action: action, Link: id}
		if action == "degrade" {
			var req struct {
				Kill int `json:"kill"`
			}
			if err := decodeBody(r, &req); err != nil {
				writeErr(w, err)
				return
			}
			op.Kill = req.Kill
		}
		if _, err := s.fleet.Apply(op); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"link": id, "action": action})
	}
}

// handleBatch applies a Script's ops in order, ignoring their epochs.
// Each op gets its own outcome; the response is 200 with per-op results
// (an all-shed batch still reports per-op, like partial admission does).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ops, err := DecodeScript(r.Body)
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(ops) > maxBatchOps {
		writeErr(w, fmt.Errorf("fleetd: batch of %d ops exceeds the limit of %d", len(ops), maxBatchOps))
		return
	}
	type outcome struct {
		OK    bool   `json:"ok"`
		IDs   []int  `json:"ids,omitempty"`
		Error string `json:"error,omitempty"`
	}
	results := make([]outcome, 0, len(ops))
	for _, op := range ops {
		ids, err := s.fleet.Apply(op)
		out := outcome{OK: err == nil, IDs: ids}
		if err != nil {
			out.Error = err.Error()
		}
		results = append(results, out)
	}
	writeJSON(w, http.StatusOK, results)
}

// handleReload re-validates and swaps budgets/design. With a JSON body
// the new config comes from the body; with an empty body the external
// ReloadConfig hook (the config file the daemon was started with)
// runs instead.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength == 0 {
		if s.ReloadConfig == nil {
			writeErr(w, errors.New("fleetd: no config source to reload from (send a JSON body)"))
			return
		}
		if err := s.ReloadConfig(); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "reloaded"})
		return
	}
	cfg, err := DecodeConfig(r.Body)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.fleet.Reload(cfg); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "reloaded"})
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.Snapshot())
}

func decodeBody(r *http.Request, v any) error {
	if r.ContentLength == 0 {
		return nil
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("fleetd: bad request body: %w", err)
	}
	return nil
}
