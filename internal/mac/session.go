package mac

import (
	"errors"
	"fmt"

	"mosaic/internal/eventlog"
	"mosaic/internal/faultinject"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
	"mosaic/internal/telemetry"
)

// SessionConfig describes one MAC session: a full-duplex pair, client
// traffic A->B, and a fault schedule replayed against the forward link.
type SessionConfig struct {
	Fwd *phy.Link // required; carries data, receives the faults
	Rev *phy.Link // required; carries acks back

	Pair PairConfig // endpoint/framing knobs; PayloadBudget 0 = derived

	// Schedule is replayed against Fwd with faultinject semantics
	// (kill/aging/burst/correlated, superframe-indexed).
	Schedule faultinject.Schedule

	Superframes  int      // steps to run (required > 0)
	Interval     sim.Time // simulated time one step advances the session clock (required > 0)
	PacketsPerSF int      // client packets queued at A per tick (on VC 0)
	PacketLen    int      // bytes per client packet (required > 0)
	Seed         int64    // client payload seed

	// VCPackets, when non-empty, replaces PacketsPerSF: VCPackets[vc]
	// client packets are queued on each virtual channel per tick. Length
	// must not exceed the endpoint VC count.
	VCPackets []int

	// BurstEvery/BurstPackets model periodic incast: every BurstEvery
	// superframes (when > 0), BurstPackets extra packets land on VC 0 in
	// the same tick, on top of the steady traffic.
	BurstEvery   int
	BurstPackets int

	// Bridge, when non-nil, is Synced at the end of every tick; its
	// renegotiations land in the event log.
	Bridge *Bridge

	// Metrics, when non-nil, receives MAC endpoint metrics ("a", "b"),
	// the full per-link set for Fwd, and bridge renegotiation state, all
	// pushed at tick boundaries. Write-only: enabling it cannot change
	// the event log.
	Metrics *telemetry.Registry
}

// Session is an in-flight MAC run, stepped one superframe at a time:
// Run loops Step to the end; a co-simulation calls Step from its own
// clock every Interval and reads Result when Step reports false.
type Session struct {
	cfg     SessionConfig
	pair    *Pair
	sup     *faultinject.Supervisor
	packets [][]byte
	col     *collector

	sf       int
	now      sim.Time // sf * Interval, accumulated the way an event clock would
	prevRetx uint64
	err      error

	log eventlog.Log
}

// Result summarizes a finished session.
type Result struct {
	Log []string `json:"log"`

	Superframes int    `json:"superframes"`
	Err         string `json:"err,omitempty"`

	A Stats `json:"a"` // sender-side endpoint
	B Stats `json:"b"` // receiver-side endpoint

	// AVCs/BVCs break the endpoint counters down per virtual channel
	// (index = VC number).
	AVCs []VCStats `json:"a_vcs,omitempty"`
	BVCs []VCStats `json:"b_vcs,omitempty"`

	LanesStart     int     `json:"lanes_start"`
	LanesEnd       int     `json:"lanes_end"`
	SparesEnd      int     `json:"spares_end"`
	Renegotiations uint64  `json:"renegotiations"`
	Fraction       float64 `json:"fraction"`
}

// NewSession validates cfg and wires the pair, the link supervisor (which
// holds Fwd's monitor hook until the last step) and the optional
// bridge/telemetry. Nothing runs until Step or Run.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Fwd == nil || cfg.Rev == nil {
		return nil, errors.New("mac: SessionConfig needs Fwd, Rev")
	}
	if cfg.Superframes <= 0 || cfg.Interval <= 0 {
		return nil, errors.New("mac: need Superframes > 0 and Interval > 0")
	}
	perTick := cfg.PacketsPerSF
	if len(cfg.VCPackets) > 0 {
		perTick = 0
		for vc, n := range cfg.VCPackets {
			if n < 0 {
				return nil, fmt.Errorf("mac: VCPackets[%d] = %d < 0", vc, n)
			}
			perTick += n
		}
	}
	if perTick <= 0 || cfg.PacketLen <= 0 {
		return nil, errors.New("mac: need PacketsPerSF (or VCPackets) > 0 and PacketLen > 0")
	}
	if cfg.BurstEvery < 0 || cfg.BurstPackets < 0 {
		return nil, errors.New("mac: BurstEvery/BurstPackets must be >= 0")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	pc := cfg.Pair
	vcs := pc.Endpoint.VCs
	if vcs == 0 {
		vcs = 1
	}
	if len(cfg.VCPackets) > vcs {
		return nil, fmt.Errorf("mac: VCPackets names %d VCs but the endpoint has %d", len(cfg.VCPackets), vcs)
	}
	burst := 0
	if cfg.BurstEvery > 0 {
		burst = cfg.BurstPackets
	}
	pc.Endpoint.SizeFor(perTick, burst, cfg.PacketLen)

	pair, err := NewPair(cfg.Fwd, cfg.Rev, pc, nil, nil)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, pair: pair}

	// Fixed client traffic, regenerated from the seed (the same packets
	// every tick, like the soak harness). The pool covers the steady
	// per-tick load plus one incast burst.
	s.packets = phy.SeededFrames(cfg.Seed, perTick+burst, cfg.PacketLen)

	if cfg.Metrics != nil {
		s.col = newCollector(cfg.Metrics, pair)
	}

	// The supervisor logs health transitions as they happen.
	s.sup = faultinject.Supervise(cfg.Fwd, &s.log, cfg.Metrics)
	s.sup.Load(cfg.Schedule, 0)
	s.sup.OnInject = func(e faultinject.Event) {
		s.log.Addf("inject %v", e)
	}
	if cfg.Bridge != nil && cfg.Bridge.OnRenegotiate == nil {
		cfg.Bridge.OnRenegotiate = func(lanes int, frac float64) {
			s.log.Addf("sf=%d renegotiate t=%v lanes=%d frac=%.4f", s.sf, s.now, lanes, frac)
		}
	}
	return s, nil
}

// Run steps the session to its end and returns the result.
func (s *Session) Run() *Result {
	for s.Step() {
	}
	return s.Result()
}

// queueTraffic queues this tick's client packets at A: either
// PacketsPerSF on VC 0 or the per-VC VCPackets pattern, plus a periodic
// incast burst on VC 0. Returns false on a send error (session aborts).
func (s *Session) queueTraffic() bool {
	i := 0
	send := func(vc, n int) bool {
		for k := 0; k < n; k++ {
			if err := s.pair.A.SendVC(vc, s.packets[i]); err != nil {
				s.err = err
				s.log.Addf("sf=%d send error: %v", s.sf, err)
				return false
			}
			i++
		}
		return true
	}
	if len(s.cfg.VCPackets) > 0 {
		for vc, n := range s.cfg.VCPackets {
			if !send(vc, n) {
				return false
			}
		}
	} else if !send(0, s.cfg.PacketsPerSF) {
		return false
	}
	if s.cfg.BurstEvery > 0 && s.sf%s.cfg.BurstEvery == 0 {
		s.log.Addf("sf=%d incast burst +%d", s.sf, s.cfg.BurstPackets)
		if !send(0, s.cfg.BurstPackets) {
			return false
		}
	}
	return true
}

// Step runs one superframe, Interval later on the session clock than the
// last: inject faults, queue client packets, move the pair one round
// trip, spare out failed channels, log milestones, renegotiate capacity,
// and push telemetry. It reports whether another step remains; the step
// that ends the session (the last, or one that errs) hands Fwd's monitor
// hook back, so a link reused by a later session carries no stale hook,
// and every Step after it is a no-op.
func (s *Session) Step() bool {
	if s.err != nil || s.sf >= s.cfg.Superframes {
		return false
	}
	s.now += s.cfg.Interval
	s.sup.Begin(s.sf)

	if !s.queueTraffic() {
		s.sup.Close()
		return false
	}
	if err := s.pair.Tick(); err != nil {
		s.err = err
		s.log.Addf("sf=%d exchange error: %v", s.sf, err)
		s.sup.Close()
		return false
	}

	// Reactive sparing at the boundary.
	s.sup.Spare()

	// Retransmission activity (the LLR doing its job) is log-worthy.
	if a := s.pair.A.Stats(); a.Retransmits > s.prevRetx {
		s.log.Addf("sf=%d retx +%d (total=%d inflight=%d)",
			s.sf, a.Retransmits-s.prevRetx, a.Retransmits, a.InFlight)
		s.prevRetx = a.Retransmits
	}

	s.sup.End(s.pair.FwdStats)

	s.sf++
	more := s.sf < s.cfg.Superframes
	if !more {
		s.sup.Close()
	}

	// The boundary's last step: renegotiate to the post-remap width. It
	// runs after the milestones and the increment, so a renegotiate line
	// closes its superframe's block and names the superframe about to
	// start; and before the push, so telemetry sees this tick's width.
	if s.cfg.Bridge != nil {
		s.cfg.Bridge.Sync()
	}

	if s.col != nil {
		s.col.sync(s.pair, s.cfg.Bridge)
	}
	return more
}

// Result snapshots the session; it is final once Step has reported false.
func (s *Session) Result() *Result {
	r := &Result{
		Log:         s.log.Lines(),
		Superframes: s.sf,
		A:           s.pair.A.Stats(),
		B:           s.pair.B.Stats(),
		LanesStart:  s.sup.LanesStart(),
		LanesEnd:    s.cfg.Fwd.Mapper().NumLanes(),
		SparesEnd:   s.cfg.Fwd.Mapper().SparesLeft(),
		Fraction:    1,
	}
	for vc := 0; vc < s.pair.A.NumVCs(); vc++ {
		r.AVCs = append(r.AVCs, s.pair.A.VCSnapshot(vc))
	}
	for vc := 0; vc < s.pair.B.NumVCs(); vc++ {
		r.BVCs = append(r.BVCs, s.pair.B.VCSnapshot(vc))
	}
	if s.err != nil {
		r.Err = s.err.Error()
	}
	if s.cfg.Bridge != nil {
		r.Renegotiations = s.cfg.Bridge.Renegotiations()
		r.Fraction = s.cfg.Bridge.Fraction()
	}
	return r
}

// Summary renders the aggregate counters as a short multi-line report.
func (r *Result) Summary() string {
	return fmt.Sprintf(
		"superframes=%d delivered=%d/%d queued (dups=%d disc=%d reord=%d)\n"+
			"retx=%d timeouts=%d stalls=%d pure_acks=%d crc_rejects=%d resync_bytes=%d\n"+
			"lanes=%d->%d spares_left=%d renegotiations=%d fraction=%.4f",
		r.Superframes, r.B.Delivered, r.A.PacketsQueued, r.B.Duplicates, r.B.Discarded, r.B.Reordered,
		r.A.Retransmits, r.A.Timeouts, r.A.CreditStalls, r.B.AcksTx+r.A.AcksTx,
		r.B.Deframe.CRCRejects, r.B.Deframe.SkippedBytes,
		r.LanesStart, r.LanesEnd, r.SparesEnd, r.Renegotiations, r.Fraction)
}
