package faultinject

import (
	"errors"
	"fmt"
	"math/rand"

	"mosaic/internal/eventlog"
	"mosaic/internal/phy"
	"mosaic/internal/telemetry"
)

// Config describes one soak run: a link under test, a fault schedule, the
// traffic pattern, and the maintenance cadence.
type Config struct {
	Link     *phy.Link // required; the runner drives and mutates it
	Schedule Schedule

	Superframes int // Exchange rounds to run
	FramesPerSF int // frames pushed per superframe
	FrameLen    int // bytes per frame
	Seed        int64

	// Policy is applied every MaintainEvery superframes when
	// MaintainEvery > 0; the zero policy disables proactive maintenance
	// (reactive sparing of monitor-failed channels always runs).
	Policy        phy.MaintenancePolicy
	MaintainEvery int

	// MaxLog caps the event log (0 = eventlog.DefaultMax). Injections and
	// milestones past the cap are still counted in the Result, just not
	// logged.
	MaxLog int

	// Metrics, when non-nil, receives live telemetry for the run: the
	// full per-link/per-channel metric set (telemetry.LinkCollector,
	// refreshed at every superframe boundary) plus soak-level counters
	// (injections by kind, remaps, maintenance actions, milestone
	// superframes). Telemetry is strictly write-only from the soak's
	// point of view — enabling it cannot change the event log, which the
	// determinism tests pin byte-for-byte against the telemetry-off run.
	Metrics *telemetry.Registry
}

// Result is the outcome of a soak run: the event log plus aggregate
// counters and the loss/degradation milestones the reliability story
// cares about.
type Result struct {
	Log []string `json:"log"` // deterministic event log, in superframe order

	Superframes     int `json:"superframes"`
	FramesIn        int `json:"frames_in"`
	FramesDelivered int `json:"frames_delivered"`
	FramesCorrupted int `json:"frames_corrupted"`
	FramesLost      int `json:"frames_lost"`
	UnitsLost       int `json:"units_lost"`
	Corrections     int `json:"corrections"`

	Remaps             int                  `json:"remaps"`              // hard-failure remaps (spare consumed or degrade)
	MaintenanceActions int                  `json:"maintenance_actions"` // proactive replacements
	Transitions        phy.TransitionCounts `json:"transitions"`

	// Milestones, as superframe indexes (-1 = never happened).
	FirstDropSF    int `json:"first_drop_sf"`    // first superframe that lost or corrupted a frame
	DegradedSF     int `json:"degraded_sf"`      // first superframe the link lost a lane outright
	SpareExhaustSF int `json:"spare_exhaust_sf"` // first superframe the spare pool hit zero

	LanesStart int `json:"lanes_start"`
	LanesEnd   int `json:"lanes_end"`
	SparesEnd  int `json:"spares_end"`
	// SurvivedFullWidth is true when the link never lost a lane: every
	// failure was absorbed by a spare. This is the pipeline-level
	// equivalent of the k-of-n "at most s of n channels failed" event.
	SurvivedFullWidth bool `json:"survived_full_width"`
}

// Run executes the schedule against cfg.Link and returns the event log
// and aggregate statistics. The run is deterministic: a fixed link seed,
// traffic seed, and schedule produce a byte-identical Log at any
// phy.Config.Workers value, because injections happen at superframe
// boundaries and the pipeline folds lane observations serially.
func Run(cfg Config) (*Result, error) {
	if cfg.Link == nil {
		return nil, errors.New("faultinject: Config.Link is required")
	}
	if cfg.Superframes <= 0 {
		return nil, errors.New("faultinject: need Superframes > 0")
	}
	if cfg.FramesPerSF <= 0 || cfg.FrameLen < 3 {
		return nil, errors.New("faultinject: need FramesPerSF > 0 and FrameLen >= 3")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}

	link := cfg.Link
	res := &Result{
		FirstDropSF:    -1,
		DegradedSF:     -1,
		SpareExhaustSF: -1,
		LanesStart:     link.Mapper().NumLanes(),
	}
	log := eventlog.Log{Max: cfg.MaxLog}
	defer func() { res.Log = log.Lines() }() // also on the error return

	// Fixed traffic, regenerated per run from the seed (the same frames
	// every superframe, like the determinism goldens).
	rng := rand.New(rand.NewSource(cfg.Seed))
	frames := make([][]byte, cfg.FramesPerSF)
	for i := range frames {
		frames[i] = make([]byte, cfg.FrameLen)
		rng.Read(frames[i])
	}

	// Optional telemetry: the collector owns the link/channel metric set;
	// the soak adds its own event counters. All of it is fed from this
	// goroutine at superframe boundaries, never from a scrape.
	var (
		col         *telemetry.LinkCollector
		mInject     map[Kind]*telemetry.Counter
		mRemaps     *telemetry.Counter
		mMaintain   *telemetry.Counter
		mFirstDrop  *telemetry.Gauge
		mDegraded   *telemetry.Gauge
		mExhausted  *telemetry.Gauge
		mSuperframe *telemetry.Counter
	)
	if cfg.Metrics != nil {
		col = telemetry.NewLinkCollector(cfg.Metrics, link)
		cfg.Metrics.Help("mosaic_soak_injections_total", "fault events injected, by kind")
		cfg.Metrics.Help("mosaic_soak_first_drop_superframe", "superframe of the first lost/corrupted frame (-1 = never)")
		mInject = make(map[Kind]*telemetry.Counter, 4)
		for _, k := range []Kind{KindKill, KindAging, KindBurst, KindCorrelated} {
			mInject[k] = cfg.Metrics.Counter("mosaic_soak_injections_total", "kind", string(k))
		}
		mRemaps = cfg.Metrics.Counter("mosaic_soak_remaps_total")
		mMaintain = cfg.Metrics.Counter("mosaic_soak_maintenance_actions_total")
		mSuperframe = cfg.Metrics.Counter("mosaic_soak_superframes_total")
		mFirstDrop = cfg.Metrics.Gauge("mosaic_soak_first_drop_superframe")
		mDegraded = cfg.Metrics.Gauge("mosaic_soak_degraded_superframe")
		mExhausted = cfg.Metrics.Gauge("mosaic_soak_spare_exhaust_superframe")
		mFirstDrop.SetInt(-1)
		mDegraded.SetInt(-1)
		mExhausted.SetInt(-1)
	}

	// Health transitions land in the log as they happen; sf tracks the
	// current superframe for the hook.
	sf := 0
	base := link.Monitor().Transitions()
	link.Monitor().SetTransitionHook(func(physical int, from, to phy.ChannelState) {
		log.Addf("sf=%d transition ch=%d %v->%v", sf, physical, from, to)
		if col != nil {
			col.OnTransition(physical, from, to)
		}
	})
	defer link.Monitor().SetTransitionHook(nil)

	// The Applier owns the schedule cursor plus aging-ramp and burst
	// state; the soak only observes injections (log + counters).
	applier := NewApplier(link, cfg.Schedule)
	applier.OnInject = func(e Event) {
		log.Addf("inject %v", e)
		if ctr := mInject[e.Kind]; ctr != nil {
			ctr.Inc()
		}
	}
	handled := make(map[int]bool) // physicals already spared out

	spare := func(physical int) {
		if handled[physical] {
			return
		}
		handled[physical] = true
		ev := link.FailChannel(physical)
		res.Remaps++
		log.Addf("sf=%d remap %v", sf, ev)
		if mRemaps != nil {
			mRemaps.Inc()
		}
	}

	for sf = 0; sf < cfg.Superframes; sf++ {
		// 1+2. Inject events due at this boundary, step aging ramps
		// (log-linear BER climb), and expire bursts.
		applier.Step(sf)

		// 3. One superframe of traffic.
		_, st, err := link.Exchange(frames)
		if err != nil {
			return res, fmt.Errorf("faultinject: superframe %d: %w", sf, err)
		}
		res.FramesIn += st.FramesIn
		res.FramesDelivered += st.FramesDelivered
		res.FramesCorrupted += st.FramesCorrupted
		res.FramesLost += st.FramesLost
		res.UnitsLost += st.UnitsLost
		res.Corrections += st.Corrections
		if res.FirstDropSF < 0 && st.FramesDelivered < st.FramesIn {
			res.FirstDropSF = sf
			log.Addf("sf=%d first-drop delivered=%d/%d", sf, st.FramesDelivered, st.FramesIn)
			if mFirstDrop != nil {
				mFirstDrop.SetInt(int64(sf))
			}
		}
		if col != nil {
			col.ObserveExchange(st)
			mSuperframe.Inc()
		}

		// 4. Reactive sparing: monitor-failed channels are remapped at
		// the boundary, taking effect next superframe.
		for _, p := range link.Monitor().FailedChannels() {
			spare(p)
		}

		// 5. Periodic proactive maintenance.
		if cfg.MaintainEvery > 0 && (sf+1)%cfg.MaintainEvery == 0 {
			for _, a := range link.Maintain(cfg.Policy) {
				handled[a.Physical] = true
				res.MaintenanceActions++
				log.Addf("sf=%d maintain %v", sf, a)
				if mMaintain != nil {
					mMaintain.Inc()
				}
			}
		}

		// 6. Milestones.
		if res.DegradedSF < 0 && link.Mapper().NumLanes() < res.LanesStart {
			res.DegradedSF = sf
			log.Addf("sf=%d degraded lanes=%d/%d", sf, link.Mapper().NumLanes(), res.LanesStart)
			if mDegraded != nil {
				mDegraded.SetInt(int64(sf))
			}
		}
		if res.SpareExhaustSF < 0 && link.Mapper().SparesLeft() == 0 {
			res.SpareExhaustSF = sf
			log.Addf("sf=%d spares-exhausted", sf)
			if mExhausted != nil {
				mExhausted.SetInt(int64(sf))
			}
		}

		// 7. Refresh gauges and per-channel counters at the boundary, so
		// a concurrent scrape always sees a whole-superframe view.
		if col != nil {
			col.Sync()
		}
	}

	res.Superframes = cfg.Superframes
	res.LanesEnd = link.Mapper().NumLanes()
	res.SparesEnd = link.Mapper().SparesLeft()
	res.SurvivedFullWidth = res.DegradedSF < 0
	tr := link.Monitor().Transitions()
	res.Transitions = phy.TransitionCounts{
		HealthyToDegraded: tr.HealthyToDegraded - base.HealthyToDegraded,
		DegradedToHealthy: tr.DegradedToHealthy - base.DegradedToHealthy,
		DegradedToFailed:  tr.DegradedToFailed - base.DegradedToFailed,
		HealthyToFailed:   tr.HealthyToFailed - base.HealthyToFailed,
	}
	return res, nil
}

// Summary renders the aggregate counters as a short multi-line report.
func (r *Result) Summary() string {
	mile := func(sf int) string {
		if sf < 0 {
			return "never"
		}
		return fmt.Sprintf("sf=%d", sf)
	}
	return fmt.Sprintf(
		"superframes=%d frames=%d/%d delivered (%d corrupted, %d lost), units_lost=%d, corrections=%d\n"+
			"remaps=%d maintenance=%d transitions{h>d=%d d>h=%d d>f=%d h>f=%d}\n"+
			"first-drop=%s degraded=%s spares-exhausted=%s lanes=%d->%d spares_left=%d survived_full_width=%v",
		r.Superframes, r.FramesDelivered, r.FramesIn, r.FramesCorrupted, r.FramesLost,
		r.UnitsLost, r.Corrections,
		r.Remaps, r.MaintenanceActions,
		r.Transitions.HealthyToDegraded, r.Transitions.DegradedToHealthy,
		r.Transitions.DegradedToFailed, r.Transitions.HealthyToFailed,
		mile(r.FirstDropSF), mile(r.DegradedSF), mile(r.SpareExhaustSF),
		r.LanesStart, r.LanesEnd, r.SparesEnd, r.SurvivedFullWidth)
}
