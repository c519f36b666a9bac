package faultinject

import (
	"errors"
	"fmt"

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

// The soak's own records, beside the supervisor's.
var (
	recInject    = eventlog.NewKind("inject %v", eventlog.Rec)
	recFirstDrop = eventlog.NewKind("sf=%d first-drop delivered=%d/%d", eventlog.Int, eventlog.Int, eventlog.Int)
	recMaintain  = eventlog.NewKind("sf=%d maintain %v", eventlog.Int, eventlog.Rec)
)

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
	res := &Result{FirstDropSF: -1, DegradedSF: -1, SpareExhaustSF: -1}
	log := eventlog.Log{Max: cfg.MaxLog}
	defer func() { res.Log = log.Lines() }() // also on the error return

	// Fixed traffic, regenerated per run from the seed (the same frames
	// every superframe, like the determinism goldens).
	frames := phy.SeededFrames(cfg.Seed, cfg.FramesPerSF, cfg.FrameLen)

	// The supervisor owns the schedule, the monitor hook, reactive sparing,
	// the lane/spare milestones and the per-link telemetry feed; the soak
	// series mirror a view of the Result on top. All telemetry is fed from
	// this goroutine at superframe boundaries, never from a scrape.
	sup := Supervise(link, &log, cfg.Metrics)
	defer sup.Close()
	sup.Load(cfg.Schedule, 0)
	res.LanesStart = sup.LanesStart()
	base := link.Monitor().Transitions()

	view := soakView{Result: res, inject: make(map[Kind]uint64, 4)}
	var m *telemetry.Mirror[soakView]
	if cfg.Metrics != nil {
		m = telemetry.NewMirror(cfg.Metrics, soakRows)
		m.Sync(&view)
	}
	sup.OnInject = func(e Event) {
		e.Record(log.Add(recInject))
		view.inject[e.Kind]++
	}

	for sf := 0; sf < cfg.Superframes; sf++ {
		sup.Begin(sf)

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
			log.Add(recFirstDrop).Int(sf).Int(st.FramesDelivered).Int(st.FramesIn)
		}

		res.Remaps += sup.Spare()

		// Periodic proactive maintenance.
		if cfg.MaintainEvery > 0 && (sf+1)%cfg.MaintainEvery == 0 {
			for _, a := range link.Maintain(cfg.Policy) {
				res.MaintenanceActions++
				a.Record(log.Add(recMaintain).Int(sf))
			}
		}

		sup.End(st)
		res.DegradedSF, res.SpareExhaustSF = sup.Milestones()
		view.done++
		if m != nil {
			m.Sync(&view)
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

// soakView is what the soak series read: the run's Result, the
// superframes done so far, and the injections by kind.
type soakView struct {
	*Result
	done   uint64
	inject map[Kind]uint64
}

var soakRows = []telemetry.Row[soakView]{
	{Name: "mosaic_soak_injections_total", Help: "fault events injected, by kind", Labels: []string{"kind", string(KindKill)}, Count: func(v *soakView) uint64 { return v.inject[KindKill] }},
	{Name: "mosaic_soak_injections_total", Labels: []string{"kind", string(KindAging)}, Count: func(v *soakView) uint64 { return v.inject[KindAging] }},
	{Name: "mosaic_soak_injections_total", Labels: []string{"kind", string(KindBurst)}, Count: func(v *soakView) uint64 { return v.inject[KindBurst] }},
	{Name: "mosaic_soak_injections_total", Labels: []string{"kind", string(KindCorrelated)}, Count: func(v *soakView) uint64 { return v.inject[KindCorrelated] }},
	{Name: "mosaic_soak_remaps_total", Count: func(v *soakView) uint64 { return uint64(v.Remaps) }},
	{Name: "mosaic_soak_maintenance_actions_total", Count: func(v *soakView) uint64 { return uint64(v.MaintenanceActions) }},
	{Name: "mosaic_soak_superframes_total", Count: func(v *soakView) uint64 { return v.done }},
	{Name: "mosaic_soak_first_drop_superframe", Help: "superframe of the first lost/corrupted frame (-1 = never)", Level: func(v *soakView) float64 { return float64(v.FirstDropSF) }},
	{Name: "mosaic_soak_degraded_superframe", Level: func(v *soakView) float64 { return float64(v.DegradedSF) }},
	{Name: "mosaic_soak_spare_exhaust_superframe", Level: func(v *soakView) float64 { return float64(v.SpareExhaustSF) }},
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
