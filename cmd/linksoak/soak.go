package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"

	"mosaic/cmd/internal/linkflags"
	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/scenario"
	"mosaic/internal/telemetry"
)

// Soak is linksoak's command line: the shared link and MAC blocks, the
// soak shape, the fault source, the one-shot outputs and the two other
// modes, -trials and -serve.
type Soak struct {
	*linkflags.Link
	*linkflags.MAC

	Lanes, UnitLen, Workers       int
	Superframes, Frames, FrameLen int
	Hazard                        float64
	MaintainEvery, KeepSpares     int
	SpareAbove                    float64

	SchedPath, ScenName, DumpPath, MetricsPath string
	JSON                                       bool

	Trials, Rounds int
	Serve          string
	MaxRetxRate    float64
}

// AddSoak registers linksoak's flags on fs.
func AddSoak(fs *flag.FlagSet) *Soak {
	s := &Soak{Link: linkflags.AddLink(fs), MAC: linkflags.AddMAC(fs)}
	fs.IntVar(&s.Lanes, "lanes", 100, "active data lanes")
	fs.IntVar(&s.UnitLen, "unit", 243, "stripe unit length in bytes (multiple of 9)")
	fs.IntVar(&s.Workers, "workers", 0, "PHY lane workers (0 = all cores; results identical at any value)")
	fs.IntVar(&s.Superframes, "superframes", 120, "superframes (Exchange rounds) per soak")
	fs.IntVar(&s.Frames, "frames", 24, "frames (with -mac: client packets) per superframe")
	fs.IntVar(&s.FrameLen, "framesize", 1500, "bytes per frame")
	fs.Float64Var(&s.Hazard, "hazard", 0, "per-superframe channel death probability of the random-kill schedule")
	fs.IntVar(&s.MaintainEvery, "maintain-every", 10, "superframes between proactive maintenance passes (0 = never)")
	fs.IntVar(&s.KeepSpares, "keep-spares", 1, "spares held back for hard failures")
	fs.Float64Var(&s.SpareAbove, "spare-above", 1e-6, "proactive remap threshold (estimated BER)")

	fs.StringVar(&s.SchedPath, "schedule", "", "JSON fault schedule to replay (default: -scenario witness, -hazard random kills, else the default scenario)")
	fs.StringVar(&s.ScenName, "scenario", "", "registered scenario whose witness fault schedule to replay (experiment ID like E26 or spec name; see mosaicbench -list)")
	fs.StringVar(&s.DumpPath, "dump", "", "write the schedule that was run to this file")
	fs.StringVar(&s.MetricsPath, "metrics", "", "write a telemetry snapshot to this file after the soak (.json suffix = JSON, else Prometheus text); see -serve for live HTTP exposition")
	fs.BoolVar(&s.JSON, "json", false, "emit the result as JSON")

	fs.IntVar(&s.Trials, "trials", 0, "run a survival study of N trials instead of one soak")
	fs.StringVar(&s.Serve, "serve", "", "soak round after round and serve /metrics, /metrics.json and /healthz on this address (e.g. :9090)")
	fs.IntVar(&s.Rounds, "rounds", 0, "with -serve: soak rounds to run (0 = forever); serving continues after the last round")
	fs.Float64Var(&s.MaxRetxRate, "max-retx-rate", 0.5, "with -serve: /healthz returns 503 while the windowed LLR retransmit rate exceeds this fraction (0 disables)")
	return s
}

// ignores reports whether the mode the flags select would ignore flag
// name: a -trials study reads only its own flags, -serve writes no file
// and prints no result, and a one-shot soak runs no rounds and answers
// no health check.
func (s *Soak) ignores(name string) (mode string, ignored bool) {
	switch {
	case s.Trials > 0:
		return "-trials", !slices.Contains([]string{"trials", "lanes", "spares", "hazard", "superframes", "seed", "workers", "json"}, name)
	case s.Serve != "":
		return "-serve", name == "dump" || name == "json" || name == "metrics"
	}
	return "a one-shot soak", name == "rounds" || name == "max-retx-rate"
}

// Resolve refuses a flag set on fs that the selected mode ignores and a
// -hazard that is not a probability, and looks -fec and -arq up; call it
// after fs.Parse.
func (s *Soak) Resolve(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		mode, ignored := s.ignores(f.Name)
		switch {
		case err != nil || !ignored:
		case f.Name == "fec": // only -trials ignores it
			err = errors.New("-fec does not apply to -trials: the survival study counts raw channel deaths and always runs without FEC")
		default:
			err = fmt.Errorf("-%s does not apply to %s", f.Name, mode)
		}
	})
	if err != nil {
		return err
	}
	if !(s.Hazard >= 0 && s.Hazard <= 1) {
		return fmt.Errorf("-hazard %g must be in [0, 1]", s.Hazard)
	}
	if err := s.Link.Resolve(); err != nil {
		return err
	}
	return s.MAC.Resolve()
}

// Channels is the physical channel count, lanes plus spares.
func (s *Soak) Channels() int { return s.Lanes + s.Spares }

// Links is the link under test and, with -mac, its reverse direction
// (nil for a bare-PHY soak).
type Links struct{ Fwd, Rev *phy.Link }

// NewLinks builds a fresh module. The reverse link is seeded Seed+1 so
// the two directions draw independent error streams.
func (s *Soak) NewLinks() (l Links, err error) {
	cfg := phy.Config{
		Lanes:             s.Lanes,
		Spares:            s.Spares,
		FEC:               s.FEC,
		UnitLen:           s.UnitLen,
		PerChannelBitRate: 2e9,
		Seed:              s.Seed,
		Workers:           s.Workers,
	}
	if l.Fwd, err = phy.New(cfg); err != nil || !s.MAC.Enabled {
		return l, err
	}
	cfg.Seed++
	l.Rev, err = phy.New(cfg)
	return l, err
}

// buildSchedule picks the fault script of the round drawn with seed: an
// explicit file, a library scenario's witness schedule, seeded random
// kills when -hazard is set, or the default showcase scenario.
func (s *Soak) buildSchedule(seed int64) (faultinject.Schedule, error) {
	if s.SchedPath != "" {
		return faultinject.LoadFile(s.SchedPath)
	}
	if s.ScenName != "" {
		entry, ok := scenario.Lookup(s.ScenName)
		if !ok {
			return faultinject.Schedule{}, fmt.Errorf("unknown scenario %q (see mosaicbench -list)", s.ScenName)
		}
		return scenario.Witness(entry.Spec, s.Channels(), s.Superframes, seed)
	}
	if s.Hazard > 0 {
		sched := faultinject.RandomKills(rand.New(rand.NewSource(seed)), s.Channels(), s.Hazard, s.Superframes)
		sched.Seed = seed
		return sched, nil
	}
	return faultinject.DefaultScenario(s.Channels(), s.Superframes)
}

// Report is what one soak round leaves behind in either mode.
type Report struct {
	Result  any // *faultinject.Result or *mac.Result, for JSON output
	Log     []string
	Summary string
}

// Round replays sched for one soak round: against l.Fwd alone through
// faultinject.Run, or with -mac against the forward link of a full MAC
// session (the selected ARQ discipline over the configured virtual
// channels, capacity bridge attached) whose acks return over l.Rev. A
// nil Report means the round could not start; a Report with an error is
// the partial round up to the superframe that failed.
func (s *Soak) Round(l Links, sched faultinject.Schedule, reg *telemetry.Registry) (*Report, error) {
	if !s.MAC.Enabled {
		res, err := faultinject.Run(faultinject.Config{
			Link:          l.Fwd,
			Schedule:      sched,
			Superframes:   s.Superframes,
			FramesPerSF:   s.Frames,
			FrameLen:      s.FrameLen,
			Seed:          s.Seed,
			Policy:        phy.MaintenancePolicy{SpareAboveBER: s.SpareAbove, KeepSpares: s.KeepSpares},
			MaintainEvery: s.MaintainEvery,
			Metrics:       reg,
		})
		if res == nil {
			return nil, err
		}
		return &Report{res, res.Log, res.Summary()}, err
	}
	var pc mac.PairConfig
	vcPackets := s.MAC.Endpoint(&pc.Endpoint, s.Frames)
	sess, err := mac.NewSession(mac.SessionConfig{
		Fwd:          l.Fwd,
		Rev:          l.Rev,
		Pair:         pc,
		Schedule:     sched,
		Superframes:  s.Superframes,
		Interval:     1e-5,
		PacketsPerSF: s.Frames,
		VCPackets:    vcPackets,
		PacketLen:    s.FrameLen,
		Seed:         s.Seed,
		Bridge:       mac.NewBridge(l.Fwd),
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	res := sess.Run()
	if res.Err != "" {
		err = errors.New(res.Err)
	}
	return &Report{res, res.Log, res.Summary()}, err
}
