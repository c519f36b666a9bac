package faultinject

import (
	"errors"
	"math"
	"math/rand"

	"mosaic/internal/phy"
	"mosaic/internal/reliability"
)

// SurvivalConfig shapes a survival study: many independent soak trials of
// a lanes+spares link under seeded random channel deaths, scored against
// the closed-form k-of-n prediction.
type SurvivalConfig struct {
	Lanes  int
	Spares int
	// HazardPerSF is each channel's per-superframe death probability
	// (accelerated-aging time base: one superframe stands in for one
	// device-hour of a real mission).
	HazardPerSF float64
	Superframes int
	Trials      int
	Seed        int64
	Workers     int // phy worker cap; results are identical at any value
}

// The study's traffic: 8 x 120 B per superframe over 63-byte stripe units
// gives every lane of a <=20-lane link at least one unit per superframe,
// which the monitor needs to detect a dead channel.
const (
	survivalFramesPerSF = 8
	survivalFrameLen    = 120
	survivalUnitLen     = 63
)

// SurvivalResult compares the pipeline-measured survival fraction with
// the closed-form binomial k-of-n prediction.
type SurvivalResult struct {
	Trials   int
	Survived int // trials where the link never lost a lane

	SimSurvival float64 // Survived / Trials
	ClosedForm  float64 // reliability.SparedSystem binomial CDF
	Tolerance   float64 // 4-sigma Monte-Carlo band (plus a small floor)

	MeanRemaps    float64 // hard-failure remaps per trial
	DroppedTrials int     // trials that lost or corrupted at least one frame
	MeanFirstDrop float64 // mean first-drop superframe over DroppedTrials (-1 if none)
}

// Agrees reports whether the simulated survival matches the closed form
// within the Monte-Carlo tolerance band.
func (r SurvivalResult) Agrees() bool {
	return math.Abs(r.SimSurvival-r.ClosedForm) <= r.Tolerance
}

// ClosedFormSurvival returns the k-of-n binomial survival probability for
// n channels with per-superframe hazard p over T superframes, expressed
// through reliability.SparedSystem so the soak validates the exact code
// path experiment E7 uses: one superframe maps to one hour, so the
// per-channel rate is lambda = -ln(1-p) per hour.
func ClosedFormSurvival(lanes, spares int, hazardPerSF float64, superframes int) float64 {
	sys := reliability.SparedSystem{
		N:          lanes + spares,
		Spares:     spares,
		PerChannel: reliability.FIT(-math.Log(1-hazardPerSF) * 1e9),
	}
	return sys.SurvivalProb(float64(superframes))
}

// SurvivalStudy runs cfg.Trials independent soak trials, each over a
// fresh link and a fresh RandomKills schedule, and cross-validates the
// fraction that kept full lane width against the closed form. Trials are
// seeded individually from cfg.Seed, so the study is deterministic and
// trivially shardable.
func SurvivalStudy(cfg SurvivalConfig) (SurvivalResult, error) {
	if cfg.Lanes <= 0 || cfg.Spares < 0 || cfg.Trials <= 0 {
		return SurvivalResult{}, errors.New("faultinject: need lanes > 0, spares >= 0, trials > 0")
	}
	if cfg.HazardPerSF <= 0 || cfg.HazardPerSF >= 1 || cfg.Superframes <= 0 {
		return SurvivalResult{}, errors.New("faultinject: need 0 < hazard < 1 and superframes > 0")
	}

	res := SurvivalResult{Trials: cfg.Trials, MeanFirstDrop: -1}
	var remaps, firstDropSum int
	for trial := 0; trial < cfg.Trials; trial++ {
		trialSeed := cfg.Seed + int64(trial)*15485863
		link, err := phy.New(phy.Config{
			Lanes:             cfg.Lanes,
			Spares:            cfg.Spares,
			FEC:               phy.NoFEC{},
			UnitLen:           survivalUnitLen,
			PerChannelBitRate: 2e9,
			Seed:              trialSeed,
			Workers:           cfg.Workers,
		})
		if err != nil {
			return res, err
		}
		sched := RandomKills(rand.New(rand.NewSource(trialSeed+1)),
			cfg.Lanes+cfg.Spares, cfg.HazardPerSF, cfg.Superframes)
		// Kills land inside cfg.Superframes; the extra drain superframes
		// let a late death's detect->remap chain resolve (a promoted dead
		// spare costs one superframe per chain link), so "kept full
		// width" is exactly the k-of-n event the closed form predicts.
		r, err := Run(Config{
			Link:        link,
			Schedule:    sched,
			Superframes: cfg.Superframes + cfg.Spares + 2,
			FramesPerSF: survivalFramesPerSF,
			FrameLen:    survivalFrameLen,
			Seed:        trialSeed + 2,
			MaxLog:      1, // counters only; the logs of 100s of trials are noise
		})
		if err != nil {
			return res, err
		}
		if r.SurvivedFullWidth {
			res.Survived++
		}
		remaps += r.Remaps
		if r.FirstDropSF >= 0 {
			res.DroppedTrials++
			firstDropSum += r.FirstDropSF
		}
	}

	res.SimSurvival = float64(res.Survived) / float64(res.Trials)
	res.ClosedForm = ClosedFormSurvival(cfg.Lanes, cfg.Spares, cfg.HazardPerSF, cfg.Superframes)
	sigma := math.Sqrt(res.ClosedForm * (1 - res.ClosedForm) / float64(res.Trials))
	res.Tolerance = 4*sigma + 0.01
	res.MeanRemaps = float64(remaps) / float64(res.Trials)
	if res.DroppedTrials > 0 {
		res.MeanFirstDrop = float64(firstDropSum) / float64(res.DroppedTrials)
	}
	return res, nil
}
