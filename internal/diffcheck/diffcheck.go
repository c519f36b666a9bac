// Package diffcheck is the differential verification harness: it drives
// the optimized PHY/MAC hot paths and the naive reference models in
// internal/refmodel over seeded random corpora and reports the first
// stage where they diverge. Every case is derived deterministically from
// (seed, case index, size scalar), so a divergence is a three-number
// repro; the runner additionally minimizes the size scalar before
// reporting, giving the smallest input that still shows the bug.
//
// The stages mirror the pipeline decomposition:
//
//	scrambler  — x^58 scrambler/descrambler vs bit-history reference
//	bsc_skip   — geometric skip-sampling channel vs bit-walking twin
//	rs_encode  — LFSR RS encoder vs root-condition linear solve
//	rs_decode  — BM/Chien/Forney decoder vs brute-force subset search
//	rs_vector  — vectorized byte-stream RS (sliced-table encode, re-encode
//	             clean check, parity-difference syndromes) vs reference byte FEC
//	framer     — channel framer hunt/FEC/CRC vs field-by-field reference
//	striper    — stripe index arithmetic vs explicit unit dealing
//	mac_frame  — MAC deframer (v1 and v2 headers) vs naive scanner
//	mac_llr    — go-back-N endpoint vs lockstep reference state machine
//	mac_sr     — selective-repeat endpoint (sack bitmaps, bounded reorder
//	             buffer) vs a naive map-based twin
//	mac_vc     — multi-virtual-channel endpoint (per-VC seq/ack spaces,
//	             weighted round-robin QoS) vs the same twin
//	pipeline   — full Exchange vs serial reference pipeline, across
//	             worker counts, noise, skew, dead channels and sparing
//	flowsim_inc — incremental dirty-set flow engine vs the always-global
//	             max-min reference, bitwise, over randomized
//	             arrival/kill/restore/degrade traces
//
// A passing deep run (make verify-deep) certifies that a perf-oriented
// change preserved bit-exact behaviour; a failing one names the stage
// and the repro seed.
package diffcheck

import (
	"encoding/json"
	"fmt"
	"os"
)

// DefaultSize is the base size scalar: stage inputs scale linearly in it.
const DefaultSize = 8

// StageNames lists every differential stage in pipeline order.
var StageNames = []string{
	"scrambler", "bsc_skip", "rs_encode", "rs_decode", "rs_vector", "framer",
	"striper", "mac_frame", "mac_llr", "mac_sr", "mac_vc", "pipeline",
	"flowsim_inc",
}

// Options configures a differential run.
type Options struct {
	Seed  int64 // corpus seed; every case derives from it
	Cases int   // cases per stage (0 = 25)
	Size  int   // base size scalar (0 = DefaultSize)
	// Workers lists the worker counts the pipeline stage must agree
	// across (nil = {1, 2, 0}; 0 means GOMAXPROCS).
	Workers []int
	// Stages restricts the run (nil = all of StageNames).
	Stages []string
	// MaxDivergences stops a stage after this many minimized divergences
	// (0 = 3); the first one is what matters, the rest are context.
	MaxDivergences int
}

func (o Options) withDefaults() Options {
	if o.Cases <= 0 {
		o.Cases = 25
	}
	if o.Size <= 0 {
		o.Size = DefaultSize
	}
	if o.Workers == nil {
		o.Workers = []int{1, 2, 0}
	}
	if o.Stages == nil {
		o.Stages = StageNames
	}
	if o.MaxDivergences <= 0 {
		o.MaxDivergences = 3
	}
	return o
}

// Divergence is one minimized disagreement between the optimized path
// and the reference model. Seed/Case/Size reproduce it exactly.
type Divergence struct {
	Stage   string `json:"stage"`
	Seed    int64  `json:"seed"`
	Case    int    `json:"case"`
	Size    int    `json:"size"`
	Workers int    `json:"workers,omitempty"` // pipeline stage only
	Detail  string `json:"detail"`
}

func (d Divergence) String() string {
	s := fmt.Sprintf("stage=%s seed=%d case=%d size=%d", d.Stage, d.Seed, d.Case, d.Size)
	if d.Stage == "pipeline" {
		s += fmt.Sprintf(" workers=%d", d.Workers)
	}
	return s + ": " + d.Detail
}

// StageResult is one stage's outcome.
type StageResult struct {
	Stage       string       `json:"stage"`
	Cases       int          `json:"cases"`
	Divergences []Divergence `json:"divergences,omitempty"`
}

// Report is a full differential run.
type Report struct {
	Seed       int64         `json:"seed"`
	Size       int           `json:"size"`
	Workers    []int         `json:"workers"`
	Stages     []StageResult `json:"stages"`
	TotalCases int           `json:"total_cases"`
	Diverged   int           `json:"diverged"`
}

// First returns the first divergence in pipeline-stage order, or nil.
func (r Report) First() *Divergence {
	for i := range r.Stages {
		if len(r.Stages[i].Divergences) > 0 {
			return &r.Stages[i].Divergences[0]
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON, the artifact format the
// CI verify-deep job uploads on failure.
func WriteJSON(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// stageFunc runs one case of one stage and returns a human-readable
// description of the divergence, or "" when the paths agree. Workers is
// meaningful only for the pipeline stage.
type stageFunc func(seed int64, caseIdx, size, workers int) string

var stageFuncs = map[string]stageFunc{
	"scrambler":   diffScrambler,
	"bsc_skip":    diffBSCSkip,
	"rs_encode":   diffRSEncode,
	"rs_decode":   diffRSDecode,
	"rs_vector":   diffRSVector,
	"framer":      diffFramer,
	"striper":     diffStriper,
	"mac_frame":   diffMACFrame,
	"mac_llr":     diffMACLLR,
	"mac_sr":      diffMACSR,
	"mac_vc":      diffMACVC,
	"pipeline":    diffPipeline,
	"flowsim_inc": diffFlowSimInc,
}

// Run executes the configured stages and returns the report. Every
// divergence is minimized: the runner re-derives the same case at
// smaller size scalars and reports the smallest one that still differs.
func Run(opts Options) Report {
	opts = opts.withDefaults()
	rep := Report{Seed: opts.Seed, Size: opts.Size, Workers: opts.Workers}
	for _, name := range opts.Stages {
		fn, ok := stageFuncs[name]
		if !ok {
			rep.Stages = append(rep.Stages, StageResult{
				Stage: name,
				Divergences: []Divergence{{
					Stage: name, Seed: opts.Seed,
					Detail: "unknown stage (valid: " + fmt.Sprint(StageNames) + ")",
				}},
			})
			rep.Diverged++
			continue
		}
		res := StageResult{Stage: name}
		workerSet := []int{0}
		if name == "pipeline" {
			workerSet = opts.Workers
		}
		for c := 0; c < opts.Cases && len(res.Divergences) < opts.MaxDivergences; c++ {
			for _, w := range workerSet {
				detail := fn(opts.Seed, c, opts.Size, w)
				res.Cases++
				if detail == "" {
					continue
				}
				res.Divergences = append(res.Divergences, minimize(name, fn, opts.Seed, c, opts.Size, w, detail))
				rep.Diverged++
				break
			}
		}
		rep.TotalCases += res.Cases
		rep.Stages = append(rep.Stages, res)
	}
	return rep
}

// minimize shrinks the size scalar of a diverging case to the smallest
// value that still diverges (the case derivation is monotone in size, so
// a linear scan from 1 finds the minimum).
func minimize(stage string, fn stageFunc, seed int64, caseIdx, size, workers int, detail string) Divergence {
	for s := 1; s < size; s++ {
		if d := fn(seed, caseIdx, s, workers); d != "" {
			return Divergence{Stage: stage, Seed: seed, Case: caseIdx, Size: s, Workers: workers, Detail: d}
		}
	}
	return Divergence{Stage: stage, Seed: seed, Case: caseIdx, Size: size, Workers: workers, Detail: detail}
}

// caseSeed folds the corpus seed and case index into one RNG seed. The
// multiplier is an arbitrary odd constant; it only needs to separate
// neighbouring cases.
func caseSeed(seed int64, caseIdx int) int64 {
	return seed + int64(caseIdx)*0x9E3779B1
}
