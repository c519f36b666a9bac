package refmodel

import (
	"math"
	"sort"
)

// RefFlow is one flow in the reference max-min allocation: an ID (the
// tie-break and ordering key) and the link IDs it crosses.
type RefFlow struct {
	ID   int
	Path []int
}

// MaxMinRates is the naive global reference for max-min fairness by
// progressive filling — today's FlowSim algorithm, kept as
// the always-global twin the incremental/sharded engine is diffed
// against (diffcheck stage flowsim_inc).
//
// Semantics: repeatedly find the link with the smallest remaining
// capacity per unfrozen flow (lowest link index on a tie), freeze every
// unfrozen flow crossing it at that fair share in ascending flow-ID
// order, subtract, and repeat until no link carries an unfrozen flow.
// Flows with an empty path get rate 0 — they are unconstrained here and
// netsim treats them the same way.
//
// The iteration order is fixed (links ascending, flows ascending by ID)
// so the floating-point result is bit-for-bit reproducible; the
// optimized engine must match it exactly, not just within an epsilon.
func MaxMinRates(capacity []float64, flows []RefFlow) map[int]float64 {
	rates := make(map[int]float64, len(flows))
	ordered := make([]RefFlow, len(flows))
	copy(ordered, flows)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })

	remCap := make([]float64, len(capacity))
	copy(remCap, capacity)
	unfrozen := make([]int, len(capacity))
	frozen := make(map[int]bool, len(flows))
	for _, f := range ordered {
		rates[f.ID] = 0
		for _, l := range f.Path {
			unfrozen[l]++
		}
	}

	for {
		bottleneck := -1
		best := math.Inf(1)
		for l := range remCap {
			if unfrozen[l] == 0 {
				continue
			}
			if fair := remCap[l] / float64(unfrozen[l]); fair < best {
				best = fair
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			return rates
		}
		for _, f := range ordered {
			if frozen[f.ID] {
				continue
			}
			crosses := false
			for _, l := range f.Path {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			rates[f.ID] = best
			for _, l := range f.Path {
				remCap[l] -= best
				if remCap[l] < 0 {
					remCap[l] = 0
				}
				unfrozen[l]--
			}
			frozen[f.ID] = true
		}
	}
}
