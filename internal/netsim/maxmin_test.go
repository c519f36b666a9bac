package netsim

import (
	"math"
	"sort"
)

// RefFlow is one flow in the reference max-min allocation: an ID (the
// tie-break and ordering key), the link IDs it crosses and, when read off
// an engine by refFlows, the rate the engine gave it (MaxMinRates ignores
// Rate).
type RefFlow struct {
	ID   int
	Path []int
	Rate float64
}

// MaxMinRates is the naive global reference for max-min fairness by
// progressive filling: the always-global twin the incremental and
// sharded engines are held to bit for bit (incTraceCase,
// TestLinkIndexOrderedUnderChurn).
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

// refFlows reads the flows in slots off the slab, with their rates.
func refFlows(slots []slotView) []RefFlow {
	out := make([]RefFlow, 0, len(slots))
	for _, f := range slots {
		path := make([]int, f.n)
		for j, l := range f.links() {
			path[j] = int(l)
		}
		out = append(out, RefFlow{ID: f.ID, Path: path, Rate: f.rate})
	}
	return out
}
