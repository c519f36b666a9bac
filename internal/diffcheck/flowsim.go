package diffcheck

import (
	"fmt"
	"math/rand"

	"mosaic/internal/netsim"
	"mosaic/internal/refmodel"
	"mosaic/internal/sim"
)

// diffFlowSimInc drives the incremental flow engine (FlowSim: ID-ordered
// per-link flow indices, dirty-set component waterfill, finish times read
// off the slab) through a randomized trace of arrivals, link
// kills/restores, capacity fractions and time advances, closed by a kill
// → restore → kill on one link, and after every mutation compares
// every active flow's rate bit-for-bit against refmodel.MaxMinRates — the
// always-global progressive-filling twin. Exact equality (not epsilon) is
// the contract: the component-restricted waterfill performs the same
// float operations in the same order as a global fill restricted to that
// component, so any difference is a real bug, not rounding.
func diffFlowSimInc(seed int64, caseIdx, size, workers int) string {
	_ = workers
	rng := rand.New(rand.NewSource(caseSeed(seed, caseIdx) ^ 0x0f10351b))

	// Alternate topology families so both the single-domain and the
	// pods-plus-core link structures are covered.
	var (
		topo *netsim.Topology
		err  error
	)
	if caseIdx%2 == 0 {
		topo, err = netsim.NewLeafSpine(2+rng.Intn(size), 1+rng.Intn(2+size/4), 1+rng.Intn(3), 100e9)
	} else {
		topo, err = netsim.NewFleet(2+rng.Intn(2), 1+rng.Intn(size), 1+rng.Intn(2+size/4), 1+rng.Intn(3), 100e9)
	}
	if err != nil {
		return fmt.Sprintf("topology: %v", err)
	}
	hosts := topo.Hosts()
	if len(hosts) < 2 {
		return ""
	}

	fs := netsim.NewFlowSim(topo)

	steps := 6 * size
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(100); {
		case op < 45: // arrival
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			_, _ = fs.StartFlow(src, dst, (0.1+rng.Float64())*1e9, rng.Uint64())
		case op < 60: // advance time, let completions fire
			fs.RunUntil(fs.Now() + sim.Time(rng.Float64()*0.02))
		case op < 72: // kill a link
			fs.FailLink(rng.Intn(len(topo.Links)))
		case op < 84: // restore a link
			fs.RestoreLink(rng.Intn(len(topo.Links)))
		default: // degrade a link
			fs.SetLinkCapacityFraction(rng.Intn(len(topo.Links)), rng.Float64())
		}
		if detail := compareIncToRef(fs); detail != "" {
			return fmt.Sprintf("step %d: %s", s, detail)
		}
	}

	// Kill → restore → kill on one link: each kill re-admits old IDs onto
	// links whose indices already hold younger flows, and the restore lets
	// new arrivals back onto the victim before it dies again.
	victim := rng.Intn(len(topo.Links))
	for i, frac := range []float64{0, 1, 0} {
		fs.SetLinkCapacityFraction(victim, frac)
		detail := compareIncToRef(fs)
		for range size {
			_, _ = fs.StartFlow(hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))], (0.1+rng.Float64())*1e9, rng.Uint64())
		}
		if detail == "" {
			detail = compareIncToRef(fs)
		}
		if detail != "" {
			return fmt.Sprintf("kill/restore/kill step %d on link %d: %s", i, victim, detail)
		}
	}
	return ""
}

// compareIncToRef recomputes the global reference allocation for the
// engine's current flow set and demands bitwise rate equality.
func compareIncToRef(fs *netsim.FlowSim) string {
	states := fs.FlowStates()
	flows := make([]refmodel.RefFlow, len(states))
	for i, st := range states {
		flows[i] = refmodel.RefFlow{ID: st.ID, Path: st.Path}
	}
	want := refmodel.MaxMinRates(fs.Capacities(), flows)
	for _, st := range states {
		if st.Rate != want[st.ID] {
			return fmt.Sprintf("flow %d (%d active): incremental rate %.17g != refmodel %.17g",
				st.ID, len(states), st.Rate, want[st.ID])
		}
	}
	return ""
}
