package netsim

import (
	"math/rand"

	"mosaic/internal/netsim/workload"
	"mosaic/internal/sim"
)

// OfferPoisson drives n open-loop arrivals into fs from time 0: each one
// picks a uniform src != dst host pair, a size from dist and an ECMP hash
// from rng, starts the flow, then draws the gap to its successor from
// arr. One arrival is scheduled at a time, so rng's draw order is the
// arrival order and interleaves deterministically with whatever else the
// engine runs. The returned counter is the number of arrivals that found
// no live route (an endpoint stranded by a dead access link); it is
// final once the engine has drained.
func (fs *FlowSim) OfferPoisson(n int, dist workload.SizeDist, arr workload.PoissonArrivals, rng *rand.Rand) *int {
	hosts := fs.Topo.Hosts()
	unroutable := new(int)
	var schedule func(i int, at sim.Time)
	schedule = func(i int, at sim.Time) {
		if i >= n {
			return
		}
		fs.Engine.Schedule(at, func() {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			if _, err := fs.StartFlow(src, dst, dist.SampleBits(rng), rng.Uint64()); err != nil {
				*unroutable++
			}
			schedule(i+1, at+sim.Time(arr.NextGapSec(rng)))
		})
	}
	schedule(0, 0)
	return unroutable
}
