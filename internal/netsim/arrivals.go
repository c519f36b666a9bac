package netsim

import (
	"math/rand"

	"mosaic/internal/netsim/workload"
	"mosaic/internal/sim"
)

// poissonSource is a simulator's open-loop source as plain data: how many
// arrivals are left, when the next is due, and what draws it.
type poissonSource struct {
	left       int
	at         sim.Time
	dist       workload.SizeDist
	arr        workload.PoissonArrivals
	rng        *rand.Rand
	hosts      []int
	unroutable int
}

// OfferPoisson arms n open-loop arrivals on fs, the first due now: each
// one picks a uniform src != dst host pair, a size from dist and an ECMP
// hash from rng, starts the flow, then draws the gap to its successor
// from arr. Only the next arrival is ever pending, so rng's draw order is
// the arrival order whatever the caller does between advances. The
// returned counter is the number of arrivals that found no live route (an
// endpoint stranded by a dead access link); it is final once Run has
// returned. A simulator has one source: a second call panics.
func (fs *FlowSim) OfferPoisson(n int, dist workload.SizeDist, arr workload.PoissonArrivals, rng *rand.Rand) *int {
	if fs.src != nil {
		panic("netsim: OfferPoisson called twice on one FlowSim; it drives a single open-loop source")
	}
	fs.src = &poissonSource{left: n, at: fs.now, dist: dist, arr: arr, rng: rng, hosts: fs.Topo.Hosts()}
	return &fs.src.unroutable
}

// arrive fires the pending arrival at fs.now and draws the next one.
func (fs *FlowSim) arrive() {
	s := fs.src
	src := s.hosts[s.rng.Intn(len(s.hosts))]
	dst := s.hosts[s.rng.Intn(len(s.hosts))]
	for dst == src {
		dst = s.hosts[s.rng.Intn(len(s.hosts))]
	}
	if _, err := fs.StartFlow(src, dst, s.dist.SampleBits(s.rng), s.rng.Uint64()); err != nil {
		s.unroutable++
	}
	s.left--
	s.at += sim.Time(s.arr.NextGapSec(s.rng))
}
