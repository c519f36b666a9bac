package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"mosaic/internal/netsim/workload"
)

// A workload generator draws the flows it offers the fleet each epoch.
// Like environments, every runner draws from its own RNG stream seeded
// from spec seed × component content and never reads the engine, and
// batches are injected in canonical component order, so the injected flow
// sequence (IDs, sizes, hashes) is independent of how the spec's arrays
// were ordered — and a runner may draw an epoch ahead of the engine.
type workloadRunner interface {
	// draw appends epoch e's arrivals over hosts hosts to out, in
	// injection order.
	draw(e, hosts int, out []arrival) []arrival
}

// arrival is one drawn flow: source and destination host indices, size
// and ECMP hash.
type arrival struct {
	src, dst int
	bits     float64
	hash     uint64
}

// newWorkloadRunner builds the runner for a resolved workload component.
func newWorkloadRunner(r resolved, topo TopoSpec, epochs int) workloadRunner {
	rng := rand.New(rand.NewSource(r.seed))
	switch r.comp.Kind {
	case KindAllReduce:
		return &allreduceWL{
			rng:    rng,
			groups: pickGroups(rng, topo.Hosts(), r.comp.Groups, r.comp.GroupSize),
			rounds: r.comp.RoundsPerEpoch, bits: r.comp.FlowBits,
		}
	case KindAllToAll:
		return &alltoallWL{
			rng:    rng,
			groups: pickGroups(rng, topo.Hosts(), r.comp.Groups, r.comp.GroupSize),
			period: r.comp.PeriodEpochs, bits: r.comp.FlowBits,
		}
	case KindIncast:
		return &incastWL{
			rng:   rng,
			fanIn: r.comp.FanIn, period: r.comp.PeriodEpochs, bits: r.comp.FlowBits,
		}
	case KindStorage:
		return &storageWL{
			rng:    rng,
			writes: r.comp.WritesPerEpoch, fanout: r.comp.Fanout, bits: r.comp.FlowBits,
		}
	case KindDiurnal:
		dist := workload.WebSearch()
		return &diurnalWL{
			rng: rng, epochs: epochs,
			peak: r.comp.PeakLoad, scale: r.comp.MeanBits / dist.MeanBits(),
			dist: dist, flash: r.comp.Flash,
		}
	}
	panic(fmt.Sprintf("scenario: no runner for workload kind %q", r.comp.Kind))
}

// pickGroups partitions a seeded host permutation into `groups`
// consecutive chunks of `size` — fixed collective membership for the
// whole run, the way training jobs pin their workers.
func pickGroups(rng *rand.Rand, hosts, groups, size int) [][]int {
	perm := permHead(rng, hosts, groups*size)
	out := make([][]int, 0, groups)
	for g := 0; g < groups; g++ {
		out = append(out, perm[g*size:(g+1)*size])
	}
	return out
}

// permHead returns rng.Perm(n)[:k] and leaves rng where rng.Perm(n) would:
// it makes the same n Intn(i+1) draws but keeps only positions < k. In
// Perm's inside-out shuffle a value only ever moves to a higher position,
// so nothing past k can come back into the head.
func permHead(rng *rand.Rand, n, k int) []int {
	head := make([]int, k)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < k {
			head[i] = head[j]
		}
		if j < k {
			head[j] = i
		}
	}
	return head
}

// allreduceWL emits ring all-reduce traffic: every epoch, rounds×
// (per group) each member sends a chunk to its ring successor. Group
// membership is fixed at construction.
type allreduceWL struct {
	rng    *rand.Rand
	groups [][]int
	rounds int
	bits   float64
}

func (w *allreduceWL) draw(e, hosts int, out []arrival) []arrival {
	for r := 0; r < w.rounds; r++ {
		for _, g := range w.groups {
			for i := range g {
				out = append(out, arrival{g[i], g[(i+1)%len(g)], w.bits, w.rng.Uint64()})
			}
		}
	}
	return out
}

// alltoallWL emits a full-mesh exchange inside each group every
// `period` epochs: N(N-1) flows of bits/(N-1) each, the shuffle phase
// of expert-parallel or reduce-scatter collectives.
type alltoallWL struct {
	rng    *rand.Rand
	groups [][]int
	period int
	bits   float64
}

func (w *alltoallWL) draw(e, hosts int, out []arrival) []arrival {
	if e%w.period != 0 {
		return out
	}
	for _, g := range w.groups {
		per := w.bits / float64(len(g)-1)
		for i := range g {
			for j := range g {
				if i != j {
					out = append(out, arrival{g[i], g[j], per, w.rng.Uint64()})
				}
			}
		}
	}
	return out
}

// incastWL emits a periodic fan-in burst: every `period` epochs, fanIn
// distinct senders all target one receiver at once — the classic
// partition-aggregate incast that stresses the receiver's edge link.
type incastWL struct {
	rng    *rand.Rand
	fanIn  int
	period int
	bits   float64
}

func (w *incastWL) draw(e, hosts int, out []arrival) []arrival {
	if e%w.period != 0 {
		return out
	}
	perm := permHead(w.rng, hosts, w.fanIn+1)
	for _, src := range perm[1:] {
		out = append(out, arrival{src, perm[0], w.bits, w.rng.Uint64()})
	}
	return out
}

// storageWL emits replication fan-out: each epoch, `writes` writes land
// on random primaries and each primary pushes a copy to `fanout`
// distinct replicas.
type storageWL struct {
	rng    *rand.Rand
	writes int
	fanout int
	bits   float64
}

func (w *storageWL) draw(e, hosts int, out []arrival) []arrival {
	for n := 0; n < w.writes; n++ {
		perm := permHead(w.rng, hosts, w.fanout+1)
		for _, replica := range perm[1:] {
			out = append(out, arrival{perm[0], replica, w.bits, w.rng.Uint64()})
		}
	}
	return out
}

// diurnalWL emits user-facing load on a diurnal raised cosine: at epoch
// e of E the per-host arrival rate is peak·(1-cos(2πe/E))/2 flows per
// epoch, with WebSearch-distributed sizes rescaled to the requested
// mean. An optional flash crowd multiplies the load inside its window.
type diurnalWL struct {
	rng    *rand.Rand
	epochs int
	peak   float64
	scale  float64
	dist   workload.SizeDist
	flash  *FlashSpec
}

func (w *diurnalWL) draw(e, hosts int, out []arrival) []arrival {
	load := w.peak * (1 - math.Cos(2*math.Pi*float64(e)/float64(w.epochs))) / 2
	if f := w.flash; f != nil && e >= f.AtEpoch && e < f.AtEpoch+f.Epochs {
		load *= f.Mult
	}
	n := int(load * float64(hosts))
	for i := 0; i < n; i++ {
		src := w.rng.Intn(hosts)
		dst := w.rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		bits := w.dist.SampleBits(w.rng) * w.scale
		out = append(out, arrival{src, dst, bits, w.rng.Uint64()})
	}
	return out
}
