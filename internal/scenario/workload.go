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
// Every runner draws from one goSource; bounds holds the bounded-draw
// constants of every m up to the host count, which is all its draws need.
func newWorkloadRunner(r resolved, topo TopoSpec, epochs int) workloadRunner {
	src := newGoSource(r.seed)
	bounds := newBounds(topo.Hosts())
	switch r.comp.Kind {
	case KindAllReduce:
		return &allreduceWL{
			src:    src,
			groups: pickGroups(src, bounds, r.comp.Groups, r.comp.GroupSize),
			rounds: r.comp.RoundsPerEpoch, bits: r.comp.FlowBits,
		}
	case KindAllToAll:
		return &alltoallWL{
			src:    src,
			groups: pickGroups(src, bounds, r.comp.Groups, r.comp.GroupSize),
			period: r.comp.PeriodEpochs, bits: r.comp.FlowBits,
		}
	case KindIncast:
		return &incastWL{
			src: src, bounds: bounds, head: make([]int, r.comp.FanIn+1),
			period: r.comp.PeriodEpochs, bits: r.comp.FlowBits,
		}
	case KindStorage:
		return &storageWL{
			src: src, bounds: bounds, head: make([]int, r.comp.Fanout+1),
			writes: r.comp.WritesPerEpoch, bits: r.comp.FlowBits,
		}
	case KindDiurnal:
		dist := workload.WebSearch()
		return &diurnalWL{
			src: src, rng: rand.New(src), bounds: bounds, epochs: epochs,
			peak: r.comp.PeakLoad, scale: r.comp.MeanBits / dist.MeanBits(),
			dist: dist, flash: r.comp.Flash,
		}
	}
	panic(fmt.Sprintf("scenario: no runner for workload kind %q", r.comp.Kind))
}

// pickGroups partitions a seeded permutation of the len(bounds) hosts
// into `groups` consecutive chunks of `size` — fixed collective
// membership for the whole run, the way training jobs pin their workers.
func pickGroups(src *goSource, bounds []bound, groups, size int) [][]int {
	perm := make([]int, groups*size)
	permHead(src, bounds, perm)
	out := make([][]int, 0, groups)
	for g := 0; g < groups; g++ {
		out = append(out, perm[g*size:(g+1)*size])
	}
	return out
}

// permHead writes rand.Perm(n)[:len(head)] to head, n = len(bounds), and
// leaves src where rand.Perm(n) would: it makes the same n Intn(i+1)
// draws but keeps only positions < len(head). In Perm's inside-out
// shuffle a value only ever moves to a higher position, so nothing past
// the head can come back into it.
func permHead(src *goSource, bounds []bound, head []int) {
	k := len(head)
	for i, b := range bounds {
		v := src.int31() // src.int31n(b), spelled out: its loop puts it over the inliner's budget
		for v > b.max {
			v = src.int31()
		}
		j := b.mod(v)
		if i < k {
			head[i] = head[j]
		}
		if j < k {
			head[j] = i
		}
	}
}

// allreduceWL emits ring all-reduce traffic: every epoch, rounds×
// (per group) each member sends a chunk to its ring successor. Group
// membership is fixed at construction.
type allreduceWL struct {
	src    *goSource
	groups [][]int
	rounds int
	bits   float64
}

func (w *allreduceWL) draw(e, hosts int, out []arrival) []arrival {
	for r := 0; r < w.rounds; r++ {
		for _, g := range w.groups {
			for i := range g {
				out = append(out, arrival{g[i], g[(i+1)%len(g)], w.bits, w.src.Uint64()})
			}
		}
	}
	return out
}

// alltoallWL emits a full-mesh exchange inside each group every
// `period` epochs: N(N-1) flows of bits/(N-1) each, the shuffle phase
// of expert-parallel or reduce-scatter collectives.
type alltoallWL struct {
	src    *goSource
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
					out = append(out, arrival{g[i], g[j], per, w.src.Uint64()})
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
	src    *goSource
	bounds []bound
	head   []int // receiver, then the fanIn senders
	period int
	bits   float64
}

func (w *incastWL) draw(e, hosts int, out []arrival) []arrival {
	if e%w.period != 0 {
		return out
	}
	permHead(w.src, w.bounds[:hosts], w.head)
	for _, src := range w.head[1:] {
		out = append(out, arrival{src, w.head[0], w.bits, w.src.Uint64()})
	}
	return out
}

// storageWL emits replication fan-out: each epoch, `writes` writes land
// on random primaries and each primary pushes a copy to `fanout`
// distinct replicas.
type storageWL struct {
	src    *goSource
	bounds []bound
	head   []int // primary, then the fanout replicas
	writes int
	bits   float64
}

func (w *storageWL) draw(e, hosts int, out []arrival) []arrival {
	for n := 0; n < w.writes; n++ {
		permHead(w.src, w.bounds[:hosts], w.head)
		for _, replica := range w.head[1:] {
			out = append(out, arrival{w.head[0], replica, w.bits, w.src.Uint64()})
		}
	}
	return out
}

// diurnalWL emits user-facing load on a diurnal raised cosine: at epoch
// e of E the per-host arrival rate is peak·(1-cos(2πe/E))/2 flows per
// epoch, with WebSearch-distributed sizes rescaled to the requested
// mean. An optional flash crowd multiplies the load inside its window.
type diurnalWL struct {
	src    *goSource
	rng    *rand.Rand // over src, for the size samples
	bounds []bound
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
		src := w.src.int31n(w.bounds[hosts-1])
		dst := w.src.int31n(w.bounds[hosts-2])
		if dst >= src {
			dst++
		}
		bits := w.dist.SampleBits(w.rng) * w.scale
		out = append(out, arrival{src, dst, bits, w.src.Uint64()})
	}
	return out
}
