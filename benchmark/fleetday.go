package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mosaic/internal/faultinject"
	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
)

// The E24 shape (internal/experiments/e24.go), driven directly on the
// flow engine: a 12-pod fleet, every link aging, and a diurnal arrival
// curve that peaks at 1.8x the access capacity. Day d of a run uses seed
// seed+d, so at scale 1 day 0 reproduces E24's epoch event log.
const (
	dayPods         = 12
	dayLeaves       = 10
	daySpines       = 6
	dayHostsPerLeaf = 8
	dayLinkRate     = 100e9
	dayEpochs       = 24
	dayMeanBits     = 3e9
	dayPeakLoad     = 1.8
	dayCrossFrac    = 0.10
	dayMeanDecay    = 0.003
	daySparingFloor = 0.7
	dayWarmupEpochs = 8 // the early hours, run once inside set-up
)

// daySim is one day's engine and inputs.
type daySim struct {
	topo  *netsim.Topology
	fs    *netsim.FleetSim
	aging *faultinject.FleetAging
	rng   *rand.Rand
	hosts []int
	dist  *workload.Empirical

	peakActive, peakCross int // concurrent flows, read after each hour's arrivals
	admitted              int
	invariantErr          error // from the last epoch's resolved point
}

type fleetDay struct {
	e   env
	day *daySim // the day the last round ran, kept for check

	admitted, records, stalled, lost int64
	rated, waterfills                uint64
	peakActive, peakCross            int
	epochs                           int
	firstLog                         []string
	firstRecords                     int

	// The same counts over traced epochs only: span times divide by these.
	traced struct {
		arrivals int64
		rated    uint64
	}
}

func newDaySim(e env, seed int64, tr *tracer) (*daySim, error) {
	id := tr.begin("netsim.topology_build")
	topo, err := netsim.NewFleet(dayPods, dayLeaves, daySpines, dayHostsPerLeaf, dayLinkRate)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	fs := netsim.NewFleetSim(topo, e.procs)
	tr.end(id)
	aging, err := faultinject.NewFleetAging(seed+1, len(topo.Links), dayMeanDecay, daySparingFloor)
	if err != nil {
		return nil, err
	}
	return &daySim{
		topo: topo, fs: fs, aging: aging,
		rng:   rand.New(rand.NewSource(seed + 2)),
		hosts: topo.Hosts(),
		dist:  workload.WebSearch(),
	}, nil
}

// epoch runs epoch ep of the day: publish every link's aged fraction,
// inject the hour's arrivals, step. It returns arrivals offered and
// admitted.
func (d *daySim) epoch(ep int, scale float64, tr *tracer) (offered, admitted int) {
	id := tr.begin("netsim.setfrac")
	for l := range d.topo.Links {
		d.fs.SetLinkFraction(l, d.aging.Fraction(l, ep))
	}
	tr.end(id)

	const hostsPerPod = dayLeaves * dayHostsPerLeaf
	sizeScale := dayMeanBits / d.dist.MeanBits()
	load := dayPeakLoad / 2 * (1 - math.Cos(2*math.Pi*float64(ep)/dayEpochs))
	n := int(scale*load*float64(len(d.hosts))*dayLinkRate/dayMeanBits + 0.5)
	id = tr.begin("netsim.inject")
	for i := 0; i < n; i++ {
		src := d.rng.Intn(len(d.hosts))
		var dst int
		if d.rng.Float64() < dayCrossFrac {
			pod := (src/hostsPerPod + 1 + d.rng.Intn(dayPods-1)) % dayPods
			dst = pod*hostsPerPod + d.rng.Intn(hostsPerPod)
		} else {
			dst = (src/hostsPerPod)*hostsPerPod + d.rng.Intn(hostsPerPod)
			if dst == src {
				dst = (src/hostsPerPod)*hostsPerPod + (src+1)%hostsPerPod
			}
		}
		if _, err := d.fs.Inject(d.hosts[src], d.hosts[dst], d.dist.SampleBits(d.rng)*sizeScale, d.rng.Uint64()); err == nil {
			admitted++
		}
	}
	tr.end(id)
	d.peakActive = max(d.peakActive, d.fs.ActiveFlows())
	d.peakCross = max(d.peakCross, d.fs.CrossFlows())

	// The engine's conservation and max-min properties hold at the
	// resolved point inside Step, not after it; check the day's last epoch.
	if ep == dayEpochs-1 {
		d.fs.SetResolvedHook(func() { d.invariantErr = d.fs.CheckInvariants() })
	}
	id = tr.begin("netsim.step")
	d.fs.Step(1)
	tr.end(id)
	d.admitted += admitted
	return n, admitted
}

func setupFleetDay(e env, tr *tracer) (instance, error) {
	d, err := newDaySim(e, e.seed, nil)
	if err != nil {
		return nil, err
	}
	for ep := 0; ep < dayWarmupEpochs; ep++ {
		d.epoch(ep, e.scale, nil)
	}
	return &fleetDay{e: e}, nil
}

func (w *fleetDay) round(r int, m *meter) error {
	d, err := newDaySim(w.e, w.e.seed+int64(r), m.tr)
	if err != nil {
		return err
	}
	w.day = d
	for ep := 0; ep < dayEpochs; ep++ {
		tr := m.begin()
		rated := d.fs.RatedFlows()
		offered, admitted := d.epoch(ep, w.e.scale, tr)
		m.end(float64(admitted))
		if tr != nil {
			w.traced.arrivals += int64(offered)
			w.traced.rated += d.fs.RatedFlows() - rated
		}
		w.admitted += int64(admitted)
		w.epochs++
	}
	w.peakActive = max(w.peakActive, d.peakActive)
	w.peakCross = max(w.peakCross, d.peakCross)
	id := m.tr.begin("netsim.records")
	recs := d.fs.Records()
	m.tr.end(id)
	w.records += int64(len(recs))
	for _, rec := range recs {
		if rec.Stalled {
			w.stalled++
		}
	}
	// Every admitted flow is either recorded (done or stalled) or still
	// active when the day ends; anything else the engine lost.
	if miss := d.admitted - len(recs) - d.fs.ActiveFlows(); miss != 0 {
		w.lost += int64(max(miss, -miss))
	}
	w.rated += d.fs.RatedFlows()
	w.waterfills += d.fs.Waterfills()
	if r == 0 {
		w.firstLog = d.fs.EventLog()
		w.firstRecords = len(recs)
	}
	return nil
}

func (w *fleetDay) check(r int) ([]byte, error) {
	err := w.day.invariantErr
	if err != nil {
		err = fmt.Errorf("day %d: %w", r, err)
	}
	if r != 0 {
		return nil, err
	}
	return []byte(fmt.Sprintf("%s\nrecords=%d", strings.Join(w.firstLog, "\n"), w.firstRecords)), err
}

func (w *fleetDay) finish(res *result, ix *spanIndex) error {
	// Unroutable and stalled flows are the model's answer to links that
	// aged out, a simulated outcome (netsim.stalled_ratio), not a failure
	// of the simulator. A failure is a flow the engine cannot account for.
	res.Attempted = w.admitted
	res.Failed = w.lost
	if ix == nil {
		return nil
	}
	steps := ix.byName["netsim.step"]
	build := ix.byName["netsim.topology_build"]
	res.setTiming("netsim.topology_build_ms", median(build)/1e6, len(build))
	res.set("netsim.inject_ns_per_flow", safeDiv(ix.total("netsim.inject"), float64(w.traced.arrivals)))
	res.set("netsim.records_ns_per_flow", safeDiv(ix.total("netsim.records"), float64(w.records)))
	res.set("netsim.setfrac_ns_per_call", safeDiv(ix.total("netsim.setfrac"), float64(len(steps)*len(w.day.topo.Links))))
	res.setTiming("netsim.step_ms_p50", median(steps)/1e6, len(steps))
	res.setTiming("netsim.step_ms_max", quantile(sorted(steps), 1)/1e6, len(steps))
	res.set("netsim.step_ns_per_rated_flow", safeDiv(sum(steps), float64(w.traced.rated)))
	res.set("netsim.rated_per_flow", safeDiv(float64(w.rated), float64(w.admitted)))
	res.set("netsim.waterfills_per_epoch", safeDiv(float64(w.waterfills), float64(w.epochs)))
	res.set("netsim.peak_active_flows", float64(w.peakActive))
	res.set("netsim.peak_cross_flows", float64(w.peakCross))
	res.set("netsim.stalled_ratio", safeDiv(float64(w.stalled), float64(w.records)))
	return nil
}

func (w *fleetDay) close() {}
