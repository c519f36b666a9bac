package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mosaic/internal/eventlog"
	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
	"mosaic/internal/phy"
)

// E24 fleet shape and workload. 12 pods of a 10-leaf x 6-spine
// leaf-spine with 8 hosts per leaf gives 960 hosts and 1752 links; the
// diurnal load curve peaks at 1.8x the aggregate access capacity, so
// the peak hours build a six-figure flow backlog that the off-peak
// hours drain — that backlog is the scale the sharded engine exists
// for.
const (
	e24Pods         = 12
	e24Leaves       = 10
	e24Spines       = 6
	e24HostsPerLeaf = 8
	e24LinkRate     = 100e9
	e24Epochs       = 24 // one diurnal day, 1 s per epoch
	e24Window       = 4  // table row granularity, epochs
	e24MeanBits     = 3e9
	e24PeakLoad     = 1.8 // rho(e) = peak/2 * (1 - cos(2*pi*e/24))
	e24CrossFrac    = 0.10
	e24MeanDecay    = 0.003 // per-epoch mean exponential decay of link capacity
	e24SparingFloor = 0.7   // below this fraction the link is retired (dead)
)

// E24FleetScale is the fleet-scale deliverable of the sharded
// incremental flow engine: a 12-pod, 1752-link fleet under a diurnal
// load curve whose peak hours offer 1.8x the access capacity, with
// every link continuously aging on a seeded exponential-decay schedule
// (microLED dimming; links dropping below the sparing floor die). The
// peak builds >100k concurrent flows; a sampled set of the most-aged
// links additionally runs the real PHY/MAC bring-up so the modeled
// capacity fraction is checked against what monitor-driven sparing
// actually renegotiates. The epoch event log and the table are
// byte-identical at any shard worker count.
func E24FleetScale(seed int64) (Table, error) {
	t, _, err := e24WithWorkers(seed, 0)
	return t, err
}

// e24Metrics exposes scale counters for tests and notes.
type e24Metrics struct {
	Flows      int    // total arrivals admitted
	PeakActive int    // max concurrent flows at any epoch start
	PeakCross  int    // max concurrent cross-pod flows
	DeadLinks  int    // links retired by aging within the horizon
	Unroutable int    // arrivals rejected (no live path)
	Waterfills uint64 // component waterfill invocations across shards
	RatedFlows uint64 // flow-rate assignments across all waterfills
	LogSHA     string // sha256[:8] of the epoch event log
}

// e24WithWorkers is the worker-count-parameterized core so the
// determinism test can pin byte-identical output at any pool size.
func e24WithWorkers(seed int64, workers int) (Table, e24Metrics, error) {
	var m e24Metrics
	t := tableFor("E24")
	t.Columns = []string{"window", "arrivals", "done", "stalled",
		"active_end", "cross_end", "frac_fleet", "p50_s", "p99_s"}

	topo, err := netsim.NewFleet(e24Pods, e24Leaves, e24Spines, e24HostsPerLeaf, e24LinkRate)
	if err != nil {
		return t, m, err
	}
	aging, err := faultinject.NewFleetAging(seed+1, len(topo.Links), e24MeanDecay, e24SparingFloor)
	if err != nil {
		return t, m, err
	}
	fs := netsim.NewFleetSim(topo, workers)
	rng := rand.New(rand.NewSource(seed + 2))
	hosts := topo.Hosts()
	hostsPerPod := e24Leaves * e24HostsPerLeaf
	dist := workload.WebSearch()
	sizeScale := e24MeanBits / dist.MeanBits()

	windows := e24Epochs / e24Window
	winArrivals := make([]int, windows)
	winActive := make([]int, windows)
	winCross := make([]int, windows)
	winFrac := make([]float64, windows)

	for e := 0; e < e24Epochs; e++ {
		// Continuous aging: publish every link's modeled fraction. The
		// engine's no-op early-return makes unchanged links free, and a
		// link that crossed the sparing floor stays dead.
		for l := range topo.Links {
			fs.SetLinkFraction(l, aging.Fraction(l, e))
		}

		load := e24PeakLoad / 2 * (1 - math.Cos(2*math.Pi*float64(e)/e24Epochs))
		n := int(load*float64(len(hosts))*e24LinkRate/e24MeanBits + 0.5)
		for i := 0; i < n; i++ {
			src := rng.Intn(len(hosts))
			var dst int
			if rng.Float64() < e24CrossFrac {
				pod := (src/hostsPerPod + 1 + rng.Intn(e24Pods-1)) % e24Pods
				dst = pod*hostsPerPod + rng.Intn(hostsPerPod)
			} else {
				dst = (src/hostsPerPod)*hostsPerPod + rng.Intn(hostsPerPod)
				if dst == src {
					dst = (src/hostsPerPod)*hostsPerPod + (src+1)%hostsPerPod
				}
			}
			if _, err := fs.Inject(hosts[src], hosts[dst], dist.SampleBits(rng)*sizeScale, rng.Uint64()); err != nil {
				m.Unroutable++
				continue
			}
			m.Flows++
		}
		winArrivals[e/e24Window] += n
		if a := fs.ActiveFlows(); a > m.PeakActive {
			m.PeakActive = a
		}
		if c := fs.CrossFlows(); c > m.PeakCross {
			m.PeakCross = c
		}

		fs.Step(1)

		if (e+1)%e24Window == 0 {
			w := e / e24Window
			winActive[w] = fs.ActiveFlows()
			winCross[w] = fs.CrossFlows()
			winFrac[w] = aging.MeanFraction(e)
		}
	}

	// One merged pass over the records: bucket by completion epoch.
	byWindow := make([][]netsim.FlowRecord, windows)
	for _, r := range fs.Records() {
		w := int(r.End) / e24Window
		if w >= windows {
			w = windows - 1
		}
		byWindow[w] = append(byWindow[w], r)
	}
	for w := 0; w < windows; w++ {
		st := netsim.Stats(byWindow[w])
		t.AddRow(fmt.Sprintf("e%d-e%d", w*e24Window, (w+1)*e24Window-1),
			fmt.Sprintf("%d", winArrivals[w]),
			fmt.Sprintf("%d", st.Count), fmt.Sprintf("%d", st.Stalled),
			fmt.Sprintf("%d", winActive[w]), fmt.Sprintf("%d", winCross[w]),
			fm(winFrac[w], 4), fm(float64(st.P50), 3), fm(float64(st.P99), 3))
	}

	for l := range topo.Links {
		if aging.DeadAt(l, e24Epochs) >= 0 {
			m.DeadLinks++
		}
	}
	m.Waterfills = fs.Waterfills()
	m.RatedFlows = fs.RatedFlows()
	m.LogSHA = eventlog.Digest(fs.EventLog())

	samples, err := e24BringUpSamples(seed, workers, aging, len(topo.Links))
	if err != nil {
		return t, m, err
	}

	t.Notes = fmt.Sprintf("fleet: %d pods, %d links, %d hosts; diurnal peak %.1fx access capacity; "+
		"aging mean-decay %.1f%%/epoch, sparing floor %.2f -> %d dead links; "+
		"%d flows (%d unroutable), peak concurrent %d (%d cross-pod); "+
		"%d component waterfills rated %d flows; epoch log sha256[:8]=%s "+
		"(byte-identical at any worker count); phy/mac bring-up on most-aged live links: %s",
		e24Pods, len(topo.Links), len(hosts), e24PeakLoad,
		e24MeanDecay*100, e24SparingFloor, m.DeadLinks,
		m.Flows, m.Unroutable, m.PeakActive, m.PeakCross,
		m.Waterfills, m.RatedFlows, m.LogSHA, strings.Join(samples, "; "))
	return t, m, nil
}

// e24BringUpSamples picks the three most-aged links that survive the
// horizon and runs the real PHY/MAC bring-up for each: the modeled
// fraction is converted to a channel-kill count (16 lanes, 2 spares —
// the first two kills are absorbed silently), a live mac.Session rides
// the schedule, and the fraction its bridge actually renegotiates is
// reported next to the model's. This is the "sampled set runs the real
// stack" leg of E24: the fleet model and the lane-level MAC agree on
// what aging costs.
func e24BringUpSamples(seed int64, workers int, aging *faultinject.FleetAging, links int) ([]string, error) {
	type cand struct {
		link int
		frac float64
	}
	var live []cand
	for l := 0; l < links; l++ {
		if f := aging.Fraction(l, e24Epochs-1); f > 0 {
			live = append(live, cand{l, f})
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].frac != live[j].frac {
			return live[i].frac < live[j].frac
		}
		return live[i].link < live[j].link
	})
	if len(live) > 3 {
		live = live[:3]
	}

	out := make([]string, 0, len(live))
	for i, c := range live {
		kills := 2 + int(math.Round((1-c.frac)*16))
		if kills > 14 {
			kills = 14
		}
		var ev []faultinject.Event
		for k := 0; k < kills; k++ {
			ev = append(ev, faultinject.Event{
				At: 6 + 3*k, Kind: faultinject.KindKill, Channel: (5*k + 2) % 16,
			})
		}

		fwd, err := phy.New(phy.Config{
			Lanes: 16, Spares: 2, FEC: phy.NewRSLite(), UnitLen: 63,
			PerChannelBitRate: 2e9, Seed: seed + 400 + int64(i), Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		rev, err := phy.New(phy.Config{
			Lanes: 16, Spares: 2, FEC: phy.NewRSLite(), UnitLen: 63,
			PerChannelBitRate: 2e9, Seed: seed + 500 + int64(i), Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		sess, err := mac.NewSession(mac.SessionConfig{
			Fwd:          fwd,
			Rev:          rev,
			Pair:         mac.PairConfig{PHYFrameLen: 120},
			Schedule:     faultinject.Schedule{Events: ev},
			Superframes:  60,
			Interval:     1e-3,
			PacketsPerSF: 4,
			PacketLen:    150,
			Seed:         seed + 600 + int64(i),
			Bridge:       mac.NewBridge(fwd),
		})
		if err != nil {
			return nil, err
		}
		res := sess.Run()
		if res.Err != "" {
			return nil, fmt.Errorf("experiments: E24 bring-up on link %d: %s", c.link, res.Err)
		}
		out = append(out, fmt.Sprintf("link %d model %s mac %s renegs %d",
			c.link, fm(c.frac, 4), fm(res.Fraction, 4), res.Renegotiations))
	}
	return out, nil
}
