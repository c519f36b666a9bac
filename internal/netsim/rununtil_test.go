package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mosaic/internal/netsim/workload"
	"mosaic/internal/sim"
)

// firedEvents fires fs's events one at a time up to limit and names each
// as "arrive@t" or "complete#id@t".
func firedEvents(fs *FlowSim, limit sim.Time) []string {
	out := []string{}
	for {
		recs, left := len(fs.records), 0
		if fs.src != nil {
			left = fs.src.left
		}
		if !fs.fireNext(limit) {
			return out
		}
		switch {
		case fs.src != nil && fs.src.left < left:
			out = append(out, fmt.Sprintf("arrive@%v", float64(fs.now)))
		case len(fs.records) > recs:
			out = append(out, fmt.Sprintf("complete#%d@%v", fs.records[recs].ID, float64(fs.now)))
		default:
			out = append(out, "unknown")
		}
	}
}

// The time order FlowSim owns now that no event queue does: the earlier
// of next arrival and first completion fires first, a completion goes
// before an arrival at the same instant, simultaneous completions go in
// flow-ID order, RunUntil's deadline is inclusive and the clock lands on
// it, and Run leaves the clock at the last event.
func TestRunUntilFiresInTimeOrder(t *testing.T) {
	const size, rate = 1e9, 100e9
	T := sim.Time(size / rate) // one flow alone on its path takes exactly T
	inf := sim.Time(math.Inf(1))
	at := func(kind string, t sim.Time) string { return fmt.Sprintf("%s@%v", kind, float64(t)) }

	for _, c := range []struct {
		name     string
		twin     bool     // start a second flow on a disjoint path: it finishes at the same instant as the first
		arriveAt sim.Time // arm one open-loop arrival (disjoint from flow 0) at this instant; < 0 for none
		deadline sim.Time // RunUntil(deadline); inf means Run()
		want     []string
		wantNow  sim.Time
	}{
		{"arrival strictly before completion", false, T / 2, 2 * T,
			[]string{at("arrive", T/2), at("complete#0", T), at("complete#1", T/2+T)}, 2 * T},
		{"completion strictly before arrival", false, 2 * T, 4 * T,
			[]string{at("complete#0", T), at("arrive", 2*T), at("complete#1", 2*T+T)}, 4 * T},
		{"exact tie: completion first, deadline inclusive", false, T, T,
			[]string{at("complete#0", T), at("arrive", T)}, T},
		{"two completions at one instant in flow-ID order", true, -1, T,
			[]string{at("complete#0", T), at("complete#1", T)}, T},
		{"an event past the deadline waits", false, 2 * T, 2*T - 1e-9,
			[]string{at("complete#0", T)}, 2*T - 1e-9},
		{"nothing due: the clock still lands on the deadline", false, -1, T / 2,
			[]string{}, T / 2},
		{"Run drains and leaves the clock at the last event", false, T / 2, inf,
			[]string{at("arrive", T/2), at("complete#0", T), at("complete#1", T/2+T)}, T/2 + T},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Hosts 0,1 hang off leaf 0 and 2,3 off leaf 1: a flow between
			// the first pair shares no link with one between the second.
			topo, err := NewLeafSpine(2, 1, 2, rate)
			if err != nil {
				t.Fatal(err)
			}
			fs := NewFlowSim(topo)
			hosts := topo.Hosts()
			if _, err := fs.StartFlow(hosts[0], hosts[1], size, 3); err != nil {
				t.Fatal(err)
			}
			if c.twin {
				if _, err := fs.StartFlow(hosts[2], hosts[3], size, 3); err != nil {
					t.Fatal(err)
				}
			}
			if c.arriveAt >= 0 {
				fs.OfferPoisson(1, workload.Fixed{Bits: size}, workload.PoissonArrivals{RatePerSec: 1}, rand.New(rand.NewSource(1)))
				fs.src.at, fs.src.hosts = c.arriveAt, hosts[2:4]
			}

			got := firedEvents(fs, c.deadline)
			if c.deadline == inf {
				fs.Run()
			} else {
				fs.RunUntil(c.deadline)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("fired %v, want %v", got, c.want)
			}
			if fs.now != c.wantNow {
				t.Errorf("clock = %v, want %v", fs.now, c.wantNow)
			}
		})
	}
}

// A run chopped into arbitrary RunUntil slices is the run: same records,
// bit for bit, as one Run() around the same mid-run fault.
func TestRunUntilEqualsOneRun(t *testing.T) {
	const nflows = 400
	run := func(chop *rand.Rand) ([]FlowRecord, int) {
		topo := mustTree(t, 4)
		fs := NewFlowSim(topo)
		dist := workload.WebSearch()
		arr := workload.NewPoissonForLoad(0.8, topo.NumHosts(), 800e9, dist.MeanBits())
		unroutable := fs.OfferPoisson(nflows, dist, arr, sim.RNG(5, "workload"))
		faultAt := sim.Time(0.3 * nflows / arr.RatePerSec)
		advance := func(to sim.Time) {
			for chop != nil && fs.now < to {
				fs.RunUntil(min(to, fs.now+sim.Time(chop.Float64())*faultAt/7))
			}
		}
		advance(faultAt)
		fs.RunUntil(faultAt)
		if fs.active == 0 {
			t.Fatal("no flow in flight at the fault: the workload is too light to test anything")
		}
		fs.FailLink(topo.LinksByTier()[TierHostToR][0])
		advance(4 * faultAt)
		fs.Run()
		if fs.active != 0 {
			t.Fatalf("%d flows still active after Run", fs.active)
		}
		return fs.Records(), *unroutable
	}
	wantRecs, wantUnroutable := run(nil)
	if len(wantRecs)+wantUnroutable != nflows {
		t.Fatalf("%d records + %d unroutable, want %d flows accounted for", len(wantRecs), wantUnroutable, nflows)
	}
	for seed := int64(1); seed <= 3; seed++ {
		recs, unroutable := run(rand.New(rand.NewSource(seed)))
		if unroutable != wantUnroutable || !reflect.DeepEqual(recs, wantRecs) {
			t.Fatalf("chop seed %d: %d records / %d unroutable differ from the single Run's %d / %d",
				seed, len(recs), unroutable, len(wantRecs), wantUnroutable)
		}
	}
}

func TestOfferPoissonTwicePanics(t *testing.T) {
	fs := NewFlowSim(mustTree(t, 4))
	offer := func() {
		fs.OfferPoisson(1, workload.Fixed{Bits: 1e6}, workload.PoissonArrivals{RatePerSec: 1}, rand.New(rand.NewSource(1)))
	}
	offer()
	defer func() {
		if recover() == nil {
			t.Error("a second OfferPoisson on one FlowSim did not panic")
		}
	}()
	offer()
}
