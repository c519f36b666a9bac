package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/eventlog"
)

// drainTwinScenario steps a three-pod fleet for 60 one-second epochs.
// Each barrier degrades a rotating set of links, every third one kills a
// host's access link (its flows have no other way out and stall), every
// tenth restores every link, and random flows arrive, a quarter of them
// long-lived. One pair of hosts in the first and last pods carries only
// cross flows sized to finish at their access rate exactly on an epoch
// end. drain, when set, runs at every barrier after its kills and once
// after the last epoch.
func drainTwinScenario(seed int64, workers int, drain func(*FleetSim)) (fs *FleetSim, exact map[int]bool) {
	topo, err := NewFleet(3, 3, 2, 3, 100e9)
	if err != nil {
		panic(err)
	}
	fs = NewFleetSim(topo, workers)
	rng := rand.New(rand.NewSource(seed))
	hosts := topo.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1] // the exact-end pair
	access := func(h int) int {
		p, err := topo.Path(nil, h, src, 0)
		if h == src {
			p, err = topo.Path(nil, h, dst, 0)
		}
		if err != nil {
			panic(err)
		}
		return p[0]
	}
	// The source's access link runs at an eighth of its rate, below any
	// fair share the fabric offers it, so it alone sets the exact flows'
	// rates.
	reserved := map[int]bool{access(src): true, access(dst): true}
	fs.SetLinkFraction(access(src), 0.125)
	exact = map[int]bool{}
	for epoch := 0; epoch < 60; epoch++ {
		for l := epoch % 5; l < len(topo.Links); l += 5 {
			if !reserved[l] {
				fs.SetLinkFraction(l, 1-0.02*float64(epoch%13))
			}
		}
		switch {
		case epoch%10 == 9:
			for l := range topo.Links {
				if !reserved[l] {
					fs.SetLinkFraction(l, 1)
				}
			}
		case epoch%3 == 2:
			h := hosts[1+rng.Intn(len(hosts)-2)]
			fs.SetLinkFraction(access(h), 0)
		}
		if drain != nil {
			drain(fs)
		}
		if epoch%4 == 0 {
			id, err := fs.Inject(src, dst, 12.5e9*float64(1+rng.Intn(2)), rng.Uint64())
			if err != nil {
				panic(err)
			}
			exact[id] = true
		}
		for i := 0; i < 12; i++ {
			a, b := hosts[1+rng.Intn(len(hosts)-2)], hosts[1+rng.Intn(len(hosts)-2)]
			bits := (0.05 + rng.Float64()) * 4e9
			if i%4 == 0 {
				bits *= 20
			}
			_, _ = fs.Inject(a, b, bits, rng.Uint64())
		}
		fs.Step(1)
	}
	if drain != nil {
		drain(fs)
	}
	return fs, exact
}

// Draining at every barrier is Records read in instalments: the drained
// records, concatenated, are an undrained twin's Records() in order and
// bit for bit — barrier stalls that share an instant with a completion
// ending exactly on it included — at any worker count, and the drains
// leave nothing behind and move no simulated bit.
func TestDrainedRecordsConcatenateToRecords(t *testing.T) {
	ties, exactEnds := 0, 0
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("seed %d workers %d", seed, workers)
			twin, exact := drainTwinScenario(seed, workers, nil)
			want := twin.Records()
			var got []FlowRecord
			fs, _ := drainTwinScenario(seed, workers, func(fs *FleetSim) {
				fs.DrainRecords(func(r FlowRecord) { got = append(got, r) })
			})
			if len(got) != len(want) {
				t.Fatalf("%s: drained %d records, the twin keeps %d", name, len(got), len(want))
			}
			for i := range want {
				if !sameRecord(got[i], want[i]) {
					t.Fatalf("%s: record %d drained as %+v, the twin's Records gives %+v", name, i, got[i], want[i])
				}
			}
			if n := len(fs.Records()); n != 0 {
				t.Fatalf("%s: %d records left after the last drain", name, n)
			}
			if a, b := eventlog.Digest(fs.EventLog()), eventlog.Digest(twin.EventLog()); a != b {
				t.Fatalf("%s: draining moved the epoch log: %s vs %s", name, a, b)
			}
			stalls := 0
			for i, r := range want {
				if r.Stalled {
					stalls++
				}
				if !r.Stalled && exact[r.ID] && float64(r.End) == math.Trunc(float64(r.End)) {
					exactEnds++
					// A stall of an older flow at the same barrier sorts first.
					if i > 0 && want[i-1].Stalled && want[i-1].End == r.End {
						ties++
					}
				}
			}
			if stalls == 0 {
				t.Fatalf("%s: no barrier kill stalled a flow; the scenario is too weak", name)
			}
		}
	}
	t.Logf("%d cross completions on an epoch end, %d of them behind a stall at the same instant", exactEnds, ties)
	if exactEnds == 0 || ties == 0 {
		t.Fatalf("%d exact epoch-end completions, %d stall ties: the scenario no longer reaches the case", exactEnds, ties)
	}
}

// sameRecord compares two records field by field, times and sizes as bits.
func sameRecord(a, b FlowRecord) bool {
	bits := math.Float64bits
	return a.ID == b.ID && a.Stalled == b.Stalled && bits(a.SizeBits) == bits(b.SizeBits) &&
		bits(float64(a.Start)) == bits(float64(b.Start)) && bits(float64(a.End)) == bits(float64(b.End))
}
