package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// recordTwins are two FleetSims over one two-pod fleet, fed the same
// inputs. fast runs as shipped: phase C refills the components phase A
// recorded. full discards its record after every shard task, so each of
// its pinned passes is a full gatherComponent. Both take a snapshot of
// every slot's rate, offer and progress and of each shard's waterfill
// counters at every resolved point.
type recordTwins struct {
	t          *testing.T
	fast, full *FleetSim
	snaps      [2][]uint64 // fast, full: the last resolved point's snapshot
	hosts      [2][]int    // the hosts of pod 0 and of pod 1

	// Of fast's phase C passes, per shard: those that refilled a recorded
	// component, and those that did so with a record older than the
	// epoch's phase A (the shard was clean in phase A).
	refills, stale [2]int
	cleanA         [2]bool
	calls          [2]int
}

func newRecordTwins(t *testing.T) *recordTwins {
	t.Helper()
	topo, err := NewFleet(2, 2, 2, 4, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	rt := &recordTwins{t: t, fast: NewFleetSim(topo, 1), full: NewFleetSim(topo, 1)}
	for _, h := range topo.Hosts() {
		p := topo.Nodes[h].Pod
		rt.hosts[p] = append(rt.hosts[p], h)
	}
	// Step runs three shard rounds: phase A, phase C and the epoch run.
	fast, full := rt.fast, rt.full
	fastTask, fullTask := fast.shardTask, full.shardTask
	fast.shardTask = func(i int) {
		g := fast.shards[i].g
		rt.calls[i]++
		switch rt.calls[i] % 3 {
		case 1:
			before := g.epoch
			fastTask(i)
			rt.cleanA[i] = g.epoch == before
		case 2:
			for _, l := range g.dirty {
				if _, ok := g.rec.component(l); ok {
					rt.refills[i]++
					if rt.cleanA[i] {
						rt.stale[i]++
					}
					break
				}
			}
			fastTask(i)
		default:
			fastTask(i)
		}
	}
	full.shardTask = func(i int) {
		fullTask(i)
		full.shards[i].g.rec.forget()
	}
	for k, fs := range []*FleetSim{fast, full} {
		fs.SetResolvedHook(func() { rt.snaps[k] = snapshotRates(fs, rt.snaps[k][:0]) })
	}
	return rt
}

// snapshotRates appends, per shard, the waterfill counters and every
// used slot's handle and the bits of its rate, offer and progress.
func snapshotRates(fs *FleetSim, out []uint64) []uint64 {
	for _, sh := range fs.shards {
		g := sh.g
		out = append(out, g.waterfills, g.rated)
		for h := range g.flows.hot {
			if f := &g.flows.hot[h]; g.flows.used[h] {
				out = append(out, uint64(h), math.Float64bits(f.rate), math.Float64bits(g.flows.v[h].offer),
					math.Float64bits(f.remaining), math.Float64bits(float64(f.lastTouch)))
			}
		}
	}
	return out
}

// inject starts the same flow on both twins; both must admit it or both
// refuse it (a kill can leave a pair with no live path).
func (rt *recordTwins) inject(src, dst int, sizeBits float64, hash uint64) error {
	rt.t.Helper()
	_, err := rt.fast.Inject(src, dst, sizeBits, hash)
	if _, errFull := rt.full.Inject(src, dst, sizeBits, hash); (err == nil) != (errFull == nil) {
		rt.t.Fatalf("inject %d → %d: %v on one twin, %v on the other", src, dst, err, errFull)
	}
	return err
}

// mustInject is inject on a path that must be live.
func (rt *recordTwins) mustInject(src, dst int, sizeBits float64, hash uint64) {
	rt.t.Helper()
	if err := rt.inject(src, dst, sizeBits, hash); err != nil {
		rt.t.Fatal(err)
	}
}

// step steps both twins one epoch and requires identical snapshots.
func (rt *recordTwins) step(what string) {
	rt.t.Helper()
	rt.fast.Step(1)
	rt.full.Step(1)
	rt.compare(what)
}

// compare requires the twins' last snapshots to be identical.
func (rt *recordTwins) compare(what string) {
	rt.t.Helper()
	a, b := rt.snaps[0], rt.snaps[1]
	if len(a) != len(b) {
		rt.t.Fatalf("%s: snapshots of %d and %d words", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			rt.t.Fatalf("%s: snapshot word %d is %#x refilled from the record, %#x from a full gather", what, i, a[i], b[i])
		}
	}
}

// The component record is exact: a phase C that refills the components
// phase A recorded gives every rate, offer and settled progress bit for
// bit, and the same waterfill and rated counts, as a phase C that gathers
// them afresh — on a shard that was clean in phase A but re-pinned in
// phase B (its record from an earlier epoch), under a capacity cut below
// the pinned rates, across a link kill that reroutes between epochs, on
// an epoch with no arrivals, and then under seeded churn; and admission
// and removal forget the record.
func TestComponentRecordMatchesFullGather(t *testing.T) {
	rt := newRecordTwins(t)
	p0, p1 := rt.hosts[0], rt.hosts[1]

	// Long local flows in both pods and cross flows pod 0 → pod 1.
	for i := range 6 {
		rt.mustInject(p0[i], p0[(i+3)%len(p0)], 1e18, uint64(i))
		rt.mustInject(p1[i], p1[(i+5)%len(p1)], 1e18, uint64(10+i))
		rt.mustInject(p0[i], p1[i], 1e18, uint64(20+i))
	}
	rt.step("warm-up")
	if rt.refills[0] == 0 {
		t.Fatal("warm-up: pod 0's phase C refilled no recorded component")
	}

	// Clean in phase A, re-pinned in phase B: pod 1 alone gets flows into
	// the cross flows' destinations, which lowers pod 1's offers; pod 0
	// admits and completes nothing, so its proxies are re-pinned lower and
	// its phase C refills the record of the warm-up's phase A.
	stale := rt.stale[0]
	for i := range 6 {
		rt.mustInject(p1[(i+1)%len(p1)], p1[i], 1e18, uint64(30+i))
	}
	rt.step("re-pinned clean shard")
	if rt.stale[0] == stale {
		t.Fatal("re-pinned clean shard: pod 0's phase C did not refill an earlier epoch's record")
	}

	// Capacity is read fresh: cut a pod-0 link that pinned proxies share
	// with local flows below the proxies' rates, so the first pass clamps,
	// refill it with no unpinned flush between, and restore it.
	l := proxyLink(rt.fast, 0)
	nominal := rt.fast.capacity[l]
	for _, c := range []float64{1, nominal} {
		for k, fs := range []*FleetSim{rt.fast, rt.full} {
			g := fs.shards[0].g
			g.capacity[l-g.base] = c
			g.markDirty(l - g.base)
			g.flush(false)
			rt.snaps[k] = snapshotRates(fs, rt.snaps[k][:0])
		}
		rt.compare(fmt.Sprintf("link %d at %g b/s", l, c))
	}

	// Admission and removal forget the record (full's own is forgotten
	// once the manipulation is done, as its shard tasks do).
	for k, fs := range []*FleetSim{rt.fast, rt.full} {
		g := fs.shards[0].g
		h := g.addFlow(flowHot{n: 1, path: [maxPath]int32{int32(l - g.base)}}, flowSlot{ident: ident{ID: maxFlowID}})
		if recorded(g) {
			t.Fatal("addFlow left the component record standing")
		}
		g.flush(true)
		if !recorded(g) {
			t.Fatal("an unpinned flush recorded no component")
		}
		g.removeFlow(h)
		if recorded(g) {
			t.Fatal("removeFlow left the component record standing")
		}
		g.flush(true)
		rt.snaps[k] = snapshotRates(fs, rt.snaps[k][:0])
	}
	rt.full.shards[0].g.rec.forget()
	rt.compare("admission and removal")

	// A link kill that reroutes between epochs: pod 0's most loaded
	// leaf-spine link dies, its flows move, and both pods re-record.
	refills := rt.refills
	kill := busiestLink(rt.fast, 0, TierToRAgg)
	for _, fs := range []*FleetSim{rt.fast, rt.full} {
		fs.SetLinkFraction(kill, 0)
	}
	rt.step("link kill")
	if rt.refills[0] == refills[0] {
		t.Fatal("link kill: pod 0's phase C refilled no recorded component")
	}

	// An epoch with no arrivals: short flows finish inside the next epoch,
	// so the one after admits nothing and re-records only the components
	// their completions dirtied.
	for i := range 4 {
		rt.mustInject(p0[i+1], p1[i], 1e9, uint64(40+i))
		rt.mustInject(p1[i+2], p1[i], 1e9, uint64(50+i))
	}
	rt.step("short flows")
	refills = rt.refills
	rt.step("no arrivals")
	if rt.refills == refills {
		t.Fatal("no arrivals: no phase C refilled a recorded component")
	}

	// Seeded churn: arrivals in either pod or none, capacity changes and
	// kills that restore, flows that finish.
	rng := rand.New(rand.NewSource(3))
	hosts := append(append([]int(nil), p0...), p1...)
	for e := range 60 {
		for i := rng.Intn(6); i > 0; i-- {
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			if rng.Intn(3) == 0 {
				src, dst = p0[rng.Intn(len(p0))], p0[rng.Intn(len(p0))]
			}
			if src != dst {
				_ = rt.inject(src, dst, float64(1+rng.Intn(400))*1e9, rng.Uint64())
			}
		}
		if rng.Intn(4) == 0 {
			l, frac := rng.Intn(len(rt.fast.capacity)), []float64{0, 0.5, 1}[rng.Intn(3)]
			for _, fs := range []*FleetSim{rt.fast, rt.full} {
				fs.SetLinkFraction(l, frac)
			}
		}
		rt.step(fmt.Sprintf("churn epoch %d", e))
	}
}

// busiestLink returns the link of the given tier in shard s that the most
// live flows cross.
func busiestLink(fs *FleetSim, s int, tier Tier) int {
	g := fs.shards[s].g
	best, most := -1, -1
	for l := range g.linkFlows {
		if fs.Topo.Links[g.base+l].Tier != tier {
			continue
		}
		if n := len(g.linkFlows[l].refs) - g.linkFlows[l].dead; n > most {
			best, most = g.base+l, n
		}
	}
	return best
}

// proxyLink returns the link of shard s that the most proxies cross
// among those a local flow crosses too, so its remaining capacity rates
// someone.
func proxyLink(fs *FleetSim, s int) int {
	g := fs.shards[s].g
	proxies, locals := make([]int, len(g.capacity)), make([]int, len(g.capacity))
	for h := range g.flows.hot {
		if f := &g.flows.hot[h]; g.flows.used[h] {
			for _, l := range f.links() {
				if f.proxy {
					proxies[l]++
				} else {
					locals[l]++
				}
			}
		}
	}
	best := -1
	for l := range proxies {
		if locals[l] > 0 && (best < 0 || proxies[l] > proxies[best]) {
			best = l
		}
	}
	return g.base + best
}

// recorded reports whether any link of g is in a recorded component.
func recorded(g *flowGraph) bool {
	for l := range g.capacity {
		if _, ok := g.rec.component(l); ok {
			return true
		}
	}
	return false
}
