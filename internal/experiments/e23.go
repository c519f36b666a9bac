package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"mosaic/internal/eventlog"
	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
)

// E23MACRenegotiation closes the loop the MAC layer exists for: a fleet
// aging schedule kills channels on a live Mosaic access link while a
// loaded fat-tree runs on top. The link's own machinery — monitor
// transitions, reactive sparing, and the mac.Bridge — renegotiates the
// flow-sim capacity step by step (spares absorb the first kills
// silently, then each further kill shaves one lane), and the FCT impact
// is compared against a copper-style link-down at the moment the first
// lane is lost. No hand-wired capacity edits anywhere: the network
// learns about degradation only through the MAC.
func E23MACRenegotiation(seed int64) (Table, error) {
	return e23WithWorkers(seed, 0)
}

// e23Mode selects the scenario variant.
type e23Mode int

const (
	e23Clean e23Mode = iota // MAC session with an empty schedule
	e23Aging                // the staircase kill/aging schedule
	e23Down                 // copper-style: FailLink at first lane loss
)

// e23Schedule is the fleet aging scenario: two kills absorbed by the
// spares, then three more that each cost a lane (16 lanes nominal:
// 0.9375, 0.8750, 0.8125), plus an aging ramp that forces the LLR to
// earn its keep with retransmissions while capacity shrinks.
func e23Schedule() faultinject.Schedule {
	return faultinject.Schedule{Events: []faultinject.Event{
		{At: 10, Kind: faultinject.KindKill, Channel: 2},
		{At: 12, Kind: faultinject.KindAging, Channel: 7, BER: 4e-3, Duration: 10},
		{At: 16, Kind: faultinject.KindKill, Channel: 5},
		{At: 24, Kind: faultinject.KindKill, Channel: 9},
		{At: 32, Kind: faultinject.KindKill, Channel: 12},
		{At: 40, Kind: faultinject.KindKill, Channel: 14},
	}}
}

// e23WithWorkers is the worker-count-parameterized core, so the
// determinism test can pin that the full table — including the MAC
// event-log hash in the notes — is byte-identical at any pool size.
func e23WithWorkers(seed int64, workers int) (Table, error) {
	t := tableFor("E23")
	t.Columns = []string{"scenario", "flows", "stalled", "renegs", "retx",
		"frac_end", "mean_FCT_ms", "p99_FCT_ms"}

	var macSHA, stallSHA string
	for _, sc := range []struct {
		name string
		mode e23Mode
	}{
		{"no-fault", e23Clean},
		{"mosaic-aging(mac)", e23Aging},
		{"copper-link-down", e23Down},
	} {
		st, res, recs, err := runE23Scenario(seed, workers, sc.mode)
		if err != nil {
			return t, err
		}
		if sc.mode == e23Down {
			// The copper cut strands several flows at one instant; hash
			// the full record sequence so the golden pins their order
			// (ascending flow ID within the kill, not map order).
			var sb strings.Builder
			for _, r := range recs {
				fmt.Fprintf(&sb, "%d %v %v %v\n", r.ID, r.Stalled, r.Start, r.End)
			}
			h := sha256.Sum256([]byte(sb.String()))
			stallSHA = hex.EncodeToString(h[:8])
		}
		renegs, retx, frac := "-", "-", "-"
		if res != nil {
			renegs = fmt.Sprintf("%d", res.Renegotiations)
			retx = fmt.Sprintf("%d", res.A.Retransmits)
			frac = fm(res.Fraction, 4)
			if sc.mode == e23Aging {
				macSHA = eventlog.Digest(res.Log, res.Summary())
			}
		}
		t.AddRow(sc.name, fmt.Sprintf("%d", st.Count+st.Stalled),
			fmt.Sprintf("%d", st.Stalled), renegs, retx, frac,
			fm(float64(st.Mean)*1e3, 3), fm(float64(st.P99)*1e3, 3))
	}
	t.Notes = "aging schedule -> monitor -> sparing -> mac.Bridge renegotiation; copper cut at the first " +
		"lane-loss instant for comparison; mac event log sha256[:8]=" + macSHA +
		"; copper stall records sha256[:8]=" + stallSHA +
		" (byte-identical at any phy worker count)"
	return t, nil
}

// runE23Scenario runs one scenario: the shared fat-tree workload plus,
// for the MAC modes, a live Mosaic session whose forward link is the
// access victim. The flow simulator is advanced to each superframe
// boundary and the session stepped there, one superframe per interval,
// so its boundaries interleave with the flow events; capacity changes
// reach the flow sim only via the bridge.
func runE23Scenario(seed int64, workers int, mode e23Mode) (netsim.FCTStats, *mac.Result, []netsim.FlowRecord, error) {
	topo, err := netsim.NewFatTree(8, 800e9)
	if err != nil {
		return netsim.FCTStats{}, nil, nil, err
	}
	fs := netsim.NewFlowSim(topo)
	dist := workload.WebSearch()
	arr := workload.NewPoissonForLoad(0.4, topo.NumHosts(), 800e9, dist.MeanBits())
	rng := sim.RNG(seed, "workload")

	const nflows = 3000
	unroutable := fs.OfferPoisson(nflows, dist, arr, rng)

	victim := topo.LinksByTier()[netsim.TierHostToR][0]
	// 60 session superframes span the whole arrival window; the first
	// lane loss (schedule At=24, tick time (24+1)*interval) lands midway.
	interval := sim.Time(nflows / arr.RatePerSec / 50)

	var sess *mac.Session
	switch mode {
	case e23Down:
		fs.RunUntil(25 * interval)
		fs.FailLink(victim)
	case e23Clean, e23Aging:
		var sched faultinject.Schedule
		if mode == e23Aging {
			sched = e23Schedule()
		}
		fwd, err := phy.New(phy.Config{
			Lanes: 16, Spares: 2, FEC: phy.NewRSLite(), UnitLen: 63,
			PerChannelBitRate: 2e9, Seed: seed + 100, Workers: workers,
		})
		if err != nil {
			return netsim.FCTStats{}, nil, nil, err
		}
		rev, err := phy.New(phy.Config{
			Lanes: 16, Spares: 2, FEC: phy.NewRSLite(), UnitLen: 63,
			PerChannelBitRate: 2e9, Seed: seed + 200, Workers: workers,
		})
		if err != nil {
			return netsim.FCTStats{}, nil, nil, err
		}
		bridge := mac.NewBridge(fwd)
		sess, err = mac.NewSession(mac.SessionConfig{
			Fwd:          fwd,
			Rev:          rev,
			Pair:         mac.PairConfig{PHYFrameLen: 120},
			Schedule:     sched,
			Superframes:  60,
			Interval:     interval,
			PacketsPerSF: 4,
			PacketLen:    150,
			Seed:         seed + 300,
			Bridge:       bridge,
		})
		if err != nil {
			return netsim.FCTStats{}, nil, nil, err
		}
		for t := interval; ; t += interval {
			fs.RunUntil(t)
			more := sess.Step()
			fs.SetLinkCapacityFraction(victim, bridge.Fraction()) // a no-op unless the step renegotiated
			if !more {
				break
			}
		}
	}

	fs.Run()
	recs := fs.Records()
	st := netsim.Stats(recs)
	st.Stalled += *unroutable
	if sess != nil {
		res := sess.Result()
		if res.Err != "" {
			return st, res, recs, fmt.Errorf("experiments: E23 mac session: %s", res.Err)
		}
		return st, res, recs, nil
	}
	return st, nil, recs, nil
}
