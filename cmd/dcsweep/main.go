// Command dcsweep sweeps datacenter-scale deployments: fat-tree sizes ×
// link-technology plans, reporting network-wide link power, expected
// failures, and (optionally) a loaded flow simulation with a fault.
//
//	dcsweep                       # power/failure sweep over k = 4..24
//	dcsweep -k 16                 # one fabric size
//	dcsweep -flows -k 8 -load 0.4 # run the flow simulator too
package main

import (
	"flag"
	"fmt"
	"os"

	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
	"mosaic/internal/sim"
)

func main() {
	var (
		kFlag   = flag.Int("k", 0, "fat-tree k (0 = sweep 4,8,16,24)")
		rate    = flag.Float64("rate", 800e9, "link rate in bit/s")
		doFlows = flag.Bool("flows", false, "run the loaded flow simulation with a fault")
		load    = flag.Float64("load", 0.4, "offered load for -flows")
		nflows  = flag.Int("nflows", 2000, "flows to inject for -flows")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	ks := []int{4, 8, 16, 24}
	if *kFlag > 0 {
		ks = []int{*kFlag}
	}

	fmt.Printf("%4s %7s %7s %14s %10s %14s\n", "k", "hosts", "links", "plan", "power_kW", "failures/yr")
	for _, k := range ks {
		topo, err := netsim.NewFatTree(k, *rate)
		if err != nil {
			fatal(err)
		}
		for _, plan := range netsim.Plans() {
			rep, err := netsim.Analyze(topo, plan, *rate)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%4d %7d %7d %14s %10.2f %14.2f\n",
				k, topo.NumHosts(), rep.Links, rep.Plan, rep.PowerW/1e3, rep.FailuresPerYear)
		}
	}

	if !*doFlows {
		return
	}
	k := ks[0]
	fmt.Printf("\nflow simulation: k=%d, load %.2f, %d flows, access-link fault mid-run\n", k, *load, *nflows)
	fmt.Printf("%-24s %7s %8s %12s %12s\n", "scenario", "flows", "stalled", "mean_ms", "p99_ms")
	for _, sc := range []struct {
		name string
		frac float64
	}{
		{"no-fault", -1},
		{"mosaic-degraded(-4%)", 0.96},
		{"optics-linkdown", 0},
	} {
		st, err := runScenario(k, *rate, *load, *nflows, *seed, sc.frac)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-24s %7d %8d %12.3f %12.3f\n", sc.name,
			st.Count+st.Stalled, st.Stalled, float64(st.Mean)*1e3, float64(st.P99)*1e3)
	}
}

func runScenario(k int, rate, load float64, nflows int, seed int64, frac float64) (netsim.FCTStats, error) {
	topo, err := netsim.NewFatTree(k, rate)
	if err != nil {
		return netsim.FCTStats{}, err
	}
	fs := netsim.NewFlowSim(topo)
	dist := workload.WebSearch()
	arr := workload.NewPoissonForLoad(load, topo.NumHosts(), rate, dist.MeanBits())
	rng := sim.RNG(seed, "workload")

	fs.OfferPoisson(nflows, dist, arr, rng)
	if frac >= 0 {
		// Mid-run fault on an access link (no ECMP diversity there).
		faultAt := sim.Time(0.15 * float64(nflows) / arr.RatePerSec)
		victim := topo.LinksByTier()[netsim.TierHostToR][0]
		fs.RunUntil(faultAt)
		fs.SetLinkCapacityFraction(victim, frac)
	}
	fs.Run()
	return netsim.Stats(fs.Records()), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcsweep:", err)
	os.Exit(1)
}
