// Datacenter: network-scale consequences of the link technology choice.
// Builds a k=16 fat-tree (1024 hosts), compares the three deployment plans
// on power and expected failures, then runs a loaded flow simulation where
// a ToR-aggregation link faults mid-run — once as a Mosaic link losing 4%
// of its channels, once as an optical link going dark.
package main

import (
	"fmt"
	"log"

	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
	"mosaic/internal/sim"
)

func main() {
	topo, err := netsim.NewFatTree(16, 800e9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fat-tree k=16: %d hosts, %d links\n\n", topo.NumHosts(), len(topo.Links))

	fmt.Printf("%-12s %10s %16s\n", "plan", "power_kW", "link failures/yr")
	for _, plan := range netsim.Plans() {
		rep, err := netsim.Analyze(topo, plan, 800e9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10.1f %16.1f\n", rep.Plan, rep.PowerW/1e3, rep.FailuresPerYear)
	}

	fmt.Println("\nflow simulation (k=8, websearch flows, load 0.4, access-link fault mid-run):")
	fmt.Printf("%-24s %8s %10s %10s\n", "scenario", "stalled", "mean_ms", "p99_ms")
	for _, sc := range []struct {
		name string
		frac float64
	}{
		{"no-fault", -1},
		{"mosaic-degraded(-4%)", 0.96},
		{"optics-linkdown", 0},
	} {
		st := run(sc.frac)
		fmt.Printf("%-24s %8d %10.3f %10.3f\n",
			sc.name, st.Stalled, float64(st.Mean)*1e3, float64(st.P99)*1e3)
	}
	fmt.Println("\nthe Mosaic fault is a rounding error; the optical fault moves the tail")
	fmt.Println("(and on access links, where there is no ECMP, it strands hosts entirely).")
}

func run(frac float64) netsim.FCTStats {
	topo, err := netsim.NewFatTree(8, 800e9)
	if err != nil {
		log.Fatal(err)
	}
	fs := netsim.NewFlowSim(topo)
	dist := workload.WebSearch()
	arr := workload.NewPoissonForLoad(0.4, topo.NumHosts(), 800e9, dist.MeanBits())
	rng := sim.RNG(3, "flows")

	const nflows = 2000
	fs.OfferPoisson(nflows, dist, arr, rng)
	if frac >= 0 {
		// Fault once ~15% of the flows have arrived (mid-run, independent
		// of absolute arrival rate). Fault an access link: that is where
		// link-down has no ECMP to hide behind.
		faultAt := sim.Time(0.15 * nflows / arr.RatePerSec)
		victim := topo.LinksByTier()[netsim.TierHostToR][0]
		fs.RunUntil(faultAt)
		fs.SetLinkCapacityFraction(victim, frac)
	}
	fs.Run()
	return netsim.Stats(fs.Records())
}
