// Command mosaicbench regenerates the paper's evaluation: every
// reconstructed table and figure (E1-E25, including the E24 fleet-scale
// sharded-flow-engine run and the E25 ARQ/QoS comparison), the scenario
// library (E26-..., workload × environment compositions from
// internal/scenario) and the design-choice ablations (A1-A5), driven by
// the experiment registry. Run with no arguments for the full suite, or
// select experiments:
//
//	mosaicbench                 # everything
//	mosaicbench -exp E4         # one experiment
//	mosaicbench -exp E1,E2,E7   # a subset
//	mosaicbench -exp E26,E27    # the scenario-library experiments
//	mosaicbench -list           # list experiments grouped by kind (runs nothing)
//	mosaicbench -seed 7         # change the simulation seed
//	mosaicbench -par 4          # generate experiments concurrently
//	mosaicbench -metrics m.prom # also write a telemetry snapshot (.json = JSON)
//
// With -par N the generators run on up to N goroutines; output is always
// printed in registry order, and a fixed seed produces identical tables at
// any parallelism.
//
// The narrative companion to the E22 statistics — the default
// fault-injection scenario on the prototype link with its live event log
// — is bare cmd/linksoak.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mosaic/internal/experiments"
	"mosaic/internal/telemetry"
)

func main() {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		seedFlag = flag.Int64("seed", 1, "simulation seed")
		listFlag = flag.Bool("list", false, "list experiment IDs and exit")
		csvFlag  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parFlag  = flag.Int("par", 1, "run up to N experiment generators concurrently")
		metrFlag = flag.String("metrics", "", "write a telemetry snapshot to this file after the run (.json suffix = JSON, else Prometheus text)")
	)
	flag.Parse()

	// Telemetry is write-only: tables are byte-identical with or without
	// it (pinned by the determinism tests).
	var reg *telemetry.Registry
	if *metrFlag != "" {
		reg = telemetry.NewRegistry()
	}

	if *listFlag {
		// Pure metadata: listing never runs a generator and cannot fail.
		// Grouped by kind so the scenario library reads separately from
		// the paper reproductions and the ablations.
		for _, kind := range experiments.Kinds() {
			fmt.Printf("%s:\n", kind)
			for _, e := range experiments.ByKind(kind) {
				fmt.Printf("  %-4s %s\n", e.ID, e.Title)
			}
		}
		return
	}

	var ids []string
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if id != "" {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			fmt.Fprintf(os.Stderr, "mosaicbench: no experiments matched %q (try -list)\n", *expFlag)
			os.Exit(2)
		}
	}
	results, err := experiments.RunMetered(ids, *seedFlag, *parFlag, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mosaicbench: %v (try -list)\n", err)
		os.Exit(2)
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "mosaicbench: %s: %v\n", r.Experiment.ID, r.Err)
			os.Exit(1)
		}
		if *csvFlag {
			r.Table.FprintCSV(os.Stdout)
		} else {
			r.Table.Fprint(os.Stdout)
		}
	}
	if reg != nil {
		if err := telemetry.WriteFile(reg, *metrFlag); err != nil {
			fmt.Fprintf(os.Stderr, "mosaicbench: %v\n", err)
			os.Exit(1)
		}
	}
}
