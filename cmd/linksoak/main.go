// Command linksoak runs deterministic fault-injection soaks against the
// bit-true Mosaic PHY: scripted or seeded-random fault schedules are
// replayed at superframe boundaries while the sparing, monitoring, and
// maintenance machinery reacts, and the run emits an event log of remaps,
// maintenance actions, health transitions, and loss milestones.
//
//	linksoak                                  # default scenario, 100+4 channels
//	linksoak -superframes 500 -hazard 0.001   # random channel deaths
//	linksoak -schedule faults.json            # replay a scripted schedule
//	linksoak -scenario E26                    # replay a library scenario's witness faults
//	linksoak -dump faults.json -hazard 0.002  # write the generated schedule
//	linksoak -trials 200 -spares 2            # survival study vs closed form
//	linksoak -json                            # machine-readable event log
//	linksoak -metrics m.prom                  # dump a telemetry snapshot after the soak
//	linksoak -mac                             # soak a full MAC session (framing + LLR + bridge)
//	linksoak -mac -arq sr -vc 3               # selective repeat over three QoS-classed VCs
//
// With -mac the schedule is replayed against the forward link of a
// full-duplex MAC pair instead of a bare PHY: client packets cross the
// CRC-framed LLR while the bridge renegotiates capacity as sparing
// consumes lanes. -frames/-framesize become client packets per
// superframe and packet length; -arq selects the retransmission
// discipline and -vc the virtual-channel count (classes assigned
// round-robin, per-superframe packets split evenly across VCs).
//
// A fixed -seed and schedule produce a byte-identical event log at any
// -workers value. Schedule files are JSON:
//
//	{"seed": 1, "events": [
//	  {"at": 10, "kind": "kill", "channel": 5},
//	  {"at": 20, "kind": "aging", "channel": 7, "ber": 1e-4, "duration": 30},
//	  {"at": 40, "kind": "burst", "channel": 3, "ber": 3e-4, "duration": 8},
//	  {"at": 60, "kind": "correlated", "channel": 96, "span": 4}
//	]}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"mosaic/cmd/internal/linkflags"
	"mosaic/internal/faultinject"
	"mosaic/internal/scenario"
	"mosaic/internal/telemetry"
)

func main() {
	soak := linkflags.AddSoak(flag.CommandLine, 120, 0)
	var (
		schedPath   = flag.String("schedule", "", "JSON fault schedule to replay (default: -scenario witness, -hazard random kills, else the default scenario)")
		scenName    = flag.String("scenario", "", "registered scenario whose witness fault schedule to replay (experiment ID like E26 or spec name; see mosaicbench -list)")
		dumpPath    = flag.String("dump", "", "write the schedule that was run to this file")
		trials      = flag.Int("trials", 0, "run a survival study of N trials instead of one soak")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON")
		metricsPath = flag.String("metrics", "", "write a telemetry snapshot to this file after the soak (.json suffix = JSON, else Prometheus text); see cmd/linkmetricsd for live HTTP exposition")
	)
	flag.Parse()
	if err := soak.Resolve(); err != nil {
		fatal(err)
	}

	if *trials > 0 {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "fec" {
				fatal(errors.New("-fec does not apply to -trials: the survival study counts raw channel deaths and always runs without FEC"))
			}
		})
		runStudy(soak, *trials, *jsonOut)
		return
	}

	links, err := soak.NewLinks()
	if err != nil {
		fatal(err)
	}
	sched, err := buildSchedule(soak, *schedPath, *scenName)
	if err != nil {
		fatal(err)
	}
	if *dumpPath != "" {
		f, err := os.Create(*dumpPath)
		if err != nil {
			fatal(err)
		}
		if err := sched.Encode(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	var reg *telemetry.Registry
	if *metricsPath != "" {
		reg = telemetry.NewRegistry()
	}
	rep, runErr := soak.Round(links, sched, reg)
	if rep == nil {
		fatal(runErr)
	}
	if reg != nil {
		if err := telemetry.WriteFile(reg, *metricsPath); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		writeJSON(rep.Result)
	} else {
		if soak.MAC.Enabled {
			fmt.Printf("mac soak: %d+%d channels, %s FEC, %s arq, %d vc, %d superframes x %d packets x %dB, seed %d\n",
				soak.Lanes, soak.Spares, soak.FEC.Name(), soak.ARQ, soak.VCs, soak.Superframes, soak.Frames, soak.FrameLen, soak.Seed)
		} else {
			fmt.Printf("soak: %d+%d channels, %s FEC, %d superframes x %d frames, seed %d\n",
				soak.Lanes, soak.Spares, soak.FEC.Name(), soak.Superframes, soak.Frames, soak.Seed)
		}
		for _, e := range sched.Events {
			fmt.Printf("scheduled: %v\n", e)
		}
		fmt.Println()
		for _, line := range rep.Log {
			fmt.Println(line)
		}
		fmt.Println()
		fmt.Println(rep.Summary)
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// buildSchedule picks the fault script: an explicit file, a library
// scenario's witness schedule, seeded random kills when -hazard is set,
// or the default showcase scenario.
func buildSchedule(soak *linkflags.Soak, path, scenName string) (faultinject.Schedule, error) {
	if path != "" {
		return faultinject.LoadFile(path)
	}
	if scenName != "" {
		entry, ok := scenario.Lookup(scenName)
		if !ok {
			return faultinject.Schedule{}, fmt.Errorf("unknown scenario %q (see mosaicbench -list)", scenName)
		}
		return scenario.Witness(entry.Spec, soak.Channels(), soak.Superframes, soak.Seed)
	}
	if soak.Hazard > 0 {
		return soak.RandomKills(soak.Seed), nil
	}
	return faultinject.DefaultScenario(soak.Channels(), soak.Superframes)
}

// runStudy cross-validates pipeline survival against the k-of-n closed
// form, like experiment E22 but at caller-chosen scale.
func runStudy(soak *linkflags.Soak, trials int, jsonOut bool) {
	hazard := soak.Hazard
	if hazard <= 0 {
		hazard = 0.002
	}
	res, err := faultinject.SurvivalStudy(faultinject.SurvivalConfig{
		Lanes:       soak.Lanes,
		Spares:      soak.Spares,
		HazardPerSF: hazard,
		Superframes: soak.Superframes,
		Trials:      trials,
		Seed:        soak.Seed,
		Workers:     soak.Workers,
	})
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		writeJSON(res)
		return
	}
	fmt.Printf("survival study: %d+%d channels, hazard %.2e/superframe, %d superframes, %d trials\n",
		soak.Lanes, soak.Spares, hazard, soak.Superframes, trials)
	fmt.Printf("simulated survival: %.4f  (%d/%d trials kept full width)\n",
		res.SimSurvival, res.Survived, res.Trials)
	fmt.Printf("closed-form k-of-n: %.4f  (|err| %.4f, tolerance %.4f)\n",
		res.ClosedForm, math.Abs(res.SimSurvival-res.ClosedForm), res.Tolerance)
	fmt.Printf("mean remaps/trial: %.2f; %d trials dropped frames (mean first drop sf %.1f)\n",
		res.MeanRemaps, res.DroppedTrials, res.MeanFirstDrop)
	if res.Agrees() {
		fmt.Println("verdict: pipeline agrees with the closed form within Monte-Carlo tolerance")
	} else {
		fmt.Println("verdict: DISAGREEMENT beyond Monte-Carlo tolerance")
		os.Exit(1)
	}
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linksoak:", err)
	os.Exit(1)
}
