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
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/scenario"
	"mosaic/internal/sim"
	"mosaic/internal/telemetry"
)

func main() {
	var (
		lanes       = flag.Int("lanes", 100, "active data lanes")
		spares      = flag.Int("spares", 4, "spare channels")
		fecName     = flag.String("fec", "rslite", "per-channel FEC: none|hamming72|rslite|kp4")
		unitLen     = flag.Int("unit", 243, "stripe unit length in bytes (multiple of 9)")
		superframes = flag.Int("superframes", 120, "superframes (Exchange rounds) to soak")
		frames      = flag.Int("frames", 24, "frames per superframe")
		frameLen    = flag.Int("framesize", 1500, "bytes per frame")
		seed        = flag.Int64("seed", 1, "simulation seed")
		workers     = flag.Int("workers", 0, "PHY lane workers (0 = all cores; results identical at any value)")
		maintEvery  = flag.Int("maintain-every", 10, "superframes between proactive maintenance passes (0 = never)")
		keepSpares  = flag.Int("keep-spares", 1, "spares held back for hard failures")
		spareAbove  = flag.Float64("spare-above", 1e-6, "proactive remap threshold (estimated BER)")
		schedPath   = flag.String("schedule", "", "JSON fault schedule to replay (default: -scenario witness, -hazard random kills, else the default scenario)")
		scenName    = flag.String("scenario", "", "registered scenario whose witness fault schedule to replay (experiment ID like E26 or spec name; see mosaicbench -list)")
		dumpPath    = flag.String("dump", "", "write the schedule that was run to this file")
		hazard      = flag.Float64("hazard", 0, "per-superframe channel death probability for a random-kill schedule")
		trials      = flag.Int("trials", 0, "run a survival study of N trials instead of one soak")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON")
		metricsPath = flag.String("metrics", "", "write a telemetry snapshot to this file after the soak (.json suffix = JSON, else Prometheus text); see cmd/linkmetricsd for live HTTP exposition")
		macMode     = flag.Bool("mac", false, "soak a full MAC session (CRC framing + LLR + capacity bridge) instead of a bare PHY")
		arqName     = flag.String("arq", "gbn", "LLR retransmission discipline with -mac: gbn|sr")
		vcCount     = flag.Int("vc", 1, "virtual channels with -mac (classes assigned round-robin)")
	)
	flag.Parse()

	fec, err := phy.FECByName(*fecName)
	if err != nil {
		fatal(err)
	}

	if *trials > 0 {
		runStudy(*lanes, *spares, *hazard, *superframes, *trials, *seed, *workers, *jsonOut)
		return
	}

	cfg := phy.Config{
		Lanes:             *lanes,
		Spares:            *spares,
		FEC:               fec,
		UnitLen:           *unitLen,
		PerChannelBitRate: 2e9,
		Seed:              *seed,
		Workers:           *workers,
	}
	link, err := phy.New(cfg)
	if err != nil {
		fatal(err)
	}

	sched, err := buildSchedule(*schedPath, *scenName, *hazard, *lanes+*spares, *superframes, *seed)
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

	if *macMode {
		runMACSoak(link, cfg, sched, *superframes, *frames, *frameLen, *seed,
			*arqName, *vcCount, reg, *metricsPath, *jsonOut)
		return
	}

	res, err := faultinject.Run(faultinject.Config{
		Link:        link,
		Schedule:    sched,
		Superframes: *superframes,
		FramesPerSF: *frames,
		FrameLen:    *frameLen,
		Seed:        *seed,
		Policy: phy.MaintenancePolicy{
			SpareAboveBER: *spareAbove,
			KeepSpares:    *keepSpares,
		},
		MaintainEvery: *maintEvery,
		Metrics:       reg,
	})
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		if err := telemetry.WriteFile(reg, *metricsPath); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("soak: %d+%d channels, %s FEC, %d superframes x %d frames, seed %d\n",
		*lanes, *spares, fec.Name(), *superframes, *frames, *seed)
	for _, e := range sched.Events {
		fmt.Printf("scheduled: %v\n", e)
	}
	fmt.Println()
	for _, line := range res.Log {
		fmt.Println(line)
	}
	fmt.Println()
	fmt.Println(res.Summary())
}

// runMACSoak replays the schedule against the forward link of a
// full-duplex MAC pair: client packets cross the CRC-framed LLR (the
// selected ARQ discipline, split across the configured virtual
// channels) every superframe while reactive sparing remaps failures and
// the bridge renegotiates capacity. The event log is byte-identical at
// any -workers value, like the bare-PHY soak.
func runMACSoak(fwd *phy.Link, cfg phy.Config, sched faultinject.Schedule,
	superframes, packets, packetLen int, seed int64, arqName string, vcs int,
	reg *telemetry.Registry, metricsPath string, jsonOut bool) {
	arq, err := mac.ARQByName(arqName)
	if err != nil {
		fatal(err)
	}
	revCfg := cfg
	revCfg.Seed = cfg.Seed + 1
	rev, err := phy.New(revCfg)
	if err != nil {
		fatal(err)
	}
	var pc mac.PairConfig
	pc.Endpoint.ARQ = arq
	pc.Endpoint.VCs = vcs
	var vcPackets []int
	pc.Endpoint.VCClass, vcPackets = mac.RoundRobinVCs(vcs, packets)
	eng := sim.NewEngine(seed)
	sess, err := mac.NewSession(mac.SessionConfig{
		Engine:       eng,
		Fwd:          fwd,
		Rev:          rev,
		Pair:         pc,
		Schedule:     sched,
		Superframes:  superframes,
		Interval:     1e-5,
		PacketsPerSF: packets,
		VCPackets:    vcPackets,
		PacketLen:    packetLen,
		Seed:         seed,
		Bridge:       mac.NewBridge(fwd, mac.DiscardCapacity{}, 0),
		Metrics:      reg,
	})
	if err != nil {
		fatal(err)
	}
	eng.Run()
	res := sess.Result()
	if reg != nil {
		if err := telemetry.WriteFile(reg, metricsPath); err != nil {
			fatal(err)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("mac soak: %d+%d channels, %s FEC, %s arq, %d vc, %d superframes x %d packets x %dB, seed %d\n",
		cfg.Lanes, cfg.Spares, cfg.FEC.Name(), arq, vcs, superframes, packets, packetLen, seed)
	for _, e := range sched.Events {
		fmt.Printf("scheduled: %v\n", e)
	}
	fmt.Println()
	for _, line := range res.Log {
		fmt.Println(line)
	}
	fmt.Println()
	fmt.Println(res.Summary())
	if res.Err != "" {
		os.Exit(1)
	}
}

// buildSchedule picks the fault script: an explicit file, a library
// scenario's witness schedule, seeded random kills when -hazard is set,
// or the default showcase scenario.
func buildSchedule(path, scenName string, hazard float64, channels, superframes int, seed int64) (faultinject.Schedule, error) {
	if path != "" {
		return faultinject.LoadFile(path)
	}
	if scenName != "" {
		entry, ok := scenario.Lookup(scenName)
		if !ok {
			return faultinject.Schedule{}, fmt.Errorf("unknown scenario %q (see mosaicbench -list)", scenName)
		}
		return scenario.Witness(entry.Spec, channels, superframes, seed)
	}
	if hazard > 0 {
		s := faultinject.RandomKills(rand.New(rand.NewSource(seed)), channels, hazard, superframes)
		s.Seed = seed
		return s, nil
	}
	return faultinject.DefaultScenario(channels, superframes)
}

// runStudy cross-validates pipeline survival against the k-of-n closed
// form, like experiment E22 but at caller-chosen scale.
func runStudy(lanes, spares int, hazard float64, superframes, trials int, seed int64, workers int, jsonOut bool) {
	if hazard <= 0 {
		hazard = 0.002
	}
	res, err := faultinject.SurvivalStudy(faultinject.SurvivalConfig{
		Lanes:       lanes,
		Spares:      spares,
		HazardPerSF: hazard,
		Superframes: superframes,
		Trials:      trials,
		Seed:        seed,
		Workers:     workers,
	})
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("survival study: %d+%d channels, hazard %.2e/superframe, %d superframes, %d trials\n",
		lanes, spares, hazard, superframes, trials)
	fmt.Printf("simulated survival: %.4f  (%d/%d trials kept full width)\n",
		res.SimSurvival, res.Survived, res.Trials)
	fmt.Printf("closed-form k-of-n: %.4f  (|err| %.4f, tolerance %.4f)\n",
		res.ClosedForm, abs(res.SimSurvival-res.ClosedForm), res.Tolerance)
	fmt.Printf("mean remaps/trial: %.2f; %d trials dropped frames (mean first drop sf %.1f)\n",
		res.MeanRemaps, res.DroppedTrials, res.MeanFirstDrop)
	if res.Agrees() {
		fmt.Println("verdict: pipeline agrees with the closed form within Monte-Carlo tolerance")
	} else {
		fmt.Println("verdict: DISAGREEMENT beyond Monte-Carlo tolerance")
		os.Exit(1)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linksoak:", err)
	os.Exit(1)
}
