// Command linksim analyses and simulates a single Mosaic link:
//
//	linksim -length 30                       # budget at 30 m
//	linksim -length 30 -offset 10e-6         # with 10 µm misalignment
//	linksim -channels 400 -spares 16         # an 800G configuration
//	linksim -length 50 -frames 500 -run      # bit-true traffic simulation
//	linksim -fec kp4 -run                    # switch the per-channel FEC
//	linksim -length 50 -mac                  # MAC-framed traffic (CRC framing + go-back-N LLR)
//	linksim -length 50 -mac -arq sr          # selective-repeat retransmission instead
//	linksim -length 50 -mac -arq sr -vc 3    # three QoS-classed virtual channels
//	linksim -length 45 -eye                  # render the eye diagram
//	linksim -sweep                           # reach sweep table
//	linksim -config design.json -run         # load a JSON design
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mosaic/cmd/internal/linkflags"
	"mosaic/internal/channel"
	"mosaic/internal/core"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/units"
)

func main() {
	link := linkflags.AddLink(flag.CommandLine)
	macf := linkflags.AddMAC(flag.CommandLine)
	var (
		lengthM  = flag.Float64("length", 2, "fiber length in metres")
		offsetM  = flag.Float64("offset", 0, "lateral misalignment in metres (e.g. 10e-6)")
		channels = flag.Int("channels", 100, "data channels")
		chanRate = flag.Float64("chanrate", 2e9, "per-channel rate in bit/s")
		run      = flag.Bool("run", false, "also run bit-true traffic through the link")
		frames   = flag.Int("frames", 200, "frames to exchange with -run")
		sweep    = flag.Bool("sweep", false, "print a reach sweep instead")
		eye      = flag.Bool("eye", false, "render the channel eye diagram")
		cfgPath  = flag.String("config", "", "JSON design config (overrides other design flags)")
		par      = flag.Int("par", 0, "PHY lane workers for -run (0 = all cores, 1 = serial; same results either way)")
	)
	flag.Parse()
	if err := link.Resolve(); err != nil {
		fatal(err)
	}
	if err := macf.Resolve(); err != nil {
		fatal(err)
	}

	var d core.Design
	if *cfgPath != "" {
		var err error
		d, err = core.LoadDesign(*cfgPath)
		if err != nil {
			fatal(err)
		}
	} else {
		d = core.DefaultDesign()
		d.LengthM = *lengthM
		d.LateralOffsetM = *offsetM
		d.AggregateRate = float64(*channels) * *chanRate
		d.ChannelRate = *chanRate
		d.Spares = link.Spares
		d.Seed = link.Seed
		if *channels > 150 {
			// Denser grid for big arrays (the 800G-class packing).
			d.ChannelPitchM = 25e-6
			d.SpotDiameterM = 20e-6
		}
		d.FEC = link.FEC
		if err := d.Validate(); err != nil {
			fatal(err)
		}
	}
	d.Workers = *par
	report(d, link.Seed, *eye, *run, *frames, *sweep)
	if macf.Enabled {
		macDemo(d, link.Seed, *frames, macf)
	}
}

// macDemo pushes client packets through a full-duplex MAC pair built on
// the designed link: CRC framing, idle fill, and the selected LLR
// discipline (go-back-N or selective repeat, over one or more virtual
// channels) all run over the bit-true PHY, so residual post-FEC errors
// surface as retransmissions instead of lost frames.
func macDemo(d core.Design, seed int64, packets int, macf *linkflags.MAC) {
	fwd, err := d.BuildPHY()
	if err != nil {
		fatal(err)
	}
	rd := d
	rd.Seed = seed + 1
	rev, err := rd.BuildPHY()
	if err != nil {
		fatal(err)
	}
	pc := mac.PairConfig{Endpoint: mac.Config{Window: 64, RetxTimeout: 2, MaxPayload: 1500,
		PayloadBudget: 16 * (1500 + mac.OverheadV2)}}
	macf.Endpoint(&pc.Endpoint, 0)
	delivered := 0
	pair, err := mac.NewPair(fwd, rev, pc, nil, func([]byte) { delivered++ })
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, 1500)
	sent, ticks := 0, 0
	for ; delivered < packets && ticks < 8*packets; ticks++ {
		for k := 0; k < 8 && sent < packets; k++ {
			rng.Read(payload)
			if err := pair.A.SendVC(sent%macf.VCs, payload); err != nil {
				fatal(err)
			}
			sent++
		}
		if err := pair.Tick(); err != nil {
			fatal(err)
		}
	}
	a, b := pair.A.Stats(), pair.B.Stats()
	fmt.Printf("\nmac exchange (%s, %d vc): %d/%d packets delivered in %d superframes\n",
		macf.ARQ, macf.VCs, delivered, sent, ticks)
	fmt.Printf("llr: %d data tx, %d retransmits, %d timeouts, %d credit stalls\n",
		a.DataTx, a.Retransmits, a.Timeouts, a.CreditStalls)
	fmt.Printf("deframer: %d frames, %d crc rejects, %d resync bytes skipped\n",
		b.Deframe.Frames, b.Deframe.CRCRejects, b.Deframe.SkippedBytes)
	if macf.VCs > 1 {
		for vc := 0; vc < pair.B.NumVCs(); vc++ {
			v := pair.B.VCSnapshot(vc)
			fmt.Printf("vc %d (class %d): %d delivered, %d reordered\n",
				vc, v.Class, v.Delivered, v.Reordered)
		}
	}
}

func report(d core.Design, seed int64, eye, run bool, frames int, sweep bool) {
	if sweep {
		fmt.Printf("%8s %10s %12s %10s\n", "len_m", "rx_dBm", "BER", "margin_dB")
		for _, l := range []float64{1, 2, 5, 10, 20, 30, 40, 50, 60, 70} {
			dd := d
			dd.LengthM = l
			res, err := dd.NominalChannel()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%8.0f %10.1f %12.2e %10.1f\n", l, res.RxPowerDBm, res.BER, res.MarginDB)
		}
		fmt.Printf("\nmax reach @1e-12: %.1f m\n", d.MaxReach(1e-12))
		return
	}

	res, err := d.NominalChannel()
	if err != nil {
		fatal(err)
	}
	rep, err := d.Evaluate()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("design: %d+%d channels x %s = %s aggregate, %s FEC\n",
		d.DataChannels(), d.Spares, units.DataRate(d.ChannelRate),
		units.DataRate(d.AggregateRate), d.FEC.Name())
	fmt.Printf("path:   %.1f m imaging fiber, %.1f um offset\n", d.LengthM, d.LateralOffsetM*1e6)
	fmt.Printf("nominal channel: %v\n", res)
	fmt.Printf("population: median BER %.2e, worst %.2e, worst margin %.1f dB, %d dead, %d above 1e-12\n",
		rep.MedianBER, rep.WorstBER, rep.WorstMargin, rep.DeadCount, rep.BelowTarget)
	b := d.PowerBudget()
	fmt.Printf("power:  %s pair (%.2f pJ/bit)\n", units.Power(b.TotalW()), b.PJPerBit())
	fit, surv := d.Reliability(5)
	fmt.Printf("reliability: %.1f effective FIT, %.6f 5-year survival\n", float64(fit), surv)

	if eye {
		cfg, err := channel.EyeFromOptical(d.NominalOpticalParams(), seed)
		if err != nil {
			fatal(err)
		}
		cfg.NumBits = 4000
		e, err := channel.SimulateEye(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\neye diagram (two UIs at %.1f m):\n%s", d.LengthM, e.Render(18))
	}

	if !run {
		return
	}
	link, err := d.BuildPHY()
	if err != nil {
		fatal(err)
	}
	_, st, err := link.Exchange(phy.SeededFrames(seed, frames, 1500))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nbit-true exchange: %d/%d frames delivered, %d corrupted, %d units lost, %d FEC corrections\n",
		st.FramesDelivered, st.FramesIn, st.FramesCorrupted, st.UnitsLost, st.Corrections)
	fmt.Printf("efficiency: %.3f payload/wire (predicted %.3f)\n",
		float64(st.PayloadBytes)/float64(st.WireBytes), link.GoodputFraction())
	fmt.Printf("latency: %v\n", link.LatencyBudget())
	worst := link.Monitor().WorstChannels(3)
	for _, h := range worst {
		fmt.Printf("worst channel %d: state=%v estBER=%.2e\n", h.Physical, h.State, h.EstimatedBER())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linksim:", err)
	os.Exit(1)
}
