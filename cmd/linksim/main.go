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
//
// Each mode refuses the flags it would ignore: -run and -eye under
// -sweep, and the design flags (-length -offset -channels -chanrate
// -spares -fec) under -config.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"

	"mosaic/cmd/internal/linkflags"
	"mosaic/internal/channel"
	"mosaic/internal/core"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/units"
)

// cli is linksim's command line: the shared link and MAC blocks, the
// design flags and what to print.
type cli struct {
	link *linkflags.Link
	mac  *linkflags.MAC

	lengthM, offsetM, chanRate float64
	channels, frames, par      int
	run, sweep, eye            bool
	cfgPath                    string
}

// addFlags registers linksim's flags on fs.
func addFlags(fs *flag.FlagSet) *cli {
	c := &cli{link: linkflags.AddLink(fs), mac: linkflags.AddMAC(fs)}
	fs.Float64Var(&c.lengthM, "length", 2, "fiber length in metres")
	fs.Float64Var(&c.offsetM, "offset", 0, "lateral misalignment in metres (e.g. 10e-6)")
	fs.IntVar(&c.channels, "channels", 100, "data channels")
	fs.Float64Var(&c.chanRate, "chanrate", 2e9, "per-channel rate in bit/s")
	fs.BoolVar(&c.run, "run", false, "also run bit-true traffic through the link")
	fs.IntVar(&c.frames, "frames", 200, "frames to exchange with -run")
	fs.BoolVar(&c.sweep, "sweep", false, "print a reach sweep instead")
	fs.BoolVar(&c.eye, "eye", false, "render the channel eye diagram")
	fs.StringVar(&c.cfgPath, "config", "", "JSON design config (in place of the design flags -length -offset -channels -chanrate -spares -fec, which it refuses)")
	fs.IntVar(&c.par, "par", 0, "PHY lane workers for -run (0 = all cores, 1 = serial; same results either way)")
	return c
}

// ignores names the mode that would ignore flag name, or "": -sweep
// prints the reach table in place of the exchange and the eye, and
// -config takes the whole design from its file.
func (c *cli) ignores(name string) string {
	switch {
	case c.sweep && (name == "run" || name == "eye"):
		return "-sweep"
	case c.cfgPath != "" && slices.Contains([]string{"length", "offset", "channels", "chanrate", "spares", "fec"}, name):
		return "-config"
	}
	return ""
}

// resolve refuses a flag set on fs that the selected mode ignores, and
// looks -fec and -arq up; call it after fs.Parse.
func (c *cli) resolve(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if mode := c.ignores(f.Name); err == nil && mode != "" {
			err = fmt.Errorf("-%s does not apply to %s", f.Name, mode)
		}
	})
	if err != nil {
		return err
	}
	if err := c.link.Resolve(); err != nil {
		return err
	}
	return c.mac.Resolve()
}

func main() {
	c := addFlags(flag.CommandLine)
	flag.Parse()
	if err := c.resolve(flag.CommandLine); err != nil {
		fatal(err)
	}

	var d core.Design
	if c.cfgPath != "" {
		var err error
		d, err = core.LoadDesign(c.cfgPath)
		if err != nil {
			fatal(err)
		}
	} else {
		d = core.DefaultDesign()
		d.LengthM = c.lengthM
		d.LateralOffsetM = c.offsetM
		d.AggregateRate = float64(c.channels) * c.chanRate
		d.ChannelRate = c.chanRate
		d.Spares = c.link.Spares
		d.Seed = c.link.Seed
		if c.channels > 150 {
			// Denser grid for big arrays (the 800G-class packing).
			d.ChannelPitchM = 25e-6
			d.SpotDiameterM = 20e-6
		}
		d.FEC = c.link.FEC
		if err := d.Validate(); err != nil {
			fatal(err)
		}
	}
	d.Workers = c.par
	report(d, c.link.Seed, c.eye, c.run, c.frames, c.sweep)
	if c.mac.Enabled {
		macDemo(d, c.link.Seed, c.frames, c.mac)
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
