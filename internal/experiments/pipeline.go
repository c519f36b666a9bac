package experiments

import (
	"fmt"
	"math"
	"sort"

	"mosaic/internal/core"
	"mosaic/internal/mac"
	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
)

// E5PrototypeBER reproduces the 100-channel prototype's per-channel BER
// distribution with manufacturing variation, pre- and post-FEC.
func E5PrototypeBER(seed int64) (Table, error) {
	t := tableFor("E5")
	t.Columns = []string{"percentile", "pre_FEC_BER", "post_FEC_blockerr"}
	d := core.DefaultDesign()
	d.Seed = seed
	d.LengthM = 40 // long enough that variation is visible
	rep, err := d.Evaluate()
	if err != nil {
		return t, err
	}
	var bers []float64
	for _, c := range rep.Channels {
		if !c.Dead {
			bers = append(bers, c.BER)
		}
	}
	sort.Float64s(bers)
	pct := func(p float64) float64 {
		i := int(p * float64(len(bers)-1))
		return bers[i]
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		ber := pct(p)
		t.AddRow(fm(p*100, 0)+"%", fe(ber), fe(rsLiteBlockErr(ber)))
	}
	t.Notes = fmt.Sprintf("%d live channels at %gm; %d dead at manufacture (spared out)",
		len(bers), d.LengthM, rep.DeadCount)
	return t, nil
}

// rsLiteBlockErr returns the post-FEC block error probability of RS(68,64)
// (t=2, byte symbols) at the given channel BER.
func rsLiteBlockErr(ber float64) float64 {
	ps := 1 - math.Pow(1-ber, 8) // byte-symbol error probability
	if ps <= 0 {
		return 0
	}
	const n, tcorr = 68, 2
	// P[block fails] = P[more than t symbol errors].
	var ok float64
	for i := 0; i <= tcorr; i++ {
		ok += math.Exp(logChoose(n, i) +
			float64(i)*math.Log(ps) + float64(n-i)*math.Log1p(-ps))
	}
	if ok > 1 {
		ok = 1
	}
	return 1 - ok
}

func logChoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// E10EndToEnd drives the bit-true 100-channel PHY over increasing reach and
// reports delivery, corrections, and efficiency.
func E10EndToEnd(seed int64) (Table, error) {
	t := tableFor("E10")
	t.Columns = []string{"length_m", "frames_ok", "frames_bad", "corrections", "goodput_frac"}
	frames := phy.SeededFrames(seed, 200, 1500)
	// The delivered frames are only counted, never kept, so one arena
	// serves every reach point.
	var buf phy.ExchangeBuf
	for _, l := range []float64{2, 20, 40, 50, 60, 70, 80} {
		d := core.DefaultDesign()
		d.Seed = seed
		d.LengthM = l
		link, err := d.BuildPHY()
		if err != nil {
			return t, err
		}
		_, st, err := link.ExchangeInto(&buf, frames)
		if err != nil {
			return t, err
		}
		goodput := 0.0
		if st.WireBytes > 0 {
			goodput = float64(st.PayloadBytes) / float64(st.WireBytes)
		}
		t.AddRow(fm(l, 0), fmt.Sprintf("%d/%d", st.FramesDelivered, st.FramesIn),
			fmt.Sprintf("%d", st.FramesLost+st.FramesCorrupted),
			fmt.Sprintf("%d", st.Corrections), fm(goodput, 3))
	}
	return t, nil
}

// E11Datacenter compares network-wide link power and failure rates for the
// three deployment plans on fat-trees.
func E11Datacenter() (Table, error) {
	t := tableFor("E11")
	t.Columns = []string{"fat-tree_k", "hosts", "plan", "power_kW", "vs_all-optics", "link_failures/yr"}
	for _, k := range []int{8, 16, 24} {
		topo, err := netsim.NewFatTree(k, 800e9)
		if err != nil {
			return t, err
		}
		baseline, err := netsim.Analyze(topo, netsim.AllOptics(), 800e9)
		if err != nil {
			return t, err
		}
		for _, plan := range netsim.Plans() {
			rep, err := netsim.Analyze(topo, plan, 800e9)
			if err != nil {
				return t, err
			}
			saving := "-"
			if plan.Name != "all-optics" && baseline.PowerW > 0 {
				saving = fmt.Sprintf("-%.0f%%", (1-rep.PowerW/baseline.PowerW)*100)
			}
			t.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", topo.NumHosts()),
				plan.Name, fm(rep.PowerW/1e3, 2), saving, fm(rep.FailuresPerYear, 2))
		}
	}
	t.Notes = "plans: DAC+optics = copper in rack, optics above; mosaic = Mosaic wherever 50m reaches"
	return t, nil
}

// E12Degradation contrasts graceful degradation (Mosaic channel sparing
// exhausted, capacity -4%) against optics-style link-down on the tail FCT
// of a loaded fat-tree.
func E12Degradation(seed int64) (Table, error) {
	t := tableFor("E12")
	t.Columns = []string{"scenario", "flows", "stalled", "mean_FCT_ms", "p99_FCT_ms"}
	scenarios := []struct {
		name string
		tier netsim.Tier
		mode faultMode
	}{
		{"no-fault", netsim.TierHostToR, faultNone},
		{"mosaic-access(-4%)", netsim.TierHostToR, faultMosaicBridge},
		{"optics-access-down", netsim.TierHostToR, faultLinkDown},
		{"mosaic-fabric(-4%)", netsim.TierToRAgg, faultMosaicBridge},
		{"optics-fabric-down", netsim.TierToRAgg, faultLinkDown},
	}
	for _, sc := range scenarios {
		st, err := runFaultScenario(seed, sc.tier, sc.mode)
		if err != nil {
			return t, err
		}
		t.AddRow(sc.name, fmt.Sprintf("%d", st.Count+st.Stalled),
			fmt.Sprintf("%d", st.Stalled),
			fm(float64(st.Mean)*1e3, 3), fm(float64(st.P99)*1e3, 3))
	}
	t.Notes = "fabric link-down is absorbed by ECMP rerouting; access link-down strands the host — " +
		"exactly where Mosaic's graceful degradation matters most; mosaic rows degrade via the " +
		"mac.Bridge (monitor -> renegotiation), not a hand-wired capacity edit"
	return t, nil
}

// faultMode selects how runFaultScenario damages the victim link.
type faultMode int

const (
	faultNone faultMode = iota
	// faultMosaicBridge kills 8 of the victim's 104 channels: sparing
	// absorbs 4, the lane count degrades 100->96, and the mac.Bridge
	// renegotiates the flow-sim capacity to 0.96 on its own.
	faultMosaicBridge
	// faultLinkDown is the optics-style failure: the whole link dies.
	faultLinkDown
)

// runFaultScenario runs the shared workload with a fault applied to one
// link of the given tier once ~15% of flows have arrived. Flows that
// become unroutable count as stalled.
func runFaultScenario(seed int64, tier netsim.Tier, mode faultMode) (netsim.FCTStats, error) {
	topo, err := netsim.NewFatTree(8, 800e9)
	if err != nil {
		return netsim.FCTStats{}, err
	}
	fs := netsim.NewFlowSim(topo)
	dist := workload.WebSearch()
	arr := workload.NewPoissonForLoad(0.4, topo.NumHosts(), 800e9, dist.MeanBits())
	rng := sim.RNG(seed, "workload")

	// Inject 3000 flows with Poisson arrivals.
	const nflows = 3000
	unroutable := fs.OfferPoisson(nflows, dist, arr, rng)

	if mode != faultNone {
		victim := topo.LinksByTier()[tier][0]
		fs.RunUntil(sim.Time(0.15 * nflows / arr.RatePerSec))
		switch mode {
		case faultLinkDown:
			fs.FailLink(victim)
		case faultMosaicBridge:
			// A Mosaic endpoint on the victim link: 100 lanes plus 4
			// spares, bridged into the flow sim. Killing 8 channels
			// exhausts sparing and degrades the lane count to 96; one
			// Sync after the burst renegotiates capacity to 0.96
			// (post-remap, one renegotiation for all eight).
			link, err := phy.New(phy.Config{
				Lanes:             100,
				Spares:            4,
				FEC:               phy.NoFEC{},
				UnitLen:           243,
				PerChannelBitRate: 8e9,
				Seed:              seed,
			})
			if err != nil {
				return netsim.FCTStats{}, err
			}
			bridge := mac.NewBridge(link)
			for ch := 0; ch < 8; ch++ {
				link.FailChannel(ch)
			}
			bridge.Sync()
			fs.SetLinkCapacityFraction(victim, bridge.Fraction())
		}
	}
	fs.Run()
	st := netsim.Stats(fs.Records())
	st.Stalled += *unroutable
	return st, nil
}

// --- Ablations ---

// A1Oversampling contrasts many-core channel spots against single-core
// mapping for misalignment tolerance.
func A1Oversampling() (Table, error) {
	t := tableFor("A1")
	t.Columns = []string{"offset_um", "group_spot_40um_loss_dB", "single_core_4um_loss_dB"}
	d := core.DefaultDesign()
	for _, off := range []float64{0, 1, 2, 5, 10, 15} {
		group := d.Fiber.CouplingLossDB(40e-6, off*1e-6)
		single := d.Fiber.CouplingLossDB(4e-6, off*1e-6)
		t.AddRow(fm(off, 0), fm(group, 2), fm(single, 2))
	}
	t.Notes = "the single-core spot goes dark within ~4um of offset; the group barely notices 10um"
	return t, nil
}

// A2FECChoice sweeps channel BER across FEC schemes on the bit-true link.
func A2FECChoice(seed int64) (Table, error) {
	t := tableFor("A2")
	t.Columns = []string{"BER", "fec", "overhead", "frames_ok", "corrections"}
	frames := phy.SeededFrames(seed, 100, 1500)
	fecs := []phy.FEC{phy.NoFEC{}, phy.HammingFEC{}, phy.NewRSLite(), phy.NewRSKP4()}
	for _, ber := range []float64{1e-7, 1e-5, 1e-4} {
		for _, fec := range fecs {
			cfg := phy.DefaultConfig()
			cfg.FEC = fec
			cfg.Seed = seed
			link, err := phy.New(cfg)
			if err != nil {
				return t, err
			}
			for p := 0; p < link.Mapper().NumChannels(); p++ {
				link.SetChannelBER(p, ber)
			}
			_, st, err := link.Exchange(frames)
			if err != nil {
				return t, err
			}
			t.AddRow(fe(ber), fec.Name(), fm(fec.Overhead()*100, 1)+"%",
				fmt.Sprintf("%d/%d", st.FramesDelivered, st.FramesIn),
				fmt.Sprintf("%d", st.Corrections))
		}
	}
	return t, nil
}

// A3UnitSize sweeps the stripe-unit / channel-frame size.
func A3UnitSize(seed int64) (Table, error) {
	t := tableFor("A3")
	t.Columns = []string{"unit_B", "goodput_frac", "frames_ok@1e-5"}
	frames := phy.SeededFrames(seed, 100, 1500)
	for _, unit := range []int{63, 117, 243, 495, 999} {
		cfg := phy.DefaultConfig()
		cfg.UnitLen = unit
		cfg.Seed = seed
		link, err := phy.New(cfg)
		if err != nil {
			return t, err
		}
		for p := 0; p < link.Mapper().NumChannels(); p++ {
			link.SetChannelBER(p, 1e-5)
		}
		_, st, err := link.Exchange(frames)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%d", unit), fm(link.GoodputFraction(), 3),
			fmt.Sprintf("%d/%d", st.FramesDelivered, st.FramesIn))
	}
	return t, nil
}

// A4SparingPolicy injects successive channel deaths and tracks capacity.
func A4SparingPolicy(seed int64) (Table, error) {
	t := tableFor("A4")
	t.Columns = []string{"failures", "with_4_spares_rate", "no_spares_rate", "with_spares_ok", "no_spares_ok"}
	frames := phy.SeededFrames(seed, 50, 1200)
	mk := func(spares int) (*phy.Link, error) {
		cfg := phy.DefaultConfig()
		cfg.Lanes = 20
		cfg.Spares = spares
		cfg.Seed = seed
		return phy.New(cfg)
	}
	spared, err := mk(4)
	if err != nil {
		return t, err
	}
	bare, err := mk(0)
	if err != nil {
		return t, err
	}
	for failures := 0; failures <= 6; failures++ {
		if failures > 0 {
			victim := failures - 1
			spared.KillChannel(victim)
			spared.FailChannel(victim)
			bare.KillChannel(victim)
			bare.FailChannel(victim)
		}
		_, stS, err := spared.Exchange(frames)
		if err != nil {
			return t, err
		}
		_, stB, err := bare.Exchange(frames)
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprintf("%d", failures),
			fm(spared.AggregateRate()/1e9, 0)+"G", fm(bare.AggregateRate()/1e9, 0)+"G",
			fmt.Sprintf("%d/%d", stS.FramesDelivered, stS.FramesIn),
			fmt.Sprintf("%d/%d", stB.FramesDelivered, stB.FramesIn))
	}
	return t, nil
}
