package experiments

import (
	"fmt"

	"mosaic/internal/core"
	"mosaic/internal/fiber"
	"mosaic/internal/netsim"
	"mosaic/internal/phy"
)

// E18Waterfall runs the classic FEC waterfall on the bit-true pipeline:
// frame success rate vs injected channel BER for each FEC scheme. It is
// the measured counterpart of the analytic post-FEC column of E5.
func E18Waterfall(seed int64) (Table, error) {
	t := tableFor("E18")
	t.Columns = []string{"BER", "none", "hamming72", "rslite", "kp4"}
	frames := phy.SeededFrames(seed, 150, 1500)
	fecs := []phy.FEC{phy.NoFEC{}, phy.HammingFEC{}, phy.NewRSLite(), phy.NewRSKP4()}
	for _, ber := range []float64{1e-7, 1e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3} {
		row := []string{fe(ber)}
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
			row = append(row, fm(float64(st.FramesDelivered)/float64(st.FramesIn)*100, 1)+"%")
		}
		t.AddRow(row...)
	}
	t.Notes = "the Mosaic operating point sits at BER <= 1e-12 (off the left edge); the waterfall " +
		"shows the margin each scheme buys before the pipeline degrades"
	return t, nil
}

// E20FleetTCO compares 5-year total cost of ownership (link capex + energy
// opex) across deployment plans and fabric sizes.
func E20FleetTCO() (Table, error) {
	t := tableFor("E20")
	t.Columns = []string{"fabric", "plan", "capex_$k", "opex_$k/yr", "5yr_TCO_$k", "vs_all-optics"}
	fabrics := []struct {
		name string
		topo func() (*netsim.Topology, error)
	}{
		{"fat-tree k=16", func() (*netsim.Topology, error) { return netsim.NewFatTree(16, 800e9) }},
		{"leaf-spine 32x8x32", func() (*netsim.Topology, error) { return netsim.NewLeafSpine(32, 8, 32, 800e9) }},
	}
	for _, f := range fabrics {
		topo, err := f.topo()
		if err != nil {
			return t, err
		}
		baseline, err := netsim.Analyze(topo, netsim.AllOptics(), 800e9)
		if err != nil {
			return t, err
		}
		baseTCO := baseline.TCOUSD(5)
		for _, plan := range netsim.Plans() {
			rep, err := netsim.Analyze(topo, plan, 800e9)
			if err != nil {
				return t, err
			}
			saving := "-"
			if plan.Name != "all-optics" && baseTCO > 0 {
				saving = fmt.Sprintf("-%.0f%%", (1-rep.TCOUSD(5)/baseTCO)*100)
			}
			t.AddRow(f.name, plan.Name,
				fm(rep.CapexUSD/1e3, 0), fm(rep.OpexUSDPerYear()/1e3, 1),
				fm(rep.TCOUSD(5)/1e3, 0), saving)
		}
	}
	t.Notes = "energy at $0.10/kWh with PUE 1.5; capex from the order-of-magnitude cost catalog (E15)"
	return t, nil
}

// E21PredictiveMaintenance ages one channel decade-by-decade and compares
// a link that proactively spares degrading channels against one that waits
// for hard failure. LEDs age gracefully; the monitor sees it coming.
func E21PredictiveMaintenance(seed int64) (Table, error) {
	t := tableFor("E21")
	t.Columns = []string{"aging_BER", "proactive_lost", "proactive_state", "reactive_lost", "reactive_state"}
	mk := func() (*phy.Link, error) {
		cfg := phy.DefaultConfig()
		cfg.Lanes = 20
		cfg.Spares = 2
		cfg.Seed = seed
		return phy.New(cfg)
	}
	pro, err := mk()
	if err != nil {
		return t, err
	}
	rea, err := mk()
	if err != nil {
		return t, err
	}
	frames := phy.SeededFrames(seed, 60, 1500)
	policy := phy.DefaultMaintenancePolicy()
	policy.KeepSpares = 0
	var lostPro, lostRea int
	const victim = 6
	for _, ber := range []float64{1e-9, 1e-7, 1e-5, 1e-3, 0.4} {
		pro.SetChannelBER(victim, ber)
		rea.SetChannelBER(victim, ber)
		for r := 0; r < 10; r++ {
			if _, st, err := pro.Exchange(frames); err == nil {
				lostPro += st.FramesIn - st.FramesDelivered
			}
			if _, st, err := rea.Exchange(frames); err == nil {
				lostRea += st.FramesIn - st.FramesDelivered
			}
		}
		pro.Maintain(policy)
		// Reactive: only hard failure detection (monitor Failed state).
		rea.SpareFailed(nil)
		stateOf := func(l *phy.Link) string {
			if l.Mapper().LaneOf(victim) == -1 {
				return "replaced"
			}
			return "in service"
		}
		t.AddRow(fe(ber),
			fmt.Sprintf("%d", lostPro), stateOf(pro),
			fmt.Sprintf("%d", lostRea), stateOf(rea))
	}
	t.Notes = "proactive replacement happens around 1e-5 estimated BER with zero frame loss; " +
		"the reactive link waits until the channel is effectively dead and pays for it in frames"
	return t, nil
}

// E19OpticsBudget sweeps the imaging train: lens NA, emitter beaming, and
// defocus, each against the resulting link reach.
func E19OpticsBudget() (Table, error) {
	t := tableFor("E19")
	t.Columns = []string{"variant", "spot_um", "optics_loss_dB", "reach_m"}
	base := core.DefaultDesign()
	add := func(name string, o fiber.ImagingOptics, chip float64) error {
		d, err := base.WithOptics(o, chip)
		if err != nil {
			t.AddRow(name, "-", fm(o.TotalInsertionDB(base.Fiber.NA), 2), "unbuildable")
			return nil
		}
		t.AddRow(name,
			fm(d.SpotDiameterM*1e6, 1),
			fm(o.TotalInsertionDB(base.Fiber.NA), 2),
			fm(d.MaxReach(1e-12), 1))
		return nil
	}

	nominal := fiber.DefaultOptics()
	if err := add("nominal (NA 0.5, beamed 3x)", nominal, 0.40); err != nil {
		return t, err
	}
	lambertian := nominal
	lambertian.DirectionalityGain = 1
	if err := add("plain Lambertian emitter", lambertian, 0.40); err != nil {
		return t, err
	}
	lowNA := nominal
	lowNA.LensNA = 0.3
	if err := add("cheap lens (NA 0.3)", lowNA, 0.40); err != nil {
		return t, err
	}
	for _, dz := range []float64{50e-6, 100e-6, 200e-6} {
		o := nominal
		o.DefocusM = dz
		if err := add(fmt.Sprintf("defocus %0.0f um", dz*1e6), o, 0.40); err != nil {
			return t, err
		}
	}
	t.Notes = "beaming (on-chip microlenses) is worth ~4.8 dB of budget; focus tolerance is " +
		"hundreds of microns — injection-moulded assembly territory, not active alignment"
	return t, nil
}
