package experiments

import (
	"fmt"
	"math"

	"mosaic/internal/channel"
	"mosaic/internal/core"
	"mosaic/internal/photonics"
	"mosaic/internal/phy"
	"mosaic/internal/power"
	"mosaic/internal/serdes"
)

// E13Temperature sweeps case temperature: microLED vs laser optical power
// penalty and the wear-out acceleration each suffers.
func E13Temperature() (Table, error) {
	t := tableFor("E13")
	t.Columns = []string{"temp_K", "LED_penalty_dB", "VCSEL_penalty_dB", "DFB_penalty_dB", "wearout_accel"}
	led := photonics.DefaultMicroLED()
	iLED := led.NominalCurrent()
	vcsel := photonics.VCSEL850()
	dfb := photonics.DFB1310()
	iV := 4e-3
	iD, err := dfb.CurrentForPower(1e-3)
	if err != nil {
		return t, err
	}
	for _, temp := range []float64{300, 320, 340, 360, 380, 400} {
		t.AddRow(fm(temp, 0),
			fm(led.PowerPenaltyDB(iLED, temp), 2),
			fmtPenalty(vcsel.PowerPenaltyDB(iV, temp)),
			fmtPenalty(dfb.PowerPenaltyDB(iD, temp)),
			fm(photonics.AccelerationFactor(0.7, temp), 1))
	}
	t.Notes = "penalties at fixed drive current; 'inf' = threshold exceeded drive (laser dark); " +
		"wear-out acceleration is Arrhenius at 0.7 eV and multiplies each device's base FIT"
	return t, nil
}

func fmtPenalty(v float64) string {
	if math.IsInf(v, 1) {
		return "inf(dark)"
	}
	return fm(v, 2)
}

// E14Latency compares one-way link latency across technologies, including
// the Mosaic unit-size knob.
func E14Latency() (Table, error) {
	t := tableFor("E14")
	t.Columns = []string{"config", "serialize_ns", "fec_ns", "other_ns", "total_ns"}
	// Conventional references (per-lane accumulation + decode pipelines):
	// KP4 block = 5440 bits at 106.25G = 51ns, DSP ~60ns, decode ~150ns.
	t.AddRow("DAC (passive)", "0", "0", "5", "5")
	t.AddRow("DR/AOC (PAM4 DSP+KP4)", "51", "210", "25", "286")
	t.AddRow("LPO (linear, host FEC)", "51", "160", "10", "221")
	for _, unit := range []int{63, 117, 243, 495} {
		cfg := phy.DefaultConfig()
		cfg.Lanes = 400
		cfg.Spares = 16
		cfg.UnitLen = unit
		link, err := phy.New(cfg)
		if err != nil {
			return t, err
		}
		lb := link.LatencyBudget()
		t.AddRow(fmt.Sprintf("Mosaic unit=%dB", unit),
			fm(lb.SerializationNs, 0), fm(lb.FECNs, 0),
			fm(lb.DeskewNs+lb.GearboxNs, 0), fm(lb.TotalNs(), 0))
	}
	t.Notes = "wide-and-slow trades unit-fill latency against goodput (see A3); small units reach " +
		"the DSP-optics latency class while large units maximise efficiency"
	return t, nil
}

// E15Cost compares deployed-link cost across reach, locating the band
// where Mosaic is the cheapest buildable option.
func E15Cost() (Table, error) {
	t := tableFor("E15")
	t.Columns = []string{"length_m", "DAC", "AOC", "DR", "LPO", "CPO", "Mosaic", "cheapest"}
	techs := power.AllTechs()
	for _, l := range []float64{1, 2, 3, 5, 10, 20, 30, 50, 100} {
		row := []string{fm(l, 0)}
		for _, tech := range techs {
			c, err := power.Cost(tech, 800e9, l)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, "$"+fm(c.TotalUSD(), 0))
		}
		best, _, err := power.CheapestAt(800e9, l)
		if err != nil {
			row = append(row, "none")
		} else {
			row = append(row, best.String())
		}
		t.AddRow(row...)
	}
	t.Notes = "n/a = length exceeds the technology's reach; dollar figures are order-of-magnitude"
	return t, nil
}

// E16BlastRadius runs the identical pipeline as 8×106.25G (narrow-and-fast,
// KP4, no spares) and 400×2G (+16 spares) and kills one transmitter in
// each: the architectural failure-mode contrast in one table.
func E16BlastRadius(seed int64) (Table, error) {
	t := tableFor("E16")
	t.Columns = []string{"architecture", "healthy", "after 1 death", "after repair action"}
	rng := phy.SeededFrames(seed, 100, 1500)

	run := func(cfg phy.Config) (h, dead, repaired string, err error) {
		link, err := phy.New(cfg)
		if err != nil {
			return "", "", "", err
		}
		ex := func() string {
			_, st, err2 := link.Exchange(rng)
			if err2 != nil {
				err = err2
				return "err"
			}
			return fmt.Sprintf("%d/%d", st.FramesDelivered, st.FramesIn)
		}
		h = ex()
		link.KillChannel(0)
		dead = ex()
		link.FailChannel(0) // Mosaic: spare in; conventional: lane removed
		repaired = ex()
		return h, dead, repaired, err
	}

	conv := phy.ConventionalConfig()
	conv.Seed = seed
	h, d, r, err := run(conv)
	if err != nil {
		return t, err
	}
	t.AddRow("8x106G (KP4, no spares)", h, d, r+" at 700G (lane lost)")

	mos := phy.DefaultConfig()
	mos.Lanes = 400
	mos.Spares = 16
	mos.Seed = seed
	h, d, r, err = run(mos)
	if err != nil {
		return t, err
	}
	t.AddRow("400x2G (+16 spares)", h, d, r+" at 800G (spared)")
	t.Notes = "same pipeline both rows; only width and sparing differ. The conventional link cannot " +
		"deliver during the death (12.5% of all units lost corrupts nearly every frame) and permanently " +
		"loses an eighth of its rate; Mosaic loses 0.25% of units transiently and nothing after sparing"
	return t, nil
}

// E17Equalization quantifies the DSP burden: FFE taps needed to open each
// channel's eye. This is where the conventional transceiver's dominant
// power consumer comes from, and why Mosaic doesn't have one.
func E17Equalization() (Table, error) {
	t := tableFor("E17")
	t.Columns = []string{"channel", "baud_G", "raw_ISI", "taps_needed", "eq_eye"}
	d := core.DefaultDesign()
	res, err := d.NominalChannel()
	if err != nil {
		return t, err
	}
	type row struct {
		name string
		h    serdes.FrequencyResponse
		baud float64
	}
	copper := channel.Twinax26AWG()
	il := func(length float64) serdes.FrequencyResponse {
		return serdes.FromInsertionLossDB(func(f float64) float64 {
			return copper.InsertionLossDB(f, length) - copper.FixedDB // cable only
		})
	}
	rows := []row{
		{"Mosaic 2G NRZ (LED+RX)", serdes.SinglePole(res.BandwidthHz), 2e9},
		{"copper 1m @53Gbaud", il(1), 53.125e9},
		{"copper 2m @53Gbaud", il(2), 53.125e9},
		{"copper 3m @53Gbaud", il(3), 53.125e9},
		{"copper 2m @12.9Gbaud (25G NRZ)", il(2), 12.890625e9},
	}
	for _, r := range rows {
		p, err := serdes.SamplePulse(r.h, r.baud, 6, 14)
		if err != nil {
			return t, err
		}
		n := serdes.TapsNeeded(p, 41, 0.3)
		eq := p
		if n > 0 && n <= 41 {
			ffe, err := serdes.DesignFFE(p, n)
			if err != nil {
				return t, err
			}
			eq = ffe.Apply(p)
		}
		taps := fmt.Sprintf("%d", n)
		if n > 41 {
			taps = ">41"
		}
		t.AddRow(r.name, fm(r.baud/1e9, 1), fm(p.ISIRatio(), 2), taps, fm(eq.EyeOpening(), 2))
	}
	t.Notes = "taps=0 means the raw channel meets the target: no FFE, no DFE, no CDR complexity — " +
		"the analog front end is a slicer"
	return t, nil
}

// A5Modulation contrasts NRZ against PAM4 per channel: PAM4 would halve
// the channel count but needs ~5 dB more optical budget — the wrong trade
// for LED launch powers.
func A5Modulation() (Table, error) {
	t := tableFor("A5")
	t.Columns = []string{"scheme", "chan_rate", "channels", "BER@20m", "BER@40m", "reach_m"}
	type variant struct {
		name string
		mod  channel.Modulation
		rate float64
	}
	for _, v := range []variant{
		{"NRZ 2G", channel.NRZ, 2e9},
		{"PAM4 4G", channel.PAM4, 4e9},
		{"NRZ 4G", channel.NRZ, 4e9},
	} {
		d := core.DefaultDesign()
		d.Modulation = v.mod
		d.ChannelRate = v.rate
		n := int(d.AggregateRate / v.rate)
		b20 := d.NominalBERAt(20)
		b40 := d.NominalBERAt(40)
		reach := d.MaxReach(1e-12)
		t.AddRow(v.name, fm(v.rate/1e9, 0)+"G", fmt.Sprintf("%d", n),
			fe(b20), fe(b40), fm(reach, 1))
	}
	t.Notes = "PAM4 halves channel count but its 1/3 eye costs ~5dB of budget — reach collapses; " +
		"NRZ at twice the rate loses less but still trails wide NRZ at 2G"
	return t, nil
}
