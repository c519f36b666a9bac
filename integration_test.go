package mosaic

// Cross-module integration tests: these exercise the full stack —
// device physics → analog BER → bit-true PHY → traffic — and check that
// the layers agree with each other, stay deterministic, never corrupt
// data silently, and behave under concurrency.

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mosaic/internal/channel"
	"mosaic/internal/core"
	"mosaic/internal/netsim"
	"mosaic/internal/netsim/workload"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
)

func makeFrames(rng *rand.Rand, n, size int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = make([]byte, size)
		rng.Read(frames[i])
	}
	return frames
}

// TestAnalogPredictsDigital checks the core consistency property: where
// the analog model says the channels are clean, the bit-true pipeline
// delivers everything; where the analog model says the eye is collapsed,
// the pipeline collapses too.
func TestAnalogPredictsDigital(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	frames := makeFrames(rng, 100, 1500)
	for _, tc := range []struct {
		lengthM   float64
		expectAll bool
	}{
		{2, true},
		{30, true},
		{50, true},
		{90, false}, // ~35 dB past margin: unusable
	} {
		d := core.DefaultDesign()
		d.LengthM = tc.lengthM
		link, err := d.BuildPHY()
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := link.Exchange(frames)
		if err != nil {
			// A link whose bring-up failed every channel refuses traffic —
			// that is the correct "collapse" outcome.
			if tc.expectAll {
				t.Fatalf("at %vm: %v", tc.lengthM, err)
			}
			continue
		}
		if tc.expectAll && st.FramesDelivered != len(frames) {
			t.Errorf("at %vm: %d/%d delivered, analog predicted clean",
				tc.lengthM, st.FramesDelivered, len(frames))
		}
		if !tc.expectAll && st.FramesDelivered > len(frames)/2 {
			t.Errorf("at %vm: %d/%d delivered, analog predicted collapse",
				tc.lengthM, st.FramesDelivered, len(frames))
		}
		// Delivered frames must match bit-for-bit (FCS guarantee).
		for i, f := range got {
			if tc.expectAll && !bytes.Equal(f, frames[i]) {
				t.Fatalf("at %vm: delivered frame %d corrupted", tc.lengthM, i)
			}
		}
	}
}

// TestNoSilentCorruption pushes traffic through a badly degraded link and
// asserts the FCS layer never lets a corrupted frame through as good.
func TestNoSilentCorruption(t *testing.T) {
	cfg := phy.DefaultConfig()
	cfg.FEC = phy.NoFEC{} // no protection: maximise corruption chances
	cfg.Seed = 11
	link, err := phy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for p := 0; p < link.Mapper().NumChannels(); p++ {
		link.SetChannelBER(p, 3e-4)
	}
	sent := makeFrames(rng, 300, 900)
	index := map[string]bool{}
	for _, f := range sent {
		index[string(f)] = true
	}
	got, st, err := link.Exchange(sent)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered == len(sent) {
		t.Skip("no corruption at this seed; raise BER")
	}
	for _, f := range got {
		if !index[string(f)] {
			t.Fatal("a delivered frame matches nothing that was sent")
		}
	}
}

// TestMonitorEstimatesInjectedBER checks the health monitor's
// corrected-error BER estimate lands near the truly injected BER.
func TestMonitorEstimatesInjectedBER(t *testing.T) {
	cfg := phy.DefaultConfig()
	cfg.Lanes = 10
	cfg.Spares = 0
	cfg.FEC = phy.NewRSLite()
	cfg.Seed = 5
	link, err := phy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const injected = 2e-5
	for p := 0; p < 10; p++ {
		link.SetChannelBER(p, injected)
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 30; round++ {
		if _, _, err := link.Exchange(makeFrames(rng, 50, 1500)); err != nil {
			t.Fatal(err)
		}
	}
	var est, n float64
	for _, h := range link.Monitor().Snapshot() {
		if h.BitsObserved > 0 {
			est += h.EstimatedBER()
			n++
		}
	}
	est /= n
	// RS corrections count symbol errors, not bit errors, so the estimate
	// runs ~1 byte-symbol per bit flip: within 3x is agreement.
	if est < injected/3 || est > injected*3 {
		t.Errorf("monitor estimate %v vs injected %v", est, injected)
	}
}

// TestConcurrentLinksAreIndependent runs many links in parallel (each has
// its own RNGs) and checks determinism is preserved per link. Run with
// -race to verify the per-channel worker fan-out is clean.
func TestConcurrentLinksAreIndependent(t *testing.T) {
	results := make([]int, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := phy.DefaultConfig()
			cfg.Seed = 77 // identical seeds => identical results
			link, err := phy.New(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for p := 0; p < link.Mapper().NumChannels(); p++ {
				link.SetChannelBER(p, 5e-5)
			}
			rng := rand.New(rand.NewSource(77))
			_, st, err := link.Exchange(makeFrames(rng, 100, 1500))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = st.Corrections
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("identical links diverged: %v", results)
		}
	}
}

// TestWaveformAgreesWithBudget cross-validates the eye simulator against
// the closed-form link budget at the design operating point.
func TestWaveformAgreesWithBudget(t *testing.T) {
	d := core.DefaultDesign()
	d.LengthM = 40
	res, err := d.NominalChannel()
	if err != nil {
		t.Fatal(err)
	}
	cfg := channel.EyeConfig{
		BitRate:     d.ChannelRate,
		BandwidthHz: res.BandwidthHz,
		HighLevel:   1,
		LowLevel:    0,
		NoiseSigma:  1 / (2 * res.Q), // by construction: Q = swing/(2 sigma)
		NumBits:     4000,
		Seed:        9,
	}
	eye, err := channel.SimulateEye(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := eye.QAtBestPhase()
	if q < res.Q/3 || q > res.Q*3 {
		t.Errorf("waveform Q %v vs budget Q %v", q, res.Q)
	}
}

// TestEndToEndNetworkStory runs the complete systems pitch in one test:
// analyse a fabric, pick the Mosaic plan, run flows, fault a link, and
// verify the network survives.
func TestEndToEndNetworkStory(t *testing.T) {
	topo, err := netsim.NewFatTree(8, 800e9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := netsim.Analyze(topo, netsim.MosaicPlan(), 800e9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PowerW <= 0 || rep.FailuresPerYear <= 0 {
		t.Fatalf("degenerate analysis: %+v", rep)
	}

	fs := netsim.NewFlowSim(topo)
	hosts := topo.Hosts()
	dist := workload.WebSearch()
	rng := sim.RNG(13, "story")
	victim := topo.LinksByTier()[netsim.TierToRAgg][3]
	for i := 0; i < 500; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		fs.RunUntil(sim.Time(float64(i) * 1e-6))
		if _, err := fs.StartFlow(src, dst, dist.SampleBits(rng), rng.Uint64()); err != nil {
			t.Error(err)
		}
		if i == 250 {
			// Degrade one fabric link Mosaic-style partway through.
			fs.SetLinkCapacityFraction(victim, 0.96)
		}
	}
	fs.Run()

	st := netsim.Stats(fs.Records())
	if st.Count != 500 || st.Stalled != 0 {
		t.Fatalf("network story failed: %+v", st)
	}
}

// TestConfigToTraffic drives the JSON-config path end to end: parse a
// design, build the PHY (bring-up included), push traffic.
func TestConfigToTraffic(t *testing.T) {
	d, err := core.ReadDesign(strings.NewReader(
		`{"aggregateRateGbps": 400, "channelRateGbps": 2, "spares": 8,
		  "lengthM": 25, "fec": "hamming72", "channelPitchUm": 25,
		  "spotDiameterUm": 20, "seed": 33}`))
	if err != nil {
		t.Fatal(err)
	}
	link, err := d.BuildPHY()
	if err != nil {
		t.Fatal(err)
	}
	if link.Config().FEC.Name() != "hamming72" {
		t.Fatalf("FEC = %s", link.Config().FEC.Name())
	}
	rng := rand.New(rand.NewSource(33))
	got, st, err := link.Exchange(makeFrames(rng, 60, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered != 60 {
		t.Fatalf("configured link dropped frames: %+v", st)
	}
	if len(got) != 60 {
		t.Fatal("delivery count mismatch")
	}
}

// TestMaintenanceUnderStream runs the predictive-maintenance policy inside
// a stepped stream of superframes: periodic Maintain calls replace a
// drifting channel before it loses anything.
func TestMaintenanceUnderStream(t *testing.T) {
	d := core.DefaultDesign()
	d.Variation.DeadProb = 0
	link, err := d.BuildPHY()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	queue := makeFrames(rng, 1500, 1500)

	// 44 frames fill a 64 KiB superframe (~3.3 µs at 200 Gbps). Channel 12
	// drifts upward five superframes in; a maintenance pass runs every
	// six (~20 µs).
	lost := 0
	for sf := 0; len(queue) > 0; sf++ {
		if sf == 5 {
			link.SetChannelBER(12, 5e-5)
		}
		n := min(44, len(queue))
		_, st, err := link.Exchange(queue[:n])
		if err != nil {
			t.Fatal(err)
		}
		queue = queue[n:]
		lost += st.FramesIn - st.FramesDelivered
		if (sf+1)%6 == 0 {
			link.Maintain(phy.DefaultMaintenancePolicy())
		}
	}

	if lost != 0 {
		t.Errorf("lost %d frames despite graceful drift + maintenance", lost)
	}
	if link.Mapper().LaneOf(12) != -1 {
		t.Error("drifting channel never replaced")
	}
}

// TestExchangeRepeatabilityAcrossRuns guards the documented determinism
// contract of the whole stack.
func TestExchangeRepeatabilityAcrossRuns(t *testing.T) {
	run := func() (int, int) {
		d := core.Design800G()
		d.LengthM = 40
		d.Seed = 21
		link, err := d.BuildPHY()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		_, st, err := link.Exchange(makeFrames(rng, 50, 4096))
		if err != nil {
			t.Fatal(err)
		}
		return st.FramesDelivered, st.Corrections
	}
	d1, c1 := run()
	d2, c2 := run()
	if d1 != d2 || c1 != c2 {
		t.Fatalf("runs diverged: %d/%d vs %d/%d", d1, c1, d2, c2)
	}
}
