package mosaic

// One benchmark per reconstructed table/figure (E1-E25) and ablation
// (A1-A5). Each bench regenerates its experiment through the experiment
// registry — the same code path as cmd/mosaicbench — reports the headline
// numbers as custom metrics, and (with -v) logs the full table.
//
//	go test -bench=. -benchmem            # all experiments as benchmarks
//	go test -bench=BenchmarkE4 -v         # one experiment, with its table
//	go run ./cmd/mosaicbench              # the same tables as a report

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"mosaic/internal/channel"
	"mosaic/internal/coding/rs"
	"mosaic/internal/core"
	"mosaic/internal/experiments"
	"mosaic/internal/fleetd"
	"mosaic/internal/mac"
	"mosaic/internal/netsim"
	"mosaic/internal/par"
	"mosaic/internal/phy"
	"mosaic/internal/power"
	"mosaic/internal/reliability"
	"mosaic/internal/scenario"
)

// logTable renders a table into the bench log (visible with -v).
func logTable(b *testing.B, tab experiments.Table, err error) experiments.Table {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	b.Log("\n" + buf.String())
	return tab
}

// runExperiment regenerates one registered experiment b.N times with
// seed 1 and returns the last table.
func runExperiment(b *testing.B, id string) experiments.Table {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = e.Gen(1)
	}
	return logTable(b, tab, err)
}

func BenchmarkE1TradeoffTable(b *testing.B) {
	tab := runExperiment(b, "E1")
	// Headline metrics: Mosaic reach multiple over copper.
	var dac, mosaic float64
	for _, r := range tab.Rows {
		v, _ := strconv.ParseFloat(r[1], 64)
		switch r[0] {
		case "DAC":
			dac = v
		case "Mosaic":
			mosaic = v
		}
	}
	if dac > 0 {
		b.ReportMetric(mosaic/dac, "reach_x_copper")
	}
}

func BenchmarkE2PowerBreakdown(b *testing.B) {
	runExperiment(b, "E2")
	red, err := power.Reduction(power.Mosaic, power.DR, 800e9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(red*100, "reduction_pct")
}

func BenchmarkE3PowerScaling(b *testing.B) {
	runExperiment(b, "E3")
	m, _ := power.PerBudget(power.Mosaic, 1.6e12)
	b.ReportMetric(m.PJPerBit(), "mosaic_1.6T_pJ_per_bit")
}

func BenchmarkE4ReachBudget(b *testing.B) {
	runExperiment(b, "E4")
	b.ReportMetric(core.DefaultDesign().MaxReach(1e-12), "reach_m")
	b.ReportMetric(channel.Twinax26AWG().MaxReach(
		channel.NyquistHz(106.25e9, channel.PAM4), 28), "copper_reach_m")
}

func BenchmarkE5PrototypeBER(b *testing.B) {
	runExperiment(b, "E5")
	d := core.DefaultDesign()
	d.LengthM = 40
	rep, err := d.Evaluate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.MedianBER, "median_BER_40m")
	b.ReportMetric(float64(rep.BelowTarget), "channels_above_1e-12")
}

func BenchmarkE6Misalignment(b *testing.B) {
	runExperiment(b, "E6")
	d := core.DefaultDesign()
	penalty := d.Fiber.CouplingLossDB(d.SpotDiameterM, 10e-6) -
		d.Fiber.CouplingLossDB(d.SpotDiameterM, 0)
	b.ReportMetric(penalty, "10um_penalty_dB")
}

func BenchmarkE7Reliability(b *testing.B) {
	runExperiment(b, "E7")
	mission := 5 * reliability.HoursPerYear
	b.ReportMetric(float64(reliability.MosaicLinkFIT(400, 16, mission)), "mosaic_FIT")
	b.ReportMetric(float64(reliability.LinkFIT(reliability.FITLaserDFB, 8)), "dr8_FIT")
}

func BenchmarkE8ScalingTable(b *testing.B) {
	runExperiment(b, "E8")
	b.ReportMetric(float64(power.MosaicChannels(1.6e12)), "channels_at_1.6T")
}

func BenchmarkE9SweetSpot(b *testing.B) {
	runExperiment(b, "E9")
	b.ReportMetric(power.SweetSpotRate()/1e9, "sweet_spot_Gbps")
}

func BenchmarkE10EndToEnd(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "E10")
}

func BenchmarkE11Datacenter(b *testing.B) {
	runExperiment(b, "E11")
}

func BenchmarkE12Degradation(b *testing.B) {
	runExperiment(b, "E12")
}

func BenchmarkE13Temperature(b *testing.B) {
	runExperiment(b, "E13")
}

func BenchmarkE14Latency(b *testing.B) {
	runExperiment(b, "E14")
}

func BenchmarkE15Cost(b *testing.B) {
	runExperiment(b, "E15")
	_, cheapest, err := power.CheapestAt(800e9, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cheapest.TotalUSD(), "mosaic_30m_usd")
}

func BenchmarkE16BlastRadius(b *testing.B) {
	runExperiment(b, "E16")
}

func BenchmarkE17Equalization(b *testing.B) {
	runExperiment(b, "E17")
}

func BenchmarkE18Waterfall(b *testing.B) {
	runExperiment(b, "E18")
}

func BenchmarkE19OpticsBudget(b *testing.B) {
	runExperiment(b, "E19")
}

func BenchmarkE20FleetTCO(b *testing.B) {
	runExperiment(b, "E20")
}

func BenchmarkE21PredictiveMaintenance(b *testing.B) {
	runExperiment(b, "E21")
}

func BenchmarkE22SparingSoak(b *testing.B) {
	tab := runExperiment(b, "E22")
	// Headline: worst absolute deviation of the pipeline-measured
	// survival from the k-of-n closed form, across spare levels.
	var worst float64
	for i := range tab.Rows {
		v, _ := strconv.ParseFloat(tab.Rows[i][4], 64)
		if v > worst {
			worst = v
		}
	}
	b.ReportMetric(worst, "worst_abs_err")
}

func BenchmarkE23MACRenegotiation(b *testing.B) {
	tab := runExperiment(b, "E23")
	// Headline: flows stranded by the copper cut vs by the MAC's graceful
	// renegotiation (the latter must be zero), and the final capacity
	// fraction the bridge negotiated down to.
	for i := range tab.Rows {
		stalled, _ := strconv.ParseFloat(tab.Rows[i][2], 64)
		switch tab.Rows[i][0] {
		case "mosaic-aging(mac)":
			b.ReportMetric(stalled, "mosaic_stalled")
			frac, _ := strconv.ParseFloat(tab.Rows[i][5], 64)
			b.ReportMetric(frac, "frac_end")
		case "copper-link-down":
			b.ReportMetric(stalled, "copper_stalled")
		}
	}
}

func BenchmarkE24FleetFlows(b *testing.B) {
	// The fleet-scale experiment is the sharded incremental engine's
	// time-and-allocation budget: ~700k flows over 1752 links in a
	// handful of seconds. Headline metrics: the diurnal peak backlog and
	// how many flow-rate assignments the dirty-set waterfill performed
	// (the full-sweep equivalent would be orders of magnitude larger).
	b.ReportAllocs()
	tab := runExperiment(b, "E24")
	notes := tab.Notes
	if i := strings.Index(notes, "peak concurrent "); i >= 0 {
		var peak float64
		fmt.Sscanf(notes[i:], "peak concurrent %f", &peak)
		b.ReportMetric(peak, "peak_flows")
	}
	var rated float64
	if i := strings.Index(notes, "waterfills rated "); i >= 0 {
		fmt.Sscanf(notes[i:], "waterfills rated %f", &rated)
		b.ReportMetric(rated, "rated_flows")
	}
}

func BenchmarkE25ARQGoodput(b *testing.B) {
	tab := runExperiment(b, "E25")
	// Headline: goodput under identical burst loss per ARQ discipline —
	// selective repeat must hold strictly above go-back-N, whose
	// whole-window replays displace fresh frames at this offered load.
	for i := range tab.Rows {
		goodput, _ := strconv.ParseFloat(tab.Rows[i][3], 64)
		switch tab.Rows[i][0] {
		case "gbn-1vc":
			b.ReportMetric(goodput, "gbn_Mbps")
		case "sr-1vc":
			b.ReportMetric(goodput, "sr_Mbps")
		case "sr-3vc-qos":
			b.ReportMetric(goodput, "qos_Mbps")
		}
	}
}

func BenchmarkA1Oversampling(b *testing.B) {
	runExperiment(b, "A1")
}

func BenchmarkA2FECChoice(b *testing.B) {
	runExperiment(b, "A2")
}

func BenchmarkA3UnitSize(b *testing.B) {
	runExperiment(b, "A3")
}

func BenchmarkA4SparingPolicy(b *testing.B) {
	runExperiment(b, "A4")
}

func BenchmarkA5Modulation(b *testing.B) {
	runExperiment(b, "A5")
}

// BenchmarkFullSuite regenerates the entire registry through the parallel
// runner, the way `mosaicbench -par N` does.
func BenchmarkFullSuite(b *testing.B) {
	for _, par := range []int{1, 4} {
		b.Run("par="+strconv.Itoa(par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := experiments.RunMetered(nil, 1, par, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatalf("%s: %v", r.Experiment.ID, r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkPipelineThroughput measures the raw simulation speed of the
// bit-true 100-channel pipeline (not a paper figure; an implementation
// benchmark).
func BenchmarkPipelineThroughput(b *testing.B) {
	link, err := core.DefaultDesign().BuildPHY()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, 64)
	total := 0
	for i := range frames {
		frames[i] = make([]byte, 1500)
		rng.Read(frames[i])
		total += 1500
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := link.Exchange(frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeSteadyState measures the zero-allocation Exchange
// path: the paper's 100-channel link in the clean steady state, with the
// caller recycling delivered frames through an ExchangeBuf arena. The
// baseline pins this at 0 allocs/op — every buffer in the TX → channel →
// RX round trip (lane slabs, streams, parse scratch, the output arena,
// the pool dispatch) must be reused, so any steady-state allocation is a
// regression (enforced by benchguard).
func BenchmarkExchangeSteadyState(b *testing.B) {
	if delivered := benchExchangeInto(b, 0); delivered != b.N*benchFrames {
		b.Fatalf("clean link delivered %d/%d frames", delivered, b.N*benchFrames)
	}
}

// BenchmarkExchangeNoisySteadyState is the same link at BER 2e-4 on every
// channel (the link_noisy_arq operating point): most channel frames carry
// a dirty RS block, so this row gates the decode path — the parity
// difference and its syndromes, Berlekamp-Massey, closed-form error
// positions, Forney, resync after an overload — which the clean row
// never enters. Also 0 allocs/op.
func BenchmarkExchangeNoisySteadyState(b *testing.B) {
	benchExchangeInto(b, 2e-4)
}

// benchFrames × 1500 B is one benchmarked exchange.
const benchFrames = 64

// benchExchangeInto times ExchangeInto of benchFrames × 1500 B on the default
// 100-lane link with every channel at ber, warmed by one round (buffers
// grow to the traffic high-water mark on the first; after that the arena
// is steady), and returns the frames delivered in the timed rounds.
func benchExchangeInto(b *testing.B, ber float64) (delivered int) {
	cfg := phy.DefaultConfig()
	link, err := phy.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < cfg.Lanes+cfg.Spares; p++ {
		link.SetChannelBER(p, ber)
	}
	frames := phy.SeededFrames(1, benchFrames, 1500)
	var buf phy.ExchangeBuf
	if _, _, err := link.ExchangeInto(&buf, frames); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchFrames * 1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := link.ExchangeInto(&buf, frames)
		if err != nil {
			b.Fatal(err)
		}
		delivered += len(out)
	}
	b.StopTimer()
	return delivered
}

// BenchmarkPoolRoundWoken prices one par.Pool round in the shape of a
// link exchange: Wake, ≈150 µs of serial work on the caller (the encode
// and scramble stages), then a Run of 100 tasks of ≈2 µs each (the lanes)
// on 2 workers — ≈350 µs of work, ≈250 µs of it parallel if the helper is
// already up when the round is published. Pinned at 0 allocs/op.
func BenchmarkPoolRoundWoken(b *testing.B) {
	p := par.New(2)
	var lanes [100]uint64
	task := func(i int) { lanes[i] = xorshiftSpin(lanes[i]+1, 900) }
	var serial uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Wake()
		serial = xorshiftSpin(serial+1, 68000)
		p.Run(len(lanes), task)
	}
	if serial == 0 {
		b.Fatal("serial stage optimised away")
	}
}

// xorshiftSpin runs n dependent xorshift steps: ≈2.2 ns each on the
// 2-vCPU guest the baselines were measured on.
func xorshiftSpin(x uint64, n int) uint64 {
	for ; n > 0; n-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// BenchmarkFECSchemes compares per-channel FEC encode+decode speed.
func BenchmarkFECSchemes(b *testing.B) {
	payload := make([]byte, 243)
	rand.New(rand.NewSource(1)).Read(payload)
	for _, fec := range []phy.FEC{phy.NoFEC{}, phy.HammingFEC{}, phy.NewRSLite(), phy.NewRSKP4()} {
		b.Run(fec.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				enc := fec.AppendEncode(nil, payload)
				if _, _, err := fec.AppendDecode(nil, enc, len(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMACFrameRoundTrip measures the MAC framing hot path: append
// one frame into a reused buffer and deframe it back. The baseline pins
// this at 0 allocs/op — framing runs per superframe in the LLR, so any
// steady-state allocation here is a regression (enforced by benchguard).
func BenchmarkMACFrameRoundTrip(b *testing.B) {
	payload := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(payload)
	buf := make([]byte, 0, len(payload)+mac.Overhead)
	var d mac.Deframer
	got := 0
	emit := func(fr mac.Frame) {
		if len(fr.Payload) == len(payload) {
			got++
		}
	}
	// Warm the path once so one-time setup never counts as steady state.
	buf = mac.AppendFrame(buf[:0], mac.FlagData, 0, 0, payload)
	d.Deframe(buf, emit)
	got = 0

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mac.AppendFrame(buf[:0], mac.FlagData, uint16(i), uint16(i), payload)
		d.Deframe(buf, emit)
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("round-tripped %d/%d frames", got, b.N)
	}
}

// BenchmarkRSDecodeDirty prices one dirty RS(68,64) block through
// Codec8.Decode, the per-block cost of the link_noisy_arq operating
// point: the ops alternate between 64 blocks with one byte error and 64
// with two, each copied out and corrected from its parity difference,
// its positions solved in closed form. Pinned at 0 allocs/op.
func BenchmarkRSDecodeDirty(b *testing.B) {
	code, err := rs.Lite(68, 64)
	if err != nil {
		b.Fatal(err)
	}
	cd := code.Codec8()
	rng := rand.New(rand.NewSource(1))
	blocks := make([][]byte, 128)
	for i := range blocks {
		blk := make([]byte, 68)
		rng.Read(blk[4:])
		cd.EncodeParity(blk[:4], blk[4:])
		for _, pos := range rng.Perm(68)[:1+i%2] {
			blk[pos] ^= byte(1 + rng.Intn(255))
		}
		blocks[i] = blk
	}
	var data [64]byte
	b.ReportAllocs()
	b.ResetTimer()
	corrections := 0
	for i := 0; i < b.N; i++ {
		blk := blocks[i%len(blocks)]
		copy(data[:], blk[4:])
		n, err := cd.Decode(data[:], blk)
		if err != nil {
			b.Fatal(err)
		}
		corrections += n
	}
	b.StopTimer()
	if want := b.N + b.N/2; corrections != want {
		b.Fatalf("%d corrections over %d blocks, want %d", corrections, b.N, want)
	}
}

// BenchmarkDeframeIdle deframes what link_noisy_arq's reverse direction
// carries every tick: a PayloadBudget-sized superframe (that workload's
// 60 × (1500 B + v2 overhead)) holding one selective-ack frame per VC
// and idle fill to the budget, which the deframer crosses a word group
// at a time. Pinned at 0 allocs/op.
func BenchmarkDeframeIdle(b *testing.B) {
	const budget = 60 * (1500 + mac.OverheadV2)
	sf := make([]byte, 0, budget)
	for vc := byte(0); vc < 3; vc++ {
		sf = mac.AppendFrameVC(sf, mac.FlagAck|mac.FlagSack, vc, 0, 7, make([]byte, mac.SackBytes))
	}
	sf = sf[:budget]
	var d mac.Deframer
	acks := 0
	emit := func(mac.Frame) { acks++ }
	b.SetBytes(budget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Deframe(sf, emit)
	}
	b.StopTimer()
	if acks != 3*b.N || d.Stats.IdleBytes != uint64(b.N)*(budget-3*(mac.OverheadV2+mac.SackBytes)) {
		b.Fatalf("%d acks, %d idle bytes over %d superframes", acks, d.Stats.IdleBytes, b.N)
	}
}

// BenchmarkMACFrameRoundTripSR measures the selective-repeat steady
// state end to end: a packet enters an SR endpoint's queue, rides a v2
// superframe across a loopback, and the sack-bearing ack superframe
// returns. The baseline pins this at 0 allocs/op — the SR engine's
// reorder ring, sack scratch, and recycled queue buffers must keep the
// per-tick path allocation-free just like the go-back-N path.
func BenchmarkMACFrameRoundTripSR(b *testing.B) {
	cfg := mac.Config{
		Window: 32, RetxTimeout: 2, MaxPayload: 1500,
		PayloadBudget: 4096, ARQ: mac.ARQSelectiveRepeat,
	}
	delivered := 0
	tx, err := mac.NewEndpoint(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := mac.NewEndpoint(cfg, func(_ int, p []byte) {
		if len(p) == 1500 {
			delivered++
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1500)
	rand.New(rand.NewSource(1)).Read(payload)
	tick := func() {
		rx.Accept([][]byte{tx.BuildSuperframe()})
		tx.Accept([][]byte{rx.BuildSuperframe()})
	}
	// Warm the path: the first ticks grow the in-flight list and the
	// free list to the one packet a tick keeps in flight and fill the
	// borrowed Accept buffer; from then on every payload buffer is
	// recycled (pinned allocation-free even at -benchtime 3x).
	for i := 0; i < 4; i++ {
		if err := tx.SendVC(0, payload); err != nil {
			b.Fatal(err)
		}
		tick()
	}
	delivered = 0

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.SendVC(0, payload); err != nil {
			b.Fatal(err)
		}
		tick()
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d/%d packets", delivered, b.N)
	}
}

// BenchmarkFleetSimEpochSteady prices one epoch of the flow engine at a
// constant population: the E24 fleet (1752 links, 12 shards) holding
// 20,000 long-lived flows, with 512 short flows arriving and completing
// every epoch (a tenth of either kind cross-pod), so each Step re-rates
// the whole backlog and drains about as many flows as were injected. The
// slab, link indices, due lists and scratch buffers are at their working
// size after the warm-up, so allocs/op is the epoch's fixed cost (its
// log line) and must not scale with the population. Pinned in
// ci/bench_baseline.json via make bench-check.
func BenchmarkFleetSimEpochSteady(b *testing.B) {
	const pods, hostsPerPod = 12, 80
	topo, err := netsim.NewFleet(pods, 10, 6, 8, 100e9)
	if err != nil {
		b.Fatal(err)
	}
	fs := netsim.NewFleetSim(topo, 0)
	hosts := topo.Hosts()
	rng := rand.New(rand.NewSource(1))
	inject := func(n int, bits float64) {
		for i := 0; i < n; i++ {
			src := rng.Intn(len(hosts))
			pod := src / hostsPerPod
			if i%10 == 0 {
				pod = (pod + 1 + rng.Intn(pods-1)) % pods
			}
			dst := pod*hostsPerPod + (src+1+rng.Intn(hostsPerPod-1))%hostsPerPod
			if _, err := fs.Inject(hosts[src], hosts[dst], bits, rng.Uint64()); err != nil {
				b.Fatal(err)
			}
		}
	}
	epoch := func() {
		inject(512, 1e6)
		fs.Step(1)
		fs.DrainRecords(nil)
	}
	for i := 0; i < 20000; i += 10 {
		inject(10, 1e18)
	}
	for i := 0; i < 20; i++ {
		epoch()
	}
	base := fs.ActiveFlows()
	doneBefore, _ := fs.FlowTotals()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
	b.StopTimer()
	doneAfter, _ := fs.FlowTotals()
	if done := int(doneAfter - doneBefore); done < 500*b.N || fs.ActiveFlows() > base+512 {
		b.Fatalf("not steady: %d completions in %d epochs, population %d -> %d", done, b.N, base, fs.ActiveFlows())
	}
}

// BenchmarkScenarioStorm prices one scenario run through the scenario
// engine: the repo benchmark's storm shape (12 pods, 960 hosts; diurnal,
// allreduce and storage traffic under radiation SEUs and bursts and
// thermal cycling) for 100 epochs, so each op is 100 epoch rounds — the
// environments and arrivals at the barrier beside the next epoch's draw —
// and 100 FleetSim steps. The spec restates benchmark/workloads/storm.json
// because benchmark/ is a main package and cannot be imported. Pinned in
// ci/bench_baseline.json via make bench-check.
func BenchmarkScenarioStorm(b *testing.B) {
	spec := scenario.Spec{
		Name: "storm", Seed: 1, Epochs: 100,
		Topology: scenario.TopoSpec{Pods: 12, Leaves: 10, Spines: 6, HostsPerLeaf: 8, LinkRateBps: 100e9},
		Workloads: []scenario.Component{
			{Kind: scenario.KindDiurnal, PeakLoad: 0.6, MeanBits: 3e9},
			{Kind: scenario.KindAllReduce, Groups: 8, GroupSize: 16, RoundsPerEpoch: 1, FlowBits: 2e9},
			{Kind: scenario.KindStorage, WritesPerEpoch: 32, Fanout: 3, FlowBits: 4e9},
		},
		Environments: []scenario.Component{
			{
				Kind:    scenario.KindRadiation,
				SEURate: 0.05, SEUFraction: 0.35,
				BurstRate: 0.25, BurstSpan: 8, BurstEpochs: 3, BurstFraction: 0.5,
			},
			{Kind: scenario.KindThermal, BaseK: 300, SwingK: 60, PeriodEpochs: 40, MarginDB: 3},
		},
	}
	b.ReportAllocs()
	var flows int
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(spec, scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
		flows = res.Flows
	}
	b.ReportMetric(float64(flows), "flows")
}

// BenchmarkFleetdAdmit prices one fleet admission end to end: the
// admission gate (token bucket, budget checks, topology slot, event
// log) plus the epoch that constructs the link's PHY/MAC/bridge stack
// and walks it into bring-up. StepBudget=1 keeps the per-epoch serving
// work constant, so the figure measures admission cost, not fleet size.
// Pinned in ci/bench_baseline.json via make bench-check.
func BenchmarkFleetdAdmit(b *testing.B) {
	cfg := fleetd.DefaultConfig()
	cfg.Budgets.AdmitBurst = float64(cfg.Budgets.MaxLinks)
	cfg.Budgets.StepBudget = 1
	cfg.Budgets.FlowsPerEpoch = 0
	cfg.Budgets.DetailLinks = 0
	cfg.Design.Hazard = 0
	f, err := fleetd.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	if b.N > cfg.Budgets.MaxLinks {
		b.Fatalf("b.N=%d exceeds the fleet budget %d; lower -benchtime", b.N, cfg.Budgets.MaxLinks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Create(1, nil); err != nil {
			b.Fatal(err)
		}
		f.Step()
	}
	b.StopTimer()
	if got := f.Snapshot().LiveLinks; got != b.N {
		b.Fatalf("%d live links after %d admissions", got, b.N)
	}
}
