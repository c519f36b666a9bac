package experiments

import (
	"fmt"
	"strings"

	"mosaic/internal/eventlog"
	"mosaic/internal/faultinject"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
)

// E25ARQGoodput pits the two ARQ disciplines against each other on the
// same lossy Mosaic link: a recurring burst-loss schedule corrupts PHY
// frames mid-run while periodic incast spikes pile fresh packets onto
// the send queue. Go-back-N answers every burst with a whole-window
// replay that crowds fresh data out of the superframe budget; selective
// repeat retransmits only the slots that actually died and parks the
// survivors in its reorder buffer, so the same schedule costs it far
// less goodput. The third scenario runs SR over three QoS-classed
// virtual channels to show the weighted scheduler holding the
// high-priority channel's queue short through the incast spikes.
func E25ARQGoodput(seed int64) (Table, error) {
	return e25WithWorkers(seed, 0)
}

// e25Scenario is one table row: an ARQ discipline plus a VC layout.
type e25Scenario struct {
	name      string
	arq       mac.ARQKind
	vcs       int
	classes   []uint8
	vcPackets []int // nil = PacketsPerSF on VC 0
}

// e25Schedule is the burst-loss pattern: four elevated-BER bursts on
// different channels, spaced so each one lands while the previous
// recovery (and at least one incast spike) is still in flight.
func e25Schedule() faultinject.Schedule {
	return faultinject.Schedule{Events: []faultinject.Event{
		{At: 8, Kind: faultinject.KindBurst, Channel: 3, BER: 8e-3, Duration: 6},
		{At: 20, Kind: faultinject.KindBurst, Channel: 7, BER: 8e-3, Duration: 6},
		{At: 34, Kind: faultinject.KindBurst, Channel: 11, BER: 8e-3, Duration: 6},
		{At: 50, Kind: faultinject.KindBurst, Channel: 5, BER: 8e-3, Duration: 6},
	}}
}

// e25WithWorkers is the worker-count-parameterized core so the
// determinism test can pin the rendered table — including the event-log
// hash of the multi-VC run in the notes — at any PHY pool size.
func e25WithWorkers(seed int64, workers int) (Table, error) {
	t := tableFor("E25")
	t.Columns = []string{"scenario", "queued", "delivered", "goodput_Mbps",
		"retx", "timeouts", "stalls", "disc", "reord"}

	var logSHA string
	var vcNote string
	for _, sc := range []e25Scenario{
		{name: "gbn-1vc", arq: mac.ARQGoBackN, vcs: 1},
		{name: "sr-1vc", arq: mac.ARQSelectiveRepeat, vcs: 1},
		{name: "sr-3vc-qos", arq: mac.ARQSelectiveRepeat, vcs: 3,
			classes: []uint8{0, 1, 2}, vcPackets: []int{10, 6, 4}},
	} {
		res, err := runE25Scenario(seed, workers, sc)
		if err != nil {
			return t, err
		}
		goodput := float64(res.B.Delivered) * float64(e25PacketLen) * 8 /
			(float64(res.Superframes) * float64(e25Interval)) / 1e6
		t.AddRow(sc.name,
			fmt.Sprintf("%d", res.A.PacketsQueued),
			fmt.Sprintf("%d", res.B.Delivered),
			fm(goodput, 1),
			fmt.Sprintf("%d", res.A.Retransmits),
			fmt.Sprintf("%d", res.A.Timeouts),
			fmt.Sprintf("%d", res.A.CreditStalls),
			fmt.Sprintf("%d", res.B.Discarded),
			fmt.Sprintf("%d", res.B.Reordered))
		if sc.name == "sr-3vc-qos" {
			logSHA = eventlog.Digest(res.Log, res.Summary())
			parts := make([]string, len(res.BVCs))
			for vc, v := range res.BVCs {
				parts[vc] = fmt.Sprintf("vc%d(class %d)=%d", vc, v.Class, v.Delivered)
			}
			vcNote = strings.Join(parts, " ")
		}
	}
	t.Notes = "four 8e-3 BER bursts + incast every " + fmt.Sprintf("%d", e25BurstEvery) +
		" sf; same offered load everywhere; multi-vc delivered " + vcNote +
		"; mac event log sha256[:8]=" + logSHA + " (byte-identical at any phy worker count)"
	return t, nil
}

// Fixed scenario parameters, shared so the goodput denominator and the
// notes stay in one place.
const (
	e25Superframes = 80
	e25Interval    = sim.Time(1e-5)
	e25PacketLen   = 150
	e25PerSF       = 20
	e25BurstEvery  = 8
	e25BurstPkts   = 30
	e25Window      = 64
)

// runE25Scenario runs one session: a 16-lane full-duplex pair with the
// burst-loss schedule on the forward link and incast spikes on VC 0.
// Window and payload budget are pinned identically across scenarios so
// the only variable is the ARQ discipline (and the VC layout).
func runE25Scenario(seed int64, workers int, sc e25Scenario) (*mac.Result, error) {
	fwd, err := phy.New(phy.Config{
		Lanes: 16, Spares: 2, FEC: phy.NewRSLite(), UnitLen: 63,
		PerChannelBitRate: 2e9, Seed: seed + 100, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	rev, err := phy.New(phy.Config{
		Lanes: 16, Spares: 2, FEC: phy.NewRSLite(), UnitLen: 63,
		PerChannelBitRate: 2e9, Seed: seed + 200, Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	pc := mac.PairConfig{PHYFrameLen: 120}
	pc.Endpoint.ARQ = sc.arq
	pc.Endpoint.VCs = sc.vcs
	pc.Endpoint.VCClass = sc.classes
	pc.Endpoint.Window = e25Window
	// A few frames of slack over the steady per-tick load: the average
	// offered load (steady + amortized incast) sits just under the
	// budget, so go-back-N's whole-window replays displace fresh frames
	// the link never gets back, while selective repeat's per-slot
	// retransmissions fit in the slack.
	pc.Endpoint.PayloadBudget = (e25PerSF + 6) * (e25PacketLen + mac.OverheadV2)
	sess, err := mac.NewSession(mac.SessionConfig{
		Fwd:          fwd,
		Rev:          rev,
		Pair:         pc,
		Schedule:     e25Schedule(),
		Superframes:  e25Superframes,
		Interval:     e25Interval,
		PacketsPerSF: e25PerSF,
		VCPackets:    sc.vcPackets,
		BurstEvery:   e25BurstEvery,
		BurstPackets: e25BurstPkts,
		PacketLen:    e25PacketLen,
		Seed:         seed + 300,
	})
	if err != nil {
		return nil, err
	}
	res := sess.Run()
	if res.Err != "" {
		return res, fmt.Errorf("experiments: E25 mac session (%s): %s", sc.name, res.Err)
	}
	return res, nil
}
