package refmodel_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/refmodel"
)

// diffMACLLR advances an optimized go-back-N endpoint pair and a
// reference pair in lockstep over an identical deterministic lossy link
// and demands byte-identical superframes at every tick, identical
// delivered packet streams, and identical counters.
func diffMACLLR(seed int64, size int) string {
	rng := rand.New(rand.NewSource(seed))
	window := 2 + rng.Intn(15)
	retx := 1 + rng.Intn(4)
	maxPayload := 32 + rng.Intn(97)
	budget := (maxPayload + mac.Overhead) * (1 + rng.Intn(3))

	cfg := mac.Config{Window: window, RetxTimeout: retx, MaxPayload: maxPayload, PayloadBudget: budget}
	var optDelivered [][]byte
	optA, err := mac.NewEndpoint(cfg, func(_ int, p []byte) {
		optDelivered = append(optDelivered, append([]byte(nil), p...))
	})
	if err != nil {
		return "optimized endpoint: " + err.Error()
	}
	optB, err := mac.NewEndpoint(cfg, nil)
	if err != nil {
		return "optimized endpoint: " + err.Error()
	}
	refA, err := refmodel.NewLLREndpoint(window, retx, maxPayload, budget)
	if err != nil {
		return "reference endpoint: " + err.Error()
	}
	refB, err := refmodel.NewLLREndpoint(window, retx, maxPayload, budget)
	if err != nil {
		return "reference endpoint: " + err.Error()
	}

	ticks := 10 * size
	for tick := 0; tick < ticks; tick++ {
		if rng.Intn(3) == 0 {
			p := make([]byte, 1+rng.Intn(maxPayload))
			rng.Read(p)
			if err := optB.SendVC(0, p); err != nil {
				return "optimized send: " + err.Error()
			}
			if err := refB.Send(p); err != nil {
				return "reference send: " + err.Error()
			}
		}
		sfOpt := optB.BuildSuperframe()
		sfRef := refB.BuildSuperframe()
		if i := firstDiff(sfOpt, sfRef); i >= 0 {
			return fmt.Sprintf("tick %d: B->A superframe differs at byte %d", tick, i)
		}
		var chunks [][]byte
		switch rng.Intn(4) {
		case 0: // superframe lost entirely
		case 1: // truncated: a lost PHY frame splices the stream
			chunks = [][]byte{sfOpt[:rng.Intn(len(sfOpt))]}
		default:
			chunks = [][]byte{sfOpt}
		}
		optA.Accept(chunks)
		refA.Accept(chunks)

		backOpt := optA.BuildSuperframe()
		backRef := refA.BuildSuperframe()
		if i := firstDiff(backOpt, backRef); i >= 0 {
			return fmt.Sprintf("tick %d: A->B superframe differs at byte %d", tick, i)
		}
		optB.Accept([][]byte{backOpt})
		refB.Accept([][]byte{backRef})
	}

	for _, side := range []struct {
		name string
		opt  mac.Stats
		ref  refmodel.MACStats
	}{{"A", optA.Stats(), refA.Stats()}, {"B", optB.Stats(), refB.Stats()}} {
		if got := mac2ref(side.opt); got != side.ref {
			return fmt.Sprintf("endpoint %s stats: optimized %+v reference %+v", side.name, got, side.ref)
		}
	}
	refDelivered := refA.Delivered()
	if len(optDelivered) != len(refDelivered) {
		return fmt.Sprintf("delivered %d packets optimized, %d reference", len(optDelivered), len(refDelivered))
	}
	for i := range optDelivered {
		if !bytes.Equal(optDelivered[i], refDelivered[i]) {
			return fmt.Sprintf("delivered packet %d differs", i)
		}
	}
	return ""
}

// diffPipeline runs one case of the full optimized exchange against the
// serial reference pipeline at 1, 2 and GOMAXPROCS lane workers.
func diffPipeline(seed int64, size int) string {
	for _, workers := range []int{1, 2, 0} {
		if d := pipelineCase(seed, size, workers); d != "" {
			return fmt.Sprintf("workers=%d: %s", workers, d)
		}
	}
	return ""
}

// pipelineCase runs the exchange face the hot path runs — ExchangeInto
// on one ExchangeBuf reused across the case's exchanges, as mac.Pair
// does — against the serial reference pipeline. The case derivation
// depends only on (seed, size) so the same traffic, noise, skew, dead
// channels and fault schedule replay at every worker count; the
// reference side injects noise through BSC replicas seeded with the
// link's own formula, so when the optimized TX bytes are correct the
// random draws align and the comparison is byte-exact end to end.
func pipelineCase(seed int64, size, workers int) string {
	rng := rand.New(rand.NewSource(seed))
	lanes := 2 + rng.Intn(5)
	spares := rng.Intn(3)
	unitLen := 9 * []int{3, 7}[rng.Intn(2)]
	var optFEC phy.FEC
	var refFEC refmodel.FECRef
	if rng.Intn(2) == 0 {
		optFEC, refFEC = phy.NoFEC{}, refmodel.NoFECRef{}
	} else {
		optFEC, refFEC = phy.NewRSLite(), refmodel.NewRSLiteRef()
	}
	linkSeed := seed ^ 0x5ca1ab1e

	link, err := phy.New(phy.Config{
		Lanes: lanes, Spares: spares, FEC: optFEC, UnitLen: unitLen,
		PerChannelBitRate: 2e9, Seed: linkSeed, Workers: workers,
	})
	if err != nil {
		return "link construction: " + err.Error()
	}

	// Replica channels for the reference side, seeded with the link's own
	// per-channel formula so the noise streams match draw for draw.
	total := lanes + spares
	replicas := make([]*phy.BSC, total)
	for i := range replicas {
		replicas[i] = phy.NewBSC(0, linkSeed+int64(i)*7919)
	}
	setBER := func(ch int, ber float64) {
		link.SetChannelBER(ch, ber)
		replicas[ch].BER = link.ChannelBER(ch)
	}
	setSkew := func(ch, bytes int) {
		link.SetChannelSkew(ch, bytes)
		replicas[ch].SkewBytes = bytes
	}

	// Channel conditions: a mix of clean, noisy, and skewed channels,
	// including BERs heavy enough to lose whole units so the zero-gap
	// reassembly path runs.
	for ch := 0; ch < total; ch++ {
		switch rng.Intn(4) {
		case 0:
			setBER(ch, []float64{1e-5, 1e-4, 1e-3, 1e-2}[rng.Intn(4)])
		case 1:
			setSkew(ch, rng.Intn(5))
		}
	}

	// Fault schedule: optionally kill one channel partway through, let
	// the dead channel shred its lane's traffic for a detection delay,
	// then remap the lane to a spare — mirroring how the monitor needs a
	// few superframes to condemn a channel.
	exchanges := 2 + size/3
	faultAt := -1
	faultCh := -1
	repairAt := -1
	if spares > 0 && rng.Intn(2) == 0 {
		faultAt = rng.Intn(exchanges)
		faultCh = rng.Intn(lanes)
		repairAt = faultAt + 1 + rng.Intn(3)
	}

	tx := func(physical int, wire []byte) []byte {
		return replicas[physical].TransmitTo(nil, wire)
	}

	var buf phy.ExchangeBuf
	for x := 0; x < exchanges; x++ {
		if x == faultAt {
			link.KillChannel(faultCh)
			replicas[faultCh].Dead = true
		}
		if x == repairAt {
			link.FailChannel(faultCh)
		}
		nFrames := rng.Intn(4)
		frames := make([][]byte, nFrames)
		for i := range frames {
			frames[i] = make([]byte, 3+rng.Intn(20*size))
			rng.Read(frames[i])
		}

		optOut, optStats, optErr := link.ExchangeInto(&buf, frames)

		activeLanes := link.Mapper().NumLanes()
		laneMap := make([]int, activeLanes)
		for lane := range laneMap {
			laneMap[lane] = link.Mapper().Physical(lane)
		}
		refOut, refStats, refErr := refmodel.ExchangeRef(refmodel.PipelineConfig{
			Lanes: activeLanes, UnitLen: unitLen, FEC: refFEC,
		}, laneMap, tx, frames)

		if (optErr == nil) != (refErr == nil) {
			return fmt.Sprintf("exchange %d: optimized err=%v reference err=%v", x, optErr, refErr)
		}
		if optErr != nil {
			continue
		}
		if len(optOut) != len(refOut) {
			return fmt.Sprintf("exchange %d: delivered %d frames optimized, %d reference", x, len(optOut), len(refOut))
		}
		for i := range optOut {
			if !bytes.Equal(optOut[i], refOut[i]) {
				return fmt.Sprintf("exchange %d: delivered frame %d differs", x, i)
			}
		}
		if d := exchangeStatsDiff(optStats, refStats); d != "" {
			return fmt.Sprintf("exchange %d: %s", x, d)
		}
	}
	return ""
}

// exchangeStatsDiff compares an optimized ExchangeStats against the
// reference PipelineStats field by field.
func exchangeStatsDiff(opt phy.ExchangeStats, ref refmodel.PipelineStats) string {
	type pair struct {
		name     string
		opt, ref int
	}
	for _, p := range []pair{
		{"FramesIn", opt.FramesIn, ref.FramesIn},
		{"FramesDelivered", opt.FramesDelivered, ref.FramesDelivered},
		{"FramesLost", opt.FramesLost, ref.FramesLost},
		{"FramesCorrupted", opt.FramesCorrupted, ref.FramesCorrupted},
		{"UnitsTotal", opt.UnitsTotal, ref.UnitsTotal},
		{"UnitsLost", opt.UnitsLost, ref.UnitsLost},
		{"Corrections", opt.Corrections, ref.Corrections},
		{"WireBytes", opt.WireBytes, ref.WireBytes},
		{"PayloadBytes", opt.PayloadBytes, ref.PayloadBytes},
	} {
		if p.opt != p.ref {
			return fmt.Sprintf("%s is %d optimized, %d reference", p.name, p.opt, p.ref)
		}
	}
	if len(opt.PerChannel) != len(ref.PerChannel) {
		return fmt.Sprintf("PerChannel covers %d channels optimized, %d reference", len(opt.PerChannel), len(ref.PerChannel))
	}
	for ch, st := range opt.PerChannel {
		if got := phy2ref(st); got != ref.PerChannel[ch] {
			return fmt.Sprintf("channel %d stats: optimized %+v reference %+v", ch, got, ref.PerChannel[ch])
		}
	}
	return ""
}
