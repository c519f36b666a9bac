package refmodel_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"mosaic/internal/mac"
	"mosaic/internal/refmodel"
)

// diffMACSR advances an optimized selective-repeat endpoint pair and the
// naive reference twin in lockstep over an identical deterministic lossy
// link: single VC, per-slot retransmit timers, sack bitmaps, and the
// bounded reorder buffer all in play.
func diffMACSR(seed int64, size int) string {
	rng := rand.New(rand.NewSource(seed))
	cfg := mac.Config{
		Window:        2 + rng.Intn(15),
		RetxTimeout:   1 + rng.Intn(4),
		MaxPayload:    32 + rng.Intn(97),
		ARQ:           mac.ARQSelectiveRepeat,
		VCs:           1,
		ReorderWindow: 2 + rng.Intn(15),
	}
	cfg.PayloadBudget = (cfg.MaxPayload + mac.OverheadV2) * (1 + rng.Intn(3))
	return diffMACARQ(rng, cfg, 10*size)
}

// diffMACVC does the same over 2–4 virtual channels with random QoS
// classes, alternating go-back-N and selective repeat so both protocols
// run through the v2 multi-VC framing and the weighted scheduler.
func diffMACVC(seed int64, size int) string {
	rng := rand.New(rand.NewSource(seed))
	vcs := 2 + rng.Intn(3)
	classes := make([]uint8, vcs)
	for i := range classes {
		classes[i] = uint8(rng.Intn(mac.NumClasses))
	}
	cfg := mac.Config{
		Window:        2 + rng.Intn(15),
		RetxTimeout:   1 + rng.Intn(4),
		MaxPayload:    32 + rng.Intn(97),
		VCs:           vcs,
		VCClass:       classes,
		ReorderWindow: 2 + rng.Intn(15),
	}
	if rng.Intn(2) == 0 {
		cfg.ARQ = mac.ARQSelectiveRepeat
	} else {
		cfg.ARQ = mac.ARQGoBackN
	}
	cfg.PayloadBudget = (cfg.MaxPayload + mac.OverheadV2) * (2 + rng.Intn(4))
	return diffMACARQ(rng, cfg, 10*size)
}

// diffMACARQ is the shared lockstep harness: optimized pair vs reference
// twin pair over the same loss pattern, demanding byte-identical
// superframes every tick, identical delivered (packet, VC) streams, and
// identical aggregate counters.
func diffMACARQ(rng *rand.Rand, cfg mac.Config, ticks int) string {
	type rx struct {
		vc int
		p  []byte
	}
	var optDelivered []rx
	optA, err := mac.NewEndpoint(cfg, func(vc int, p []byte) {
		optDelivered = append(optDelivered, rx{vc, append([]byte(nil), p...)})
	})
	if err != nil {
		return "optimized endpoint: " + err.Error()
	}
	optB, err := mac.NewEndpoint(cfg, nil)
	if err != nil {
		return "optimized endpoint: " + err.Error()
	}

	classes := cfg.VCClass
	if classes == nil {
		classes = make([]uint8, cfg.VCs)
	}
	rcfg := refmodel.ARQConfig{
		Window:        cfg.Window,
		RetxTimeout:   cfg.RetxTimeout,
		MaxPayload:    cfg.MaxPayload,
		Budget:        cfg.PayloadBudget,
		SelectiveRep:  cfg.ARQ == mac.ARQSelectiveRepeat,
		Classes:       classes,
		ReorderWindow: cfg.ReorderWindow,
	}
	refA, err := refmodel.NewARQEndpoint(rcfg)
	if err != nil {
		return "reference endpoint: " + err.Error()
	}
	refB, err := refmodel.NewARQEndpoint(rcfg)
	if err != nil {
		return "reference endpoint: " + err.Error()
	}

	for tick := 0; tick < ticks; tick++ {
		if rng.Intn(3) != 0 {
			vc := rng.Intn(cfg.VCs)
			p := make([]byte, 1+rng.Intn(cfg.MaxPayload))
			rng.Read(p)
			if err := optB.SendVC(vc, p); err != nil {
				return "optimized send: " + err.Error()
			}
			if err := refB.SendVC(vc, p); err != nil {
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
	refDelivered, refVCs := refA.Delivered()
	if len(optDelivered) != len(refDelivered) {
		return fmt.Sprintf("delivered %d packets optimized, %d reference", len(optDelivered), len(refDelivered))
	}
	for i := range optDelivered {
		if optDelivered[i].vc != refVCs[i] {
			return fmt.Sprintf("delivered packet %d on VC %d optimized, VC %d reference",
				i, optDelivered[i].vc, refVCs[i])
		}
		if !bytes.Equal(optDelivered[i].p, refDelivered[i]) {
			return fmt.Sprintf("delivered packet %d differs", i)
		}
	}
	return ""
}
