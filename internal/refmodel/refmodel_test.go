package refmodel_test

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"mosaic/internal/coding/gf"
	"mosaic/internal/coding/linecode"
	"mosaic/internal/coding/rs"
	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/refmodel"
)

// The reference models must agree with the optimized implementations on
// everything the differential harness compares. These tests pin the
// agreement at the unit level so a diffcheck divergence always points at
// a genuine behavioural change, not at reference drift.

func TestGFAgainstTableField(t *testing.T) {
	f := gf.MustNew(8)
	for a := 1; a < 256; a++ {
		if got, want := refmodel.GFInv(a), f.Div(1, a); got != want {
			t.Fatalf("GFInv(%d) = %d, field says %d", a, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := rng.Intn(256), rng.Intn(256)
		if got, want := refmodel.GFMul(a, b), f.Mul(a, b); got != want {
			t.Fatalf("GFMul(%d,%d) = %d, field says %d", a, b, got, want)
		}
		n := rng.Intn(600)
		if got, want := refmodel.GFPow(a, n), f.Pow(a, n); a != 0 && got != want {
			t.Fatalf("GFPow(%d,%d) = %d, field says %d", a, n, got, want)
		}
	}
	for i := 0; i < 510; i++ {
		if got, want := refmodel.GFAlpha(i), f.Alpha(i); got != want {
			t.Fatalf("GFAlpha(%d) = %d, field says %d", i, got, want)
		}
	}
}

func TestCRC32AgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		if got, want := refmodel.CRC32(buf), crc32.ChecksumIEEE(buf); got != want {
			t.Fatalf("CRC32 mismatch on %d bytes: %08x vs %08x", len(buf), got, want)
		}
	}
}

func rsPair(t *testing.T, n, k int) (*refmodel.RS, *rs.Code) {
	t.Helper()
	ref, err := refmodel.NewRS(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := rs.Lite(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return ref, opt
}

func TestRSEncodeAgainstOptimized(t *testing.T) {
	for _, nk := range [][2]int{{68, 64}, {24, 18}, {15, 11}} {
		ref, opt := rsPair(t, nk[0], nk[1])
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50; i++ {
			data := make([]int, nk[1])
			for j := range data {
				data[j] = rng.Intn(256)
			}
			got, err := ref.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, nk[0])
			if err := opt.EncodeTo(want, data); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RS(%d,%d) codeword mismatch:\nref %v\nopt %v", nk[0], nk[1], got, want)
			}
		}
	}
}

func TestRSDecodeAgainstOptimized(t *testing.T) {
	for _, nk := range [][2]int{{68, 64}, {24, 18}} {
		ref, opt := rsPair(t, nk[0], nk[1])
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 60; trial++ {
			data := make([]int, nk[1])
			for j := range data {
				data[j] = rng.Intn(256)
			}
			cw, _ := ref.Encode(data)
			// 0..t+2 errors: inside the budget both must correct to the
			// codeword; outside it both must reach the same verdict.
			nerr := rng.Intn(ref.T() + 3)
			recv := append([]int(nil), cw...)
			for _, pos := range rng.Perm(len(recv))[:nerr] {
				recv[pos] ^= 1 + rng.Intn(255)
			}
			refOut, refCorr, refOK := ref.Decode(append([]int(nil), recv...))
			optOut := make([]int, nk[0])
			optCorr, optErr := opt.DecodeTo(optOut, recv, make([]int, nk[0]-nk[1]))
			if refOK != (optErr == nil) {
				t.Fatalf("RS(%d,%d) %d errors: verdicts differ (ref ok=%v, opt err=%v)",
					nk[0], nk[1], nerr, refOK, optErr)
			}
			if refOK {
				if !reflect.DeepEqual(refOut, optOut) {
					t.Fatalf("RS(%d,%d) corrected words differ", nk[0], nk[1])
				}
				if refCorr != optCorr {
					t.Fatalf("RS(%d,%d) correction counts differ: ref %d opt %d", nk[0], nk[1], refCorr, optCorr)
				}
				if nerr <= ref.T() && !reflect.DeepEqual(refOut, cw) {
					t.Fatalf("RS(%d,%d) %d<=t errors not corrected to the codeword", nk[0], nk[1], nerr)
				}
			}
		}
	}
}

func TestScramblerAgainstOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 512)
	rng.Read(data)
	const seed = 0x2a5f3c19d4b7e

	want := linecode.NewScrambler(seed).Scramble(append([]byte(nil), data...))
	got := refmodel.NewScrambler(seed).Scramble(data)
	if !bytes.Equal(got, want) {
		t.Fatal("reference scrambler output differs from optimized")
	}
	// Cross-descramble both ways: the pair must be mutually inverse.
	if back := refmodel.NewDescrambler(seed).Descramble(want); !bytes.Equal(back, data) {
		t.Fatal("reference descrambler does not invert optimized scrambler")
	}
	if back := linecode.NewDescrambler(seed).Descramble(append([]byte(nil), got...)); !bytes.Equal(back, data) {
		t.Fatal("optimized descrambler does not invert reference scrambler")
	}
}

func TestStripeDestripeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, lanes := range []int{1, 3, 7} {
		stream := make([]byte, 9*4*lanes+9*5)
		for len(stream)%9 != 0 {
			stream = stream[:len(stream)-1]
		}
		rng.Read(stream)
		perLane, err := refmodel.Stripe(stream, lanes, 9)
		if err != nil {
			t.Fatal(err)
		}
		total := len(stream) / 9
		if got := refmodel.Destripe(perLane, total, 9); !bytes.Equal(got, stream) {
			t.Fatalf("lanes=%d: destripe(stripe(x)) != x", lanes)
		}
		// Remove one middle unit: its slot must come back zero-filled and
		// every other byte must be untouched.
		if total > 2 && lanes > 1 {
			g := total / 2
			lane, seq := g%lanes, g/lanes
			var kept []refmodel.Unit
			for _, u := range perLane[lane] {
				if u.Seq != seq {
					kept = append(kept, u)
				}
			}
			perLane[lane] = kept
			got := refmodel.Destripe(perLane, total, 9)
			want := append([]byte(nil), stream...)
			for i := g * 9; i < (g+1)*9; i++ {
				want[i] = 0
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("lanes=%d: zero-gap destripe wrong", lanes)
			}
		}
	}
}

func TestFramerAgainstOptimized(t *testing.T) {
	const unitLen = 63
	ref := refmodel.NewFramer(refmodel.NewRSLiteRef(), unitLen)
	opt := phy.NewFramer(phy.NewRSLite(), unitLen)
	if ref.WireLen() != opt.WireLen() {
		t.Fatalf("wire lengths differ: ref %d opt %d", ref.WireLen(), opt.WireLen())
	}
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	for seq := 0; seq < 6; seq++ {
		payload := make([]byte, unitLen)
		rng.Read(payload)
		refWire := ref.EncodeFrame(3, uint32(seq), payload)
		optWire := opt.Encode(3, uint32(seq), payload)
		if !bytes.Equal(refWire, optWire) {
			t.Fatalf("seq %d: wire frames differ", seq)
		}
		stream = append(stream, refWire...)
	}
	// Corrupt a few bytes so the hunt paths (skip, FEC correct, CRC
	// reject) are exercised identically on both sides.
	for i := 0; i < 8; i++ {
		stream[rng.Intn(len(stream))] ^= byte(1 + rng.Intn(255))
	}
	refFrames, refStats := ref.DecodeStream(stream)
	optFrames, optStats := opt.DecodeStream(stream)
	if refStats != phy2ref(optStats) {
		t.Fatalf("decode stats differ: ref %+v opt %+v", refStats, optStats)
	}
	if len(refFrames) != len(optFrames) {
		t.Fatalf("frame counts differ: ref %d opt %d", len(refFrames), len(optFrames))
	}
	for i := range refFrames {
		if refFrames[i].Lane != optFrames[i].Lane || refFrames[i].Seq != optFrames[i].Seq ||
			refFrames[i].Corrections != optFrames[i].Corrections ||
			!bytes.Equal(refFrames[i].Payload, optFrames[i].Payload) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

func phy2ref(st phy.DecodeStats) refmodel.DecodeStats {
	return refmodel.DecodeStats{
		Frames:       st.Frames,
		CRCFailures:  st.CRCFailures,
		FECOverloads: st.FECOverloads,
		Corrections:  st.Corrections,
		SkippedBytes: st.SkippedBytes,
	}
}

func TestMACDeframeAgainstOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var buf []byte
	for i := 0; i < 5; i++ {
		p := make([]byte, rng.Intn(40))
		rng.Read(p)
		buf = refmodel.AppendMACFrame(buf, refmodel.MACFlagData|refmodel.MACFlagAck,
			uint16(i), uint16(i*3), p)
		// Inter-frame garbage: idles plus random junk.
		for j := 0; j < rng.Intn(10); j++ {
			buf = append(buf, 0)
		}
		junk := make([]byte, rng.Intn(6))
		rng.Read(junk)
		buf = append(buf, junk...)
	}
	// Sanity: the reference encoder matches the optimized one.
	p := []byte{1, 2, 3}
	if !bytes.Equal(refmodel.AppendMACFrame(nil, 3, 7, 9, p), mac.AppendFrame(nil, 3, 7, 9, p)) {
		t.Fatal("reference MAC frame encoding differs from optimized")
	}
	for i := 0; i < 20; i++ {
		buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
	}
	refFrames, refStats := refmodel.MACDeframe(buf, 0)
	var optFrames []mac.Frame
	var d mac.Deframer
	d.Deframe(buf, func(f mac.Frame) {
		f.Payload = append([]byte(nil), f.Payload...)
		optFrames = append(optFrames, f)
	})
	optStats := d.Stats
	if refStats != (refmodel.MACDeframeStats{
		Frames:        optStats.Frames,
		PayloadBytes:  optStats.PayloadBytes,
		IdleBytes:     optStats.IdleBytes,
		SkippedBytes:  optStats.SkippedBytes,
		HeaderRejects: optStats.HeaderRejects,
		CRCRejects:    optStats.CRCRejects,
		Truncated:     optStats.Truncated,
	}) {
		t.Fatalf("deframe stats differ: ref %+v opt %+v", refStats, optStats)
	}
	if len(refFrames) != len(optFrames) {
		t.Fatalf("frame counts differ: ref %d opt %d", len(refFrames), len(optFrames))
	}
	for i := range refFrames {
		o := optFrames[i]
		if refFrames[i].Flags != o.Flags || refFrames[i].Seq != o.Seq || refFrames[i].Ack != o.Ack ||
			!bytes.Equal(refFrames[i].Payload, o.Payload) {
			t.Fatalf("frame %d differs", i)
		}
	}
}

// TestLLRAgainstOptimized runs a reference endpoint pair and an optimized
// endpoint pair over the same deterministic lossy link and demands
// byte-identical superframes every tick plus identical delivery and stats.
func TestLLRAgainstOptimized(t *testing.T) {
	const budget = 512
	cfg := mac.Config{Window: 8, RetxTimeout: 3, MaxPayload: 128, PayloadBudget: budget}
	var optDelivered [][]byte
	optA, err := mac.NewEndpoint(cfg, func(p []byte) {
		optDelivered = append(optDelivered, append([]byte(nil), p...))
	})
	if err != nil {
		t.Fatal(err)
	}
	optB, err := mac.NewEndpoint(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	refA, err := refmodel.NewLLREndpoint(8, 3, 128, budget)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := refmodel.NewLLREndpoint(8, 3, 128, budget)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	lossRng := rand.New(rand.NewSource(10))
	for tick := 0; tick < 120; tick++ {
		if rng.Intn(3) == 0 {
			p := make([]byte, 1+rng.Intn(100))
			rng.Read(p)
			if err := optB.Send(p); err != nil {
				t.Fatal(err)
			}
			if err := refB.Send(p); err != nil {
				t.Fatal(err)
			}
		}
		sfOpt := optB.BuildSuperframe()
		sfRef := refB.BuildSuperframe()
		if !bytes.Equal(sfOpt, sfRef) {
			t.Fatalf("tick %d: B superframes differ", tick)
		}
		// Lossy link: drop or truncate some superframes, identically for
		// both pairs.
		var chunks [][]byte
		switch lossRng.Intn(4) {
		case 0: // dropped entirely
		case 1: // truncated (a lost PHY frame splices the stream)
			cut := lossRng.Intn(len(sfOpt))
			chunks = [][]byte{sfOpt[:cut]}
		default:
			chunks = [][]byte{sfOpt}
		}
		optA.Accept(chunks)
		refA.Accept(chunks)

		backOpt := optA.BuildSuperframe()
		backRef := refA.BuildSuperframe()
		if !bytes.Equal(backOpt, backRef) {
			t.Fatalf("tick %d: A superframes differ", tick)
		}
		optB.Accept([][]byte{backOpt})
		refB.Accept([][]byte{backRef})
	}
	for _, pair := range []struct {
		name string
		opt  mac.Stats
		ref  refmodel.MACStats
	}{{"A", optA.Stats(), refA.Stats()}, {"B", optB.Stats(), refB.Stats()}} {
		if got, want := pair.ref, mac2ref(pair.opt); got != want {
			t.Fatalf("endpoint %s stats differ:\nref %+v\nopt %+v", pair.name, got, want)
		}
	}
	refDelivered := refA.Delivered()
	if len(optDelivered) != len(refDelivered) {
		t.Fatalf("delivered counts differ: opt %d ref %d", len(optDelivered), len(refDelivered))
	}
	for i := range optDelivered {
		if !bytes.Equal(optDelivered[i], refDelivered[i]) {
			t.Fatalf("delivered packet %d differs", i)
		}
	}
}

func mac2ref(s mac.Stats) refmodel.MACStats {
	return refmodel.MACStats{
		PacketsQueued: s.PacketsQueued,
		DataTx:        s.DataTx,
		Retransmits:   s.Retransmits,
		AcksTx:        s.AcksTx,
		DataRx:        s.DataRx,
		Delivered:     s.Delivered,
		Duplicates:    s.Duplicates,
		Discarded:     s.Discarded,
		Reordered:     s.Reordered,
		AcksRx:        s.AcksRx,
		SacksRx:       s.SacksRx,
		UnknownVC:     s.UnknownVC,
		CreditStalls:  s.CreditStalls,
		Timeouts:      s.Timeouts,
		InFlight:      s.InFlight,
		QueueDepth:    s.QueueDepth,
		ReorderDepth:  s.ReorderDepth,
		Deframe: refmodel.MACDeframeStats{
			Frames:        s.Deframe.Frames,
			PayloadBytes:  s.Deframe.PayloadBytes,
			IdleBytes:     s.Deframe.IdleBytes,
			SkippedBytes:  s.Deframe.SkippedBytes,
			HeaderRejects: s.Deframe.HeaderRejects,
			CRCRejects:    s.Deframe.CRCRejects,
			Truncated:     s.Deframe.Truncated,
		},
	}
}

// TestExchangeRefAgainstLinkNoiseless drives the optimized link and the
// reference pipeline over clean channels and compares delivered frames
// and every statistic.
func TestExchangeRefAgainstLinkNoiseless(t *testing.T) {
	cfg := phy.Config{Lanes: 5, Spares: 1, FEC: phy.NewRSLite(), UnitLen: 63, Seed: 11, Workers: 1}
	link, err := phy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	frames := make([][]byte, 7)
	for i := range frames {
		frames[i] = make([]byte, 3+rng.Intn(200))
		rng.Read(frames[i])
	}
	optOut, optStats, err := link.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}

	laneMap := make([]int, cfg.Lanes)
	for lane := range laneMap {
		laneMap[lane] = link.Mapper().Physical(lane)
	}
	refCfg := refmodel.PipelineConfig{Lanes: cfg.Lanes, UnitLen: cfg.UnitLen, FEC: refmodel.NewRSLiteRef()}
	refOut, refStats, err := refmodel.ExchangeRef(refCfg, laneMap, nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(optOut) != len(refOut) {
		t.Fatalf("delivered counts differ: opt %d ref %d", len(optOut), len(refOut))
	}
	for i := range optOut {
		if !bytes.Equal(optOut[i], refOut[i]) {
			t.Fatalf("delivered frame %d differs", i)
		}
	}
	if optStats.FramesDelivered != refStats.FramesDelivered ||
		optStats.FramesLost != refStats.FramesLost ||
		optStats.FramesCorrupted != refStats.FramesCorrupted ||
		optStats.UnitsTotal != refStats.UnitsTotal ||
		optStats.UnitsLost != refStats.UnitsLost ||
		optStats.Corrections != refStats.Corrections ||
		optStats.WireBytes != refStats.WireBytes ||
		optStats.PayloadBytes != refStats.PayloadBytes {
		t.Fatalf("exchange stats differ:\nopt %+v\nref %+v", optStats, refStats)
	}
	for ch, st := range optStats.PerChannel {
		if refStats.PerChannel[ch] != phy2ref(st) {
			t.Fatalf("channel %d stats differ: opt %+v ref %+v", ch, st, refStats.PerChannel[ch])
		}
	}
}
