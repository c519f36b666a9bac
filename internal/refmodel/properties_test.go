package refmodel_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/channel"
	"mosaic/internal/coding/linecode"
	"mosaic/internal/coding/rs"
	"mosaic/internal/mac"
	"mosaic/internal/photonics"
	"mosaic/internal/phy"
	"mosaic/internal/reliability"
	"mosaic/internal/units"
)

// Property and metamorphic suites for the physics and coding layers:
// instead of pinning golden values, these assert relationships that must
// hold for any correct implementation — monotonicity, round-trip
// identity, bounded error propagation, and closed-form agreement.

// mosaicOperatingPoint builds the paper's per-channel optical link at a
// given path loss.
func mosaicOperatingPoint(pathLossDB float64) channel.OpticalParams {
	led := photonics.DefaultMicroLED()
	i := led.NominalCurrent()
	return channel.OpticalParams{
		TxPowerW:          led.OpticalPower(i) / 2,
		TxBandwidthHz:     led.Bandwidth(i),
		WavelengthM:       led.WavelengthM,
		RINdBHz:           led.RINdBHz,
		ExtinctionRatioDB: 12,
		PathLossDB:        pathLossDB,
		MediumBWHz:        5e9,
		CrosstalkDB:       math.Inf(-1),
		Rx:                photonics.MosaicReceiver(),
		BitRate:           2e9,
		Modulation:        channel.NRZ,
	}
}

// TestBERMonotoneInSNR sweeps path loss upward (SNR downward) and
// requires the analog model's Q to fall and BER to rise monotonically.
func TestBERMonotoneInSNR(t *testing.T) {
	prevQ := 0.0
	prevBER := 0.0
	for step := 0; step <= 30; step++ {
		loss := 1 + float64(step) // 1..31 dB
		r, err := mosaicOperatingPoint(loss).Evaluate()
		if err != nil {
			t.Fatalf("loss %.0f dB: %v", loss, err)
		}
		if step > 0 {
			if r.Q > prevQ {
				t.Fatalf("Q rose from %.3f to %.3f as path loss grew to %.0f dB", prevQ, r.Q, loss)
			}
			if r.BER < prevBER {
				t.Fatalf("BER fell from %.3g to %.3g as path loss grew to %.0f dB", prevBER, r.BER, loss)
			}
		}
		prevQ, prevBER = r.Q, r.BER
	}
	// The Q <-> BER mapping itself must be anti-monotone.
	for q := 1.0; q < 10; q += 0.5 {
		if units.BERFromQ(q) <= units.BERFromQ(q+0.5) {
			t.Fatalf("BERFromQ not decreasing at Q=%.1f", q)
		}
	}
}

// TestFECWaterfallMonotoneInDistance injects e symbol errors into RS
// codes of growing minimum distance and requires (a) guaranteed success
// inside each code's error budget and (b) a decode success rate that is
// non-decreasing in the code distance at every error weight.
func TestFECWaterfallMonotoneInDistance(t *testing.T) {
	codes := []struct {
		n, k int
	}{{68, 64}, {68, 60}, {68, 56}} // t = 2, 4, 6
	const trials = 60
	rng := rand.New(rand.NewSource(21))
	// success[c][e] = decodes that returned the transmitted codeword.
	success := make([][]int, len(codes))
	for ci, nk := range codes {
		code, err := rs.Lite(nk.n, nk.k)
		if err != nil {
			t.Fatal(err)
		}
		success[ci] = make([]int, 9)
		for e := 0; e <= 8; e++ {
			for trial := 0; trial < trials; trial++ {
				data := make([]int, nk.k)
				for i := range data {
					data[i] = rng.Intn(256)
				}
				cw := make([]int, nk.n)
				if err := code.EncodeTo(cw, data); err != nil {
					t.Fatal(err)
				}
				recv := append([]int(nil), cw...)
				for _, pos := range rng.Perm(nk.n)[:e] {
					recv[pos] ^= 1 + rng.Intn(255)
				}
				out := make([]int, nk.n)
				_, err := code.DecodeTo(out, recv, make([]int, nk.n-nk.k))
				ok := err == nil
				if ok {
					for i := range out {
						if out[i] != cw[i] {
							ok = false
							break
						}
					}
				}
				if ok {
					success[ci][e]++
				}
				if e <= code.T() && !ok {
					t.Fatalf("RS(%d,%d) failed inside its budget: %d errors (t=%d)", nk.n, nk.k, e, code.T())
				}
			}
		}
	}
	// Waterfall ordering: more distance never decodes worse (small slack
	// for the rare beyond-budget miscorrection of the weaker code).
	const slack = 3
	for ci := 1; ci < len(codes); ci++ {
		for e := 0; e <= 8; e++ {
			if success[ci][e]+slack < success[ci-1][e] {
				t.Fatalf("at %d errors RS(%d,%d) decoded %d/%d but weaker RS(%d,%d) decoded %d/%d",
					e, codes[ci].n, codes[ci].k, success[ci][e], trials,
					codes[ci-1].n, codes[ci-1].k, success[ci-1][e], trials)
			}
		}
	}
}

// TestScramblerErrorPropagationBounded flips one channel bit and
// requires the self-synchronizing descrambler to corrupt at most 3
// output bits (the error itself plus its two taps), everything else
// intact — the property that makes scrambling safe under noise.
func TestScramblerErrorPropagationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	data := make([]byte, 256)
	rng.Read(data)
	const seed = 0x2a5f3c19d4b7e
	clean := linecode.NewScrambler(seed).Scramble(append([]byte(nil), data...))
	for trial := 0; trial < 50; trial++ {
		corrupted := append([]byte(nil), clean...)
		bit := rng.Intn(len(corrupted) * 8)
		corrupted[bit/8] ^= 1 << uint(bit%8)
		out := linecode.NewDescrambler(seed).Descramble(corrupted)
		diffBits := 0
		for i := range out {
			d := out[i] ^ data[i]
			for ; d != 0; d &= d - 1 {
				diffBits++
			}
		}
		if diffBits == 0 || diffBits > 3 {
			t.Fatalf("flipping channel bit %d corrupted %d output bits (want 1..3)", bit, diffBits)
		}
	}
}

// TestMACDeframeCorruptionLocality corrupts only inter-frame fill and
// requires the exact same frames to be recovered: damage outside frame
// extents must never affect framed data (resynchronization locality).
func TestMACDeframeCorruptionLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		var buf []byte
		type extent struct{ start, end int }
		var extents []extent
		var gaps []int
		for i := 0; i < 6; i++ {
			for j := 2 + rng.Intn(10); j > 0; j-- {
				gaps = append(gaps, len(buf))
				buf = append(buf, mac.IdleByte)
			}
			p := make([]byte, rng.Intn(64))
			rng.Read(p)
			start := len(buf)
			buf = mac.AppendFrame(buf, mac.FlagData, uint16(i), uint16(i), p)
			extents = append(extents, extent{start, len(buf)})
		}
		deframe := func(b []byte) ([]mac.Frame, mac.DeframeStats) {
			var frames []mac.Frame
			var d mac.Deframer
			d.Deframe(b, func(f mac.Frame) {
				f.Payload = append([]byte(nil), f.Payload...)
				frames = append(frames, f)
			})
			return frames, d.Stats
		}
		baseline, baseStats := deframe(buf)
		if int(baseStats.Frames) != len(extents) {
			t.Fatalf("clean buffer: recovered %d of %d frames", baseStats.Frames, len(extents))
		}
		// Corrupt a handful of gap bytes only.
		corrupted := append([]byte(nil), buf...)
		for i := 0; i < 4; i++ {
			corrupted[gaps[rng.Intn(len(gaps))]] ^= byte(1 + rng.Intn(255))
		}
		got, _ := deframe(corrupted)
		if len(got) != len(baseline) {
			t.Fatalf("gap corruption changed recovered frame count: %d -> %d", len(baseline), len(got))
		}
		for i := range got {
			if got[i].Seq != baseline[i].Seq || !bytes.Equal(got[i].Payload, baseline[i].Payload) {
				t.Fatalf("gap corruption changed recovered frame %d", i)
			}
		}
	}
}

// TestChannelFrameResyncLocality destroys one channel frame's marker and
// requires every other frame on the stream to survive — one bad frame
// must never poison the rest of the lane.
func TestChannelFrameResyncLocality(t *testing.T) {
	const unitLen = 27
	fr := phy.NewFramer(phy.NewRSLite(), unitLen)
	rng := rand.New(rand.NewSource(24))
	const nFrames = 8
	payloads := make([][]byte, nFrames)
	var stream, body []byte
	for seq := 0; seq < nFrames; seq++ {
		payloads[seq] = make([]byte, unitLen)
		rng.Read(payloads[seq])
		stream = fr.AppendFrame(stream, 1, uint32(seq), payloads[seq], &body)
	}
	for victim := 0; victim < nFrames; victim++ {
		corrupted := append([]byte(nil), stream...)
		corrupted[victim*fr.WireLen()] ^= 0xFF // kill the marker
		seen := make(map[uint32]bool)
		fr.ScanStream(corrupted, &body, func(_ int, seq uint32, payload []byte, _ int) {
			seen[seq] = true
			if !bytes.Equal(payload, payloads[seq]) {
				t.Fatalf("victim %d: frame %d recovered with wrong payload", victim, seq)
			}
		})
		for seq := 0; seq < nFrames; seq++ {
			if seq != victim && !seen[uint32(seq)] {
				t.Fatalf("victim %d: innocent frame %d was lost", victim, seq)
			}
		}
	}
}

// TestSparingSurvivalMatchesClosedForm checks the k-of-n sparing model
// three ways: Monte Carlo agrees with the binomial closed form, more
// spares never hurt, and longer missions never help.
func TestSparingSurvivalMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const mission = 10 * reliability.HoursPerYear
	for _, n := range []int{10, 104} {
		prev := -1.0
		for spares := 0; spares <= 4; spares++ {
			s := reliability.SparedSystem{N: n, Spares: spares, PerChannel: 5000}
			closed := s.SurvivalProb(mission)
			if closed < prev {
				t.Fatalf("n=%d: survival fell from %.6f to %.6f when spares grew to %d", n, prev, closed, spares)
			}
			prev = closed
			mc := reliability.MonteCarloSurvival(s, mission, 20000, rng)
			if diff := mc - closed; diff > 0.015 || diff < -0.015 {
				t.Fatalf("n=%d spares=%d: Monte Carlo %.4f vs closed form %.4f", n, spares, mc, closed)
			}
		}
		// Longer missions only lose channels.
		s := reliability.SparedSystem{N: n, Spares: 2, PerChannel: 5000}
		prevR := 1.1
		for years := 1; years <= 16; years *= 2 {
			r := s.SurvivalProb(float64(years) * reliability.HoursPerYear)
			if r > prevR {
				t.Fatalf("n=%d: survival rose from %.6f to %.6f at %d years", n, prevR, r, years)
			}
			prevR = r
		}
	}
}
