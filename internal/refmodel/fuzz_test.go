package refmodel_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mosaic/internal/mac"
	"mosaic/internal/phy"
	"mosaic/internal/refmodel"
)

// Differential fuzz targets: every optimized hot-path stage against its
// naive reference model. An input is a case seed — the stage derives its
// whole case from it — and a size byte. `go test` runs the seed corpus;
// `go test -fuzz '^FuzzDiffX$'` searches further, and a divergence is
// saved under testdata/fuzz/FuzzDiffX/ and replayed by name with
// `go test -run 'FuzzDiffX/<file>'`.

// quickSeeds is the seed corpus every FuzzDiff target shares: four case
// seeds at size 4.
const quickSeeds = 4

// caseSeed is the seed of quick case c; the multiplier is an arbitrary
// odd constant that only has to separate neighbouring cases.
func caseSeed(c int) int64 { return 1 + int64(c)*0x9E3779B1 }

// diffSize maps a size byte onto the stages' size scalar, 1..8, which
// scales a case's input lengths and step counts.
func diffSize(b uint8) int { return 1 + int(b%8) }

// fuzzDiff makes stage a fuzz target: it seeds the quick corpus and fails
// on any divergence the stage reports.
func fuzzDiff(f *testing.F, stage func(seed int64, size int) string) {
	for c := range quickSeeds {
		f.Add(caseSeed(c), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		if d := stage(seed, diffSize(size)); d != "" {
			t.Fatal(d)
		}
	})
}

func FuzzDiffScrambler(f *testing.F) { fuzzDiff(f, diffScrambler) }
func FuzzDiffBSCSkip(f *testing.F)   { fuzzDiff(f, diffBSCSkip) }
func FuzzDiffRSEncode(f *testing.F)  { fuzzDiff(f, diffRSEncode) }
func FuzzDiffRSDecode(f *testing.F)  { fuzzDiff(f, diffRSDecode) }
func FuzzDiffFramer(f *testing.F)    { fuzzDiff(f, diffFramer) }
func FuzzDiffStriper(f *testing.F)   { fuzzDiff(f, diffStriper) }
func FuzzDiffMACLLR(f *testing.F)    { fuzzDiff(f, diffMACLLR) }
func FuzzDiffMACSR(f *testing.F)     { fuzzDiff(f, diffMACSR) }
func FuzzDiffMACVC(f *testing.F)     { fuzzDiff(f, diffMACVC) }
func FuzzDiffPipeline(f *testing.F)  { fuzzDiff(f, diffPipeline) }

// FuzzDiffRSVector adds two-error cases to the quick corpus: at size
// rsTwoErrors every block carries exactly two byte errors, the
// degree-2 locators whose positions the decoder solves in closed form.
func FuzzDiffRSVector(f *testing.F) {
	for c := range quickSeeds {
		f.Add(caseSeed(c), uint8(rsTwoErrors-1))
	}
	fuzzDiff(f, diffRSVector)
}

// mixedMACBuffer builds a deframer input from seed: idle runs, junk that
// may hold stray magics, and v1 and v2 frames some of which exceed the
// payload bound it returns, with size frames' worth of stray corruption.
func mixedMACBuffer(seed int64, size int) ([]byte, uint16) {
	rng := rand.New(rand.NewSource(seed))
	maxPayload := 64 + rng.Intn(256)
	var buf []byte
	for i := 0; i < 1+size; i++ {
		switch rng.Intn(5) {
		case 0: // idle run
			for j := rng.Intn(12); j > 0; j-- {
				buf = append(buf, mac.IdleByte)
			}
		case 1: // random junk (may contain stray magics)
			junk := make([]byte, rng.Intn(20))
			rng.Read(junk)
			buf = append(buf, junk...)
		case 2: // a real v2 frame with a VC byte
			p := make([]byte, rng.Intn(maxPayload+8)) // sometimes over budget
			rng.Read(p)
			buf = mac.AppendFrameVC(buf, byte(rng.Intn(8)), byte(rng.Intn(mac.MaxVCs)),
				uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), p)
		default: // a real v1 frame
			p := make([]byte, rng.Intn(maxPayload+8)) // sometimes over budget
			rng.Read(p)
			buf = mac.AppendFrame(buf, byte(rng.Intn(4)), uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), p)
		}
	}
	for i := 0; i < size && len(buf) > 0; i++ {
		buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
	}
	return buf, uint16(maxPayload)
}

// FuzzMACDeframe hammers the deframer with arbitrary byte streams under
// an arbitrary payload bound (0 = mac.DefaultMaxPayload): truncated,
// corrupted, and adversarially crafted input must never panic, every
// emitted frame must carry a CRC-valid encoding, the scan must be
// deterministic (two passes over the same bytes agree), and the
// byte-at-a-time reference deframer must agree on every frame and count.
func FuzzMACDeframe(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(make([]byte, 300), uint16(0))
	f.Add(mac.AppendFrame(nil, mac.FlagData|mac.FlagAck, 7, 9, []byte("seed payload")), uint16(0))
	corrupted := mac.AppendFrame(nil, mac.FlagData, 1, 0, bytes.Repeat([]byte{0xAA}, 40))
	corrupted[len(corrupted)/2] ^= 0x10
	f.Add(corrupted, uint16(0))
	truncated := mac.AppendFrame(nil, mac.FlagData, 2, 0, bytes.Repeat([]byte{0xBB}, 40))
	f.Add(truncated[:len(truncated)-5], uint16(0))
	f.Add([]byte{mac.Magic0, mac.Magic1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, uint16(0))
	// v2 multi-VC corpus: clean v2 frames on several channels, a sack
	// pure-ack, a v1/v2 mix, a corrupted v2 frame, and a v2 header cut off
	// right after the flags byte (the v2-specific truncation path).
	f.Add(mac.AppendFrameVC(nil, mac.FlagData|mac.FlagAck, 3, 7, 9, []byte("vc seed")), uint16(0))
	mixed := mac.AppendFrame(nil, mac.FlagData, 0, 0, []byte("v1 leg"))
	mixed = mac.AppendFrameVC(mixed, mac.FlagData, 1, 1, 0, []byte("v2 leg"))
	mixed = mac.AppendFrameVC(mixed, mac.FlagAck|mac.FlagSack, 2, 0, 5, make([]byte, mac.SackBytes))
	f.Add(mixed, uint16(0))
	corruptedV2 := mac.AppendFrameVC(nil, mac.FlagData, 255, 1, 0, bytes.Repeat([]byte{0xCC}, 40))
	corruptedV2[len(corruptedV2)/2] ^= 0x10
	f.Add(corruptedV2, uint16(0))
	f.Add([]byte{mac.Magic0, mac.Magic1, mac.FlagV2 | mac.FlagData, 9, 0, 1, 0, 2, 0, 0, 0, 0}, uint16(0))
	// The quick differential corpus: mixed buffers under a tight bound.
	for c := range quickSeeds {
		buf, maxPayload := mixedMACBuffer(caseSeed(c), 4)
		f.Add(buf, maxPayload)
	}
	// The idle scan crosses 32 bytes a step: a run broken by a non-idle
	// byte at every offset of the first step and into the second, and
	// runs that end at the buffer's tail on and off a step boundary,
	// after a frame and with nothing before them.
	for off := 0; off <= 40; off++ {
		buf := make([]byte, 80)
		buf[off] = 0x5A
		f.Add(buf, uint16(0))
	}
	ack := mac.AppendFrameVC(nil, mac.FlagAck|mac.FlagSack, 1, 0, 3, make([]byte, mac.SackBytes))
	for _, run := range []int{1, 31, 32, 33, 64, 65, 100} {
		f.Add(append(append([]byte(nil), ack...), make([]byte, run)...), uint16(0))
		f.Add(make([]byte, run), uint16(0))
	}

	f.Fuzz(func(t *testing.T, data []byte, maxPayload uint16) {
		d1 := mac.Deframer{MaxPayload: int(maxPayload)}
		var frames1 []mac.Frame
		d1.Deframe(data, func(fr mac.Frame) {
			// Re-encoding an emitted frame under its own header version
			// must reproduce a byte range of the input exactly — the
			// deframer never invents frames.
			var enc []byte
			if fr.Flags&mac.FlagV2 != 0 {
				enc = mac.AppendFrameVC(nil, fr.Flags, fr.VC, fr.Seq, fr.Ack, fr.Payload)
			} else {
				if fr.VC != 0 {
					t.Fatalf("v1 frame carries VC %d: %+v", fr.VC, fr)
				}
				enc = mac.AppendFrame(nil, fr.Flags, fr.Seq, fr.Ack, fr.Payload)
			}
			if !bytes.Contains(data, enc) {
				t.Fatalf("emitted frame not present in input: %+v", fr)
			}
			fr.Payload = append([]byte(nil), fr.Payload...)
			frames1 = append(frames1, fr)
		})

		// Determinism: a second pass sees the identical sequence.
		d2 := mac.Deframer{MaxPayload: int(maxPayload)}
		var frames2 []mac.Frame
		d2.Deframe(data, func(fr mac.Frame) {
			fr.Payload = append([]byte(nil), fr.Payload...)
			frames2 = append(frames2, fr)
		})
		if len(frames1) != len(frames2) || d1.Stats != d2.Stats {
			t.Fatalf("non-deterministic scan: %d/%d frames, %+v vs %+v",
				len(frames1), len(frames2), d1.Stats, d2.Stats)
		}
		for i := range frames1 {
			a, b := frames1[i], frames2[i]
			if a.Flags != b.Flags || a.VC != b.VC || a.Seq != b.Seq || a.Ack != b.Ack || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("frame %d diverged between passes", i)
			}
		}

		// Every input byte is accounted for exactly once: framed bytes
		// (at each frame's own header-version overhead), idle fill,
		// resync skips, and one consumed magic byte per reject event.
		var framed uint64
		for _, fr := range frames1 {
			if fr.Flags&mac.FlagV2 != 0 {
				framed += uint64(len(fr.Payload)) + mac.OverheadV2
			} else {
				framed += uint64(len(fr.Payload)) + mac.Overhead
			}
		}
		total := framed + d1.Stats.IdleBytes + d1.Stats.SkippedBytes +
			d1.Stats.HeaderRejects + d1.Stats.CRCRejects + d1.Stats.Truncated
		if total != uint64(len(data)) {
			t.Fatalf("byte accounting: total=%d stats=%+v, input=%d",
				total, d1.Stats, len(data))
		}

		// Differential oracle: the byte-at-a-time reference deframer must
		// recover the identical frame sequence and reject taxonomy.
		refFrames, refStats := refmodel.MACDeframe(data, int(maxPayload))
		if len(refFrames) != len(frames1) {
			t.Fatalf("reference recovered %d frames, optimized %d", len(refFrames), len(frames1))
		}
		for i := range frames1 {
			a, b := frames1[i], refFrames[i]
			if a.Flags != b.Flags || a.VC != b.VC || a.Seq != b.Seq || a.Ack != b.Ack || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("frame %d differs from reference: optimized %+v reference %+v", i, a, b)
			}
		}
		if got := deframe2ref(d1.Stats); got != refStats {
			t.Fatalf("deframe stats differ: optimized %+v reference %+v", got, refStats)
		}

		// Feeding arbitrary bytes through an endpoint must not panic
		// either (acks, sacks, and VC numbers from garbage are all
		// bounds-checked) — for both ARQ engines.
		ep, err := mac.NewEndpoint(mac.Config{PayloadBudget: 4096}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ep.Accept([][]byte{data})
		_ = ep.BuildSuperframe()
		sr, err := mac.NewEndpoint(mac.Config{
			PayloadBudget: 4096, ARQ: mac.ARQSelectiveRepeat,
			VCs: 4, VCClass: []uint8{0, 1, 2, 0},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sr.Accept([][]byte{data})
		_ = sr.BuildSuperframe()
	})
}

// FuzzRSLiteDecode holds the RS-lite byte decoder to the brute-force
// reference decoder on arbitrary received words: the same verdict, the
// same bytes and the same correction count.
func FuzzRSLiteDecode(f *testing.F) {
	fec := phy.NewRSLite()
	ref := refmodel.NewRSLiteRef()
	enc := fec.AppendEncode(nil, make([]byte, 64))
	f.Add(enc)
	damaged := append([]byte(nil), enc...)
	damaged[3] ^= 0x40
	damaged[40] ^= 0x01
	f.Add(damaged)
	overloaded := append([]byte(nil), enc...)
	for i := 0; i < 10; i++ {
		overloaded[i*5] ^= 0xFF
	}
	f.Add(overloaded)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, ncorr, err := fec.AppendDecode(nil, data, 64)
		// Truncated-stream errors return best-effort bytes; a successful
		// decode must honour the requested plaintext length exactly.
		if err == nil && len(out) != 64 {
			t.Fatalf("decode returned %d bytes", len(out))
		}
		// Differential oracle: the brute-force reference decoder must
		// reach the same verdict, the same bytes, and the same correction
		// count on every input the fuzzer invents.
		refOut, refCorr, refStatus := ref.Decode(data, 64)
		truncated := len(data) < fec.EncodedLen(64)
		if truncated != (refStatus == refmodel.FECTruncated) {
			t.Fatalf("truncation verdicts differ: optimized err=%v reference status=%d", err, refStatus)
		}
		if truncated {
			return
		}
		if (err == nil) != (refStatus == refmodel.FECOK) {
			t.Fatalf("decode verdicts differ: optimized err=%v reference status=%d", err, refStatus)
		}
		if !bytes.Equal(out, refOut) {
			t.Fatalf("decoded bytes differ:\noptimized %x\nreference %x", out, refOut)
		}
		if ncorr != refCorr {
			t.Fatalf("correction counts differ: optimized %d reference %d", ncorr, refCorr)
		}
	})
}
