package mac

import (
	"bytes"
	"testing"

	"mosaic/internal/refmodel"
)

// FuzzMACDeframe hammers the deframer with arbitrary byte streams:
// truncated, corrupted, and adversarially crafted input must never
// panic, every emitted frame must carry a CRC-valid encoding, and the
// scan must be deterministic (two passes over the same bytes agree).
func FuzzMACDeframe(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 300))
	f.Add(AppendFrame(nil, FlagData|FlagAck, 7, 9, []byte("seed payload")))
	corrupted := AppendFrame(nil, FlagData, 1, 0, bytes.Repeat([]byte{0xAA}, 40))
	corrupted[len(corrupted)/2] ^= 0x10
	f.Add(corrupted)
	truncated := AppendFrame(nil, FlagData, 2, 0, bytes.Repeat([]byte{0xBB}, 40))
	f.Add(truncated[:len(truncated)-5])
	f.Add([]byte{Magic0, Magic1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	// v2 multi-VC corpus: clean v2 frames on several channels, a sack
	// pure-ack, a v1/v2 mix, a corrupted v2 frame, and a v2 header cut off
	// right after the flags byte (the v2-specific truncation path).
	f.Add(AppendFrameVC(nil, FlagData|FlagAck, 3, 7, 9, []byte("vc seed")))
	mixed := AppendFrame(nil, FlagData, 0, 0, []byte("v1 leg"))
	mixed = AppendFrameVC(mixed, FlagData, 1, 1, 0, []byte("v2 leg"))
	mixed = AppendFrameVC(mixed, FlagAck|FlagSack, 2, 0, 5, make([]byte, SackBytes))
	f.Add(mixed)
	corruptedV2 := AppendFrameVC(nil, FlagData, 255, 1, 0, bytes.Repeat([]byte{0xCC}, 40))
	corruptedV2[len(corruptedV2)/2] ^= 0x10
	f.Add(corruptedV2)
	f.Add([]byte{Magic0, Magic1, FlagV2 | FlagData, 9, 0, 1, 0, 2, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var d1 Deframer
		var frames1 []Frame
		d1.Deframe(data, func(fr Frame) {
			// Re-encoding an emitted frame under its own header version
			// must reproduce a byte range of the input exactly — the
			// deframer never invents frames.
			var enc []byte
			if fr.Flags&FlagV2 != 0 {
				enc = AppendFrameVC(nil, fr.Flags, fr.VC, fr.Seq, fr.Ack, fr.Payload)
			} else {
				if fr.VC != 0 {
					t.Fatalf("v1 frame carries VC %d: %+v", fr.VC, fr)
				}
				enc = AppendFrame(nil, fr.Flags, fr.Seq, fr.Ack, fr.Payload)
			}
			if !bytes.Contains(data, enc) {
				t.Fatalf("emitted frame not present in input: %+v", fr)
			}
			fr.Payload = append([]byte(nil), fr.Payload...)
			frames1 = append(frames1, fr)
		})

		// Determinism: a second pass sees the identical sequence.
		var d2 Deframer
		var frames2 []Frame
		d2.Deframe(data, func(fr Frame) {
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
			if fr.Flags&FlagV2 != 0 {
				framed += uint64(len(fr.Payload)) + OverheadV2
			} else {
				framed += uint64(len(fr.Payload)) + Overhead
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
		refFrames, refStats := refmodel.MACDeframe(data, 0)
		if len(refFrames) != len(frames1) {
			t.Fatalf("reference recovered %d frames, optimized %d", len(refFrames), len(frames1))
		}
		for i := range frames1 {
			a, b := frames1[i], refFrames[i]
			if a.Flags != b.Flags || a.VC != b.VC || a.Seq != b.Seq || a.Ack != b.Ack || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("frame %d differs from reference: optimized %+v reference %+v", i, a, b)
			}
		}
		optStats := refmodel.MACDeframeStats{
			Frames:        d1.Stats.Frames,
			PayloadBytes:  d1.Stats.PayloadBytes,
			IdleBytes:     d1.Stats.IdleBytes,
			SkippedBytes:  d1.Stats.SkippedBytes,
			HeaderRejects: d1.Stats.HeaderRejects,
			CRCRejects:    d1.Stats.CRCRejects,
			Truncated:     d1.Stats.Truncated,
		}
		if optStats != refStats {
			t.Fatalf("deframe stats differ: optimized %+v reference %+v", optStats, refStats)
		}

		// Feeding arbitrary bytes through an endpoint must not panic
		// either (acks, sacks, and VC numbers from garbage are all
		// bounds-checked) — for both ARQ engines.
		ep, err := NewEndpoint(Config{PayloadBudget: 4096}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ep.Accept([][]byte{data})
		_ = ep.BuildSuperframe()
		sr, err := NewEndpoint(Config{
			PayloadBudget: 4096, ARQ: ARQSelectiveRepeat,
			VCs: 4, VCClass: []uint8{0, 1, 2, 0},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sr.Accept([][]byte{data})
		_ = sr.BuildSuperframe()
	})
}
