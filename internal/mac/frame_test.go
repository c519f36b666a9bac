package mac

import (
	"bytes"
	"math/rand"
	"testing"
)

// collect runs the deframer over buf and returns deep copies of the
// emitted frames (payloads alias buf, so tests that mutate buf copy).
func collect(t *testing.T, d *Deframer, buf []byte) []Frame {
	t.Helper()
	var out []Frame
	d.Deframe(buf, func(f Frame) {
		f.Payload = append([]byte(nil), f.Payload...)
		out = append(out, f)
	})
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	type sent struct {
		flags    byte
		seq, ack uint16
		payload  []byte
	}
	var want []sent
	for i := 0; i < 20; i++ {
		p := make([]byte, rng.Intn(300))
		rng.Read(p)
		s := sent{FlagData | FlagAck, uint16(i), uint16(1000 + i), p}
		want = append(want, s)
		buf = AppendFrame(buf, s.flags, s.seq, s.ack, s.payload)
		// Random idle fill between frames.
		for j := rng.Intn(10); j > 0; j-- {
			buf = append(buf, IdleByte)
		}
	}

	var d Deframer
	got := collect(t, &d, buf)
	if len(got) != len(want) {
		t.Fatalf("deframed %d frames, want %d", len(got), len(want))
	}
	for i, f := range got {
		w := want[i]
		if f.Flags != w.flags || f.Seq != w.seq || f.Ack != w.ack || !bytes.Equal(f.Payload, w.payload) {
			t.Fatalf("frame %d mismatch: got {%x %d %d %dB}", i, f.Flags, f.Seq, f.Ack, len(f.Payload))
		}
	}
	if d.Stats.CRCRejects != 0 || d.Stats.SkippedBytes != 0 {
		t.Fatalf("clean stream produced rejects: %+v", d.Stats)
	}
}

func TestDeframeEmptyPayload(t *testing.T) {
	buf := AppendFrame(nil, FlagAck, 0, 7, nil)
	var d Deframer
	got := collect(t, &d, buf)
	if len(got) != 1 || got[0].Ack != 7 || len(got[0].Payload) != 0 {
		t.Fatalf("pure ack did not round-trip: %+v", got)
	}
}

// A bit flip anywhere in one frame must reject exactly that frame and
// recover every later one.
func TestDeframeResyncsAfterCorruption(t *testing.T) {
	payload := []byte("hello mosaic")
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = AppendFrame(buf, FlagData, uint16(i), 0, payload)
	}
	frameLen := Overhead + len(payload)

	for off := 0; off < frameLen; off++ {
		mut := append([]byte(nil), buf...)
		mut[2*frameLen+off] ^= 0xFF // corrupt frame 2
		var d Deframer
		got := collect(t, &d, mut)
		if len(got) < 4 {
			t.Fatalf("offset %d: recovered %d frames, want >= 4", off, len(got))
		}
		// Frames 0, 1, 3, 4 must always survive in order.
		seqs := map[uint16]bool{}
		for _, f := range got {
			seqs[f.Seq] = true
		}
		for _, s := range []uint16{0, 1, 3, 4} {
			if !seqs[s] {
				t.Fatalf("offset %d: frame seq=%d lost; stats %+v", off, s, d.Stats)
			}
		}
	}
}

// Removing a chunk from the middle (a lost PHY frame splicing the
// stream) must still recover the frames on both sides of the cut.
func TestDeframeResyncsAfterSplice(t *testing.T) {
	payload := make([]byte, 100)
	rand.New(rand.NewSource(2)).Read(payload)
	var buf []byte
	for i := 0; i < 6; i++ {
		buf = AppendFrame(buf, FlagData, uint16(i), 0, payload)
	}
	// Cut 150 bytes straddling frames 2 and 3.
	cutAt := 2*(Overhead+100) + 50
	spliced := append(append([]byte(nil), buf[:cutAt]...), buf[cutAt+150:]...)

	var d Deframer
	got := collect(t, &d, spliced)
	seqs := map[uint16]bool{}
	for _, f := range got {
		seqs[f.Seq] = true
	}
	for _, s := range []uint16{0, 1, 4, 5} {
		if !seqs[s] {
			t.Fatalf("frame seq=%d lost after splice; got %v, stats %+v", s, seqs, d.Stats)
		}
	}
	if seqs[2] || seqs[3] {
		t.Fatalf("frames inside the cut were 'recovered': %v", seqs)
	}
}

func TestDeframeHeaderReject(t *testing.T) {
	// Valid magic, absurd length: must be header-rejected, and the valid
	// frame after it must still decode.
	buf := []byte{Magic0, Magic1, 0, 0, 0, 0, 0, 0xFF, 0xFF}
	buf = append(buf, make([]byte, 8)...)
	buf = AppendFrame(buf, FlagData, 42, 0, []byte("ok"))
	var d Deframer
	got := collect(t, &d, buf)
	if len(got) != 1 || got[0].Seq != 42 {
		t.Fatalf("got %+v, want the one valid frame", got)
	}
	if d.Stats.HeaderRejects == 0 {
		t.Fatalf("expected a header reject: %+v", d.Stats)
	}
}

func TestDeframeTruncatedTail(t *testing.T) {
	buf := AppendFrame(nil, FlagData, 1, 0, []byte("full frame"))
	whole := AppendFrame(nil, FlagData, 2, 0, []byte("cut off"))
	buf = append(buf, whole[:len(whole)-3]...) // drop last 3 bytes
	var d Deframer
	got := collect(t, &d, buf)
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("got %+v, want only the complete frame", got)
	}
}

func TestDeframeIdleOnly(t *testing.T) {
	var d Deframer
	got := collect(t, &d, make([]byte, 500))
	if len(got) != 0 {
		t.Fatalf("idle fill produced frames: %+v", got)
	}
	if d.Stats.IdleBytes != 500 {
		t.Fatalf("idle bytes = %d, want 500", d.Stats.IdleBytes)
	}
}

// TestDeframeIdleRunStats pins every DeframeStats field on buffers where
// idle fill matters: all idle, ending mid-run, and idle runs interleaved
// with valid, truncated and CRC-rejected frames (whose own zero bytes are
// rescanned as idle). The expected values were computed by the per-byte
// idle loop this deframer replaced; the run-at-a-time walk must reproduce
// them, including idle bytes inside the last MinFrameLen-1 bytes, which
// the tail loop counts.
func TestDeframeIdleRunStats(t *testing.T) {
	idle := func(n int) []byte { return bytes.Repeat([]byte{IdleByte}, n) }
	payload := []byte{1, 0, 0, 2, 3, 0, 4, 5, 6, 7, 0, 0, 0, 8}
	valid := AppendFrame(nil, FlagData, 3, 9, payload)
	validV2 := AppendFrameVC(nil, FlagData|FlagAck, 2, 4, 10, payload[:5])
	crcBad := append([]byte(nil), valid...)
	crcBad[HeaderLen+3] ^= 0x40
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	cases := []struct {
		name string
		buf  []byte
		want DeframeStats
	}{
		{"all idle", idle(500), DeframeStats{IdleBytes: 500}},
		{"all idle, shorter than a frame", idle(MinFrameLen - 1), DeframeStats{IdleBytes: 12}},
		{"empty", nil, DeframeStats{}},
		{"ends mid-run", cat(idle(17), valid, idle(5)), DeframeStats{Frames: 1, PayloadBytes: 14, IdleBytes: 22}},
		{"run ends inside the tail", cat(idle(30), []byte{Magic0, Magic1, 0x07}, idle(4)), DeframeStats{IdleBytes: 34, SkippedBytes: 3}},
		{"magic in the tail after a run", cat(idle(30), []byte{0x55}, idle(6), []byte{Magic0}, idle(2)), DeframeStats{IdleBytes: 38, SkippedBytes: 2}},
		{"truncated frame after a run", cat(idle(9), valid, idle(40), valid[:len(valid)-6]), DeframeStats{Frames: 1, PayloadBytes: 14, IdleBytes: 57, SkippedBytes: 12, Truncated: 1}},
		{"CRC reject between runs", cat(idle(3), crcBad, idle(21), validV2, idle(1)), DeframeStats{Frames: 1, PayloadBytes: 5, IdleBytes: 34, SkippedBytes: 17, CRCRejects: 1}},
		{"all three interleaved", cat(idle(2), valid, idle(64), crcBad, idle(7), validV2, idle(13), validV2[:HeaderLenV2+2], idle(3)), DeframeStats{Frames: 2, PayloadBytes: 19, IdleBytes: 102, SkippedBytes: 24, CRCRejects: 1, Truncated: 1}},
		{"no idle at all", cat(valid, validV2, valid), DeframeStats{Frames: 3, PayloadBytes: 33}},
	}
	for _, tc := range cases {
		var d Deframer
		frames := collect(t, &d, tc.buf)
		if uint64(len(frames)) != d.Stats.Frames {
			t.Errorf("%s: emitted %d frames, Stats.Frames %d", tc.name, len(frames), d.Stats.Frames)
		}
		if d.Stats != tc.want {
			t.Errorf("%s:\n got  %#v\n want %#v", tc.name, d.Stats, tc.want)
		}
	}
}
