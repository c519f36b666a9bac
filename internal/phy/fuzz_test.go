package phy

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"mosaic/internal/coding/linecode"
)

// Fuzz targets: every decoder that faces wire bytes must tolerate
// arbitrary garbage without panicking, and any frame it does deliver must
// pass its own integrity checks.

func FuzzFramerDecodeStream(f *testing.F) {
	fr := NewFramer(NewRSLite(), 63)
	good := fr.AppendFrame(nil, 3, 9, make([]byte, 63), new([]byte))
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{marker0, marker1}, 50))
	f.Add(append(append([]byte{0xff, 0x00}, good...), 0xd5))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, st := scanFrames(fr, data)
		if st.Frames != len(frames) {
			t.Fatalf("stats/frames mismatch: %d vs %d", st.Frames, len(frames))
		}
		for _, cf := range frames {
			if len(cf.Payload) != 63 {
				t.Fatal("delivered frame with wrong payload size")
			}
		}
	})
}

func FuzzHammingFECDecode(f *testing.F) {
	enc := HammingFEC{}.AppendEncode(nil, make([]byte, 64))
	f.Add(enc, 64)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, plainLen int) {
		if plainLen < 0 || plainLen > 4096 {
			return
		}
		out, _, err := HammingFEC{}.AppendDecode(nil, data, plainLen)
		if err == nil && len(out) != plainLen {
			// Truncated-stream errors are fine; success must honour length.
			t.Fatalf("decode returned %d bytes for plainLen %d", len(out), plainLen)
		}
	})
}

// refParseFrames is the parse stage as it ran on linecode.Block values:
// every nine stream bytes decoded into a Block, the frame rebuilt from
// the Block's Data. The byte-stream parseFrames must deliver the same
// frames and count the same FramesDelivered / FramesCorrupted.
func refParseFrames(stream []byte, st *ExchangeStats, emit func(frame []byte)) {
	var cur []byte
	inFrame := false
	for off := 0; off+9 <= len(stream); off += 9 {
		var payload [8]byte
		copy(payload[:], stream[off+1:off+9])
		blk, err := linecode.DecodeBlock(stream[off], payload)
		if err != nil {
			if inFrame {
				st.FramesCorrupted++
				inFrame = false
			}
			continue
		}
		switch blk.Kind {
		case linecode.KindStart:
			if inFrame {
				st.FramesCorrupted++
			}
			cur = append(cur[:0], blk.Data[:7]...)
			inFrame = true
		case linecode.KindData:
			if inFrame {
				cur = append(cur, blk.Data[:]...)
			}
		case linecode.KindTerm:
			if !inFrame {
				continue
			}
			cur = append(cur, blk.Data[:blk.TermLen]...)
			inFrame = false
			if len(cur) < 4 {
				st.FramesCorrupted++
				continue
			}
			body := cur[:len(cur)-4]
			if crc32.ChecksumIEEE(body) == binary.BigEndian.Uint32(cur[len(cur)-4:]) {
				emit(body)
				st.FramesDelivered++
			} else {
				st.FramesCorrupted++
			}
		case linecode.KindIdle:
			if inFrame {
				st.FramesCorrupted++
				inFrame = false
			}
		}
	}
	if inFrame {
		st.FramesCorrupted++
	}
}

func FuzzParseFramesNeverPanics(f *testing.F) {
	// Random descrambled block streams must never panic the frame parser,
	// anything it delivers must have passed the FCS, and it must agree
	// with the Block-based reference parser on every stream.
	f.Add(make([]byte, 90))
	f.Add([]byte{0x01, 1, 2, 3, 4, 5, 6, 7, 8})
	// An encode-stage stream (every TermLen: frame + FCS, then an idle,
	// as stageEncode writes them), then the same stream with a sync
	// header, a start type, a terminate type and an FCS byte damaged, a
	// terminate dropped, and a ragged end.
	var stream []byte
	for n := 3; n <= 40; n++ {
		fr := SeededFrames(int64(n), 1, n)[0]
		var err error
		stream, err = linecode.AppendFrame(stream, binary.BigEndian.AppendUint32(fr, crc32.ChecksumIEEE(fr)))
		if err != nil {
			f.Fatal(err)
		}
		stream = linecode.AppendIdle(stream)
	}
	f.Add(append([]byte(nil), stream...))
	for _, hit := range []int{0, 1, 9 * 4, 9*7 + 1, 9*11 + 3, 9 * 20} {
		damaged := append([]byte(nil), stream...)
		damaged[hit] ^= 0x13
		f.Add(damaged)
	}
	f.Add(append(append([]byte(nil), stream[:9*5]...), stream[9*6:]...))
	f.Add(append([]byte(nil), stream[:len(stream)/2+4]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st, refSt ExchangeStats
		var buf ExchangeBuf
		var refFrames [][]byte
		parseFrames(data, &st, &buf)
		frames := buf.frames
		refParseFrames(data, &refSt, func(frame []byte) {
			refFrames = append(refFrames, append([]byte(nil), frame...))
		})
		if st.FramesDelivered != refSt.FramesDelivered || st.FramesCorrupted != refSt.FramesCorrupted {
			t.Fatalf("delivered/corrupted %d/%d, Block-based reference %d/%d",
				st.FramesDelivered, st.FramesCorrupted, refSt.FramesDelivered, refSt.FramesCorrupted)
		}
		if len(frames) != len(refFrames) {
			t.Fatalf("%d frames, reference %d", len(frames), len(refFrames))
		}
		// An FCS collision on random garbage is ~2^-32 per candidate;
		// tolerate it but verify sizes are sane.
		for i, fr := range frames {
			if !bytes.Equal(fr, refFrames[i]) {
				t.Fatalf("frame %d: %x, reference %x", i, fr, refFrames[i])
			}
			if len(fr) < 3 {
				t.Fatal("undersized frame delivered")
			}
		}
	})
}
