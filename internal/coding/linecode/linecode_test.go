package linecode

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// --- Scrambler ---

func TestScramblerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4096)
	rng.Read(data)
	in := append([]byte(nil), data...)

	s := NewScrambler(0x123456789abcd)
	d := NewDescrambler(0x123456789abcd) // matching state: exact from bit 0
	scrambled := s.Scramble(append([]byte(nil), in...))
	out := d.Descramble(append([]byte(nil), scrambled...))
	if !bytes.Equal(out, data) {
		t.Fatal("scramble/descramble with matching state not identity")
	}
}

func TestScramblerSelfSynchronizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 1024)
	rng.Read(data)

	s := NewScrambler(0xdeadbeefcafe)
	d := NewDescrambler(0) // wrong state on purpose
	scrambled := s.Scramble(append([]byte(nil), data...))
	out := d.Descramble(scrambled)
	// After 58 bits (8 bytes) the descrambler must have locked.
	if !bytes.Equal(out[8:], data[8:]) {
		t.Fatal("descrambler did not self-synchronize after 58 bits")
	}
}

func TestScramblerErrorMultiplication(t *testing.T) {
	// A single channel bit error corrupts at most 3 descrambled bits.
	data := make([]byte, 256)
	s1 := NewScrambler(7)
	s2 := NewScrambler(7)
	a := s1.Scramble(append([]byte(nil), data...))
	b := s2.Scramble(append([]byte(nil), data...))
	b[100] ^= 0x01 // one bit error

	da := NewDescrambler(0).Descramble(a)
	db := NewDescrambler(0).Descramble(b)
	diff := 0
	for i := range da {
		x := da[i] ^ db[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff == 0 || diff > 3 {
		t.Errorf("error multiplication = %d bits, want 1..3", diff)
	}
}

func TestScramblerWhitens(t *testing.T) {
	// All-zero input must come out roughly balanced (this is the whole
	// point of scrambling a DC-coupled line).
	s := NewScrambler(0x5a5a5a5a5a5a5)
	out := s.Scramble(make([]byte, 1<<16))
	ones := 0
	for _, b := range out {
		for x := b; x != 0; x &= x - 1 {
			ones++
		}
	}
	total := 8 * (1 << 16)
	frac := float64(ones) / float64(total)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("scrambled all-zeros has ones fraction %v, want ~0.5", frac)
	}
}

// --- 8b/10b ---

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	var d8 [8]byte
	copy(d8[:], "abcdefgh")
	var f7 [7]byte
	copy(f7[:], "1234567")
	term3, _ := TermBlock([]byte{9, 8, 7})
	blocks := []Block{
		DataBlock(d8),
		IdleBlock(),
		StartBlock(f7),
		term3,
	}
	for _, want := range blocks {
		sync, payload, err := want.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBlock(sync, payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.TermLen != want.TermLen {
			t.Fatalf("kind/termlen mismatch: %+v vs %+v", got, want)
		}
		if got.Kind == KindData && got.Data != want.Data {
			t.Fatal("data mismatch")
		}
	}
}

func TestAllTermLengths(t *testing.T) {
	for n := 0; n <= 7; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i + 1)
		}
		b, err := TermBlock(data)
		if err != nil {
			t.Fatal(err)
		}
		sync, payload, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBlock(sync, payload)
		if err != nil || got.TermLen != n {
			t.Fatalf("T%d: %v, len %d", n, err, got.TermLen)
		}
		if !bytes.Equal(got.Data[:n], data) {
			t.Fatalf("T%d data mismatch", n)
		}
	}
	if _, err := TermBlock(make([]byte, 8)); err == nil {
		t.Error("8-byte terminate accepted")
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	var p [8]byte
	if _, err := DecodeBlock(0b11, p); err == nil {
		t.Error("bad sync accepted")
	}
	p[0] = 0x42 // unknown control type
	if _, err := DecodeBlock(SyncCtrl, p); err == nil {
		t.Error("unknown block type accepted")
	}
}

// blocksToFrame is the test-side inverse of AppendFrameBlocks: it
// reassembles a payload from a Start..Term block run and returns the
// number of blocks consumed.
func blocksToFrame(blocks []Block) ([]byte, int, error) {
	if len(blocks) == 0 || blocks[0].Kind != KindStart {
		return nil, 0, fmt.Errorf("%w: frame must begin with a start block", ErrBadFraming)
	}
	frame := append([]byte(nil), blocks[0].Data[:7]...)
	for i := 1; i < len(blocks); i++ {
		switch blocks[i].Kind {
		case KindData:
			frame = append(frame, blocks[i].Data[:]...)
		case KindTerm:
			return append(frame, blocks[i].Data[:blocks[i].TermLen]...), i + 1, nil
		default:
			return nil, 0, fmt.Errorf("%w: unexpected %v block inside frame", ErrBadFraming, blocks[i].Kind)
		}
	}
	return nil, 0, fmt.Errorf("%w: missing terminate block", ErrBadFraming)
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{7, 8, 15, 16, 64, 65, 1499, 1500} {
		frame := make([]byte, n)
		rng.Read(frame)
		blocks, err := AppendFrameBlocks(nil, frame)
		if err != nil {
			t.Fatal(err)
		}
		got, used, err := blocksToFrame(blocks)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if used != len(blocks) {
			t.Errorf("n=%d: consumed %d of %d blocks", n, used, len(blocks))
		}
		if !bytes.Equal(got, frame) {
			t.Fatalf("n=%d: frame mismatch", n)
		}
	}
}

func TestFrameTooShort(t *testing.T) {
	if _, err := AppendFrameBlocks(nil, make([]byte, 3)); err == nil {
		t.Error("sub-minimum frame accepted")
	}
}

func TestFrameQuickRoundTrip(t *testing.T) {
	prop := func(raw []byte) bool {
		if len(raw) < MinFrameLen {
			raw = append(raw, make([]byte, MinFrameLen-len(raw))...)
		}
		blocks, err := AppendFrameBlocks(nil, raw)
		if err != nil {
			return false
		}
		got, _, err := blocksToFrame(blocks)
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []BlockKind{KindData, KindIdle, KindStart, KindTerm} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	if BlockKind(99).String() != "kind(99)" {
		t.Error("unknown kind formatting")
	}
}

func BenchmarkScramble(b *testing.B) {
	s := NewScrambler(1)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		s.Scramble(buf)
	}
}

// TestScramblerWordMatchesBitSerial pins the word-at-a-time slice paths
// against pure bit-serial processing at non-64-aligned split points: the
// same stream scrambled in one call, in odd-sized chunks (each chunk
// boundary forces a history write-back/reload), and one bit at a time
// must be byte-identical, and likewise for the descrambler.
func TestScramblerWordMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 7, 8, 9, 63, 64, 65, 1023} {
		data := make([]byte, size)
		rng.Read(data)
		seed := rng.Uint64() & (1<<58 - 1)

		bitwise := func(state uint64, in []byte) []byte {
			s := NewScrambler(state)
			out := make([]byte, len(in))
			for i, b := range in {
				var o byte
				for j := 0; j < 8; j++ {
					o |= s.ScrambleBit(b>>uint(j)) << uint(j)
				}
				out[i] = o
			}
			return out
		}
		want := bitwise(seed, data)

		whole := NewScrambler(seed).Scramble(append([]byte(nil), data...))
		if !bytes.Equal(whole, want) {
			t.Fatalf("size %d: whole-slice scramble differs from bit-serial", size)
		}

		for _, chunk := range []int{1, 3, 5, 13} {
			s := NewScrambler(seed)
			got := append([]byte(nil), data...)
			for off := 0; off < len(got); off += chunk {
				end := off + chunk
				if end > len(got) {
					end = len(got)
				}
				s.Scramble(got[off:end])
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d chunk %d: chunked scramble differs from bit-serial", size, chunk)
			}
		}

		// Descrambler: same splits must all invert back to the input.
		for _, chunk := range []int{1, 3, 5, 13, size} {
			d := NewDescrambler(seed)
			got := append([]byte(nil), want...)
			for off := 0; off < len(got); off += chunk {
				end := off + chunk
				if end > len(got) {
					end = len(got)
				}
				d.Descramble(got[off:end])
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("size %d chunk %d: chunked descramble not the inverse", size, chunk)
			}
		}
	}
}

// TestStreamEncoderMatchesBlocks pins the byte-stream encoder to the
// Block API byte for byte: AppendFrame then AppendIdle must write what
// AppendFrameBlocks + IdleBlock serialise to through Block.Encode, for
// every frame length 7..264 (each TermLen 0-7 many times over) and a
// 1500-byte frame with its FCS, onto a dst whose spare capacity holds
// stale bytes (the terminate block's fill must be written, not assumed).
func TestStreamEncoderMatchesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{1504}
	for n := MinFrameLen; n <= 264; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		frame := make([]byte, n)
		rng.Read(frame)
		blocks, err := AppendFrameBlocks(nil, frame)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte{0xEE} // a prefix both must leave alone
		for _, b := range append(blocks, IdleBlock()) {
			sync, payload, err := b.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want = append(append(want, sync), payload[:]...)
		}
		dst := bytes.Repeat([]byte{0xEE}, len(want)+9)[:1]
		got, err := AppendFrame(dst, frame)
		if err != nil {
			t.Fatal(err)
		}
		if got = AppendIdle(got); !bytes.Equal(got, want) {
			t.Fatalf("n=%d (TermLen %d): stream\n %x\nblocks encode to\n %x", n, (n-MinFrameLen)%8, got, want)
		}
	}
	dst := []byte{1, 2, 3}
	if got, err := AppendFrame(dst, make([]byte, MinFrameLen-1)); err == nil || !bytes.Equal(got, dst) {
		t.Errorf("sub-minimum frame: got %x, err %v; want dst back and ErrBadFraming", got, err)
	}
}

// TestClassifyMatchesDecodeBlock pins the control-byte classifier to
// DecodeBlock on every (sync, type) pair — both valid sync headers times
// all 256 type bytes, plus every invalid sync value: same accept/reject,
// same kind, same TermLen.
func TestClassifyMatchesDecodeBlock(t *testing.T) {
	for sync := 0; sync < 256; sync++ {
		for typ := 0; typ < 256; typ++ {
			payload := [8]byte{byte(typ), 1, 2, 3, 4, 5, 6, 7}
			blk, err := DecodeBlock(byte(sync), payload)
			kind, termLen, ok := Classify(byte(sync), byte(typ))
			if ok != (err == nil) {
				t.Fatalf("sync %#x type %#x: Classify ok=%v, DecodeBlock err=%v", sync, typ, ok, err)
			}
			if ok && (kind != blk.Kind || termLen != blk.TermLen) {
				t.Fatalf("sync %#x type %#x: Classify (%v, %d), DecodeBlock (%v, %d)",
					sync, typ, kind, termLen, blk.Kind, blk.TermLen)
			}
		}
	}
}
