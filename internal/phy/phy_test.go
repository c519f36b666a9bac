package phy

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// --- BSC ---

func TestBSCNoErrors(t *testing.T) {
	c := NewBSC(0, 1)
	data := []byte("hello wide and slow world")
	got := c.TransmitTo(nil, data)
	if !bytes.Equal(got, data) {
		t.Fatal("error-free channel altered data")
	}
}

func TestBSCDoesNotModifyInput(t *testing.T) {
	c := NewBSC(0.1, 1)
	data := make([]byte, 1000)
	snapshot := append([]byte(nil), data...)
	c.TransmitTo(nil, data)
	if !bytes.Equal(data, snapshot) {
		t.Fatal("TransmitTo modified its input")
	}
}

func TestBSCErrorRate(t *testing.T) {
	c := NewBSC(1e-3, 2)
	data := make([]byte, 1<<18) // 2 Mbit
	flips := 0
	for trial := 0; trial < 4; trial++ {
		got := c.TransmitTo(nil, data)
		for i := range data {
			x := got[i] ^ data[i]
			for ; x != 0; x &= x - 1 {
				flips++
			}
		}
	}
	nbits := float64(4 * len(data) * 8)
	rate := float64(flips) / nbits
	if rate < 0.8e-3 || rate > 1.2e-3 {
		t.Errorf("measured BER %v, want ~1e-3", rate)
	}
}

func TestBSCSkewPrefix(t *testing.T) {
	c := NewBSC(0, 3)
	c.SkewBytes = 17
	data := []byte("payload")
	got := c.TransmitTo(nil, data)
	if len(got) != 17+len(data) {
		t.Fatalf("length %d", len(got))
	}
	if !bytes.Equal(got[17:], data) {
		t.Fatal("payload damaged after skew prefix")
	}
}

func TestBSCDead(t *testing.T) {
	c := NewBSC(0, 4)
	c.Dead = true
	data := make([]byte, 1024)
	got := c.TransmitTo(nil, data)
	same := 0
	for i := range data {
		if got[i] == data[i] {
			same++
		}
	}
	if same > len(data)/2 {
		t.Error("dead channel should be noise, not data")
	}
}

func TestBSCClamps(t *testing.T) {
	if NewBSC(-1, 1).BER != 0 {
		t.Error("negative BER not clamped")
	}
	if NewBSC(0.9, 1).BER != 0.5 {
		t.Error("BER above 0.5 not clamped")
	}
}

// --- geometric skip-sampler edge regimes ---

// TestBSCZeroBERConsumesNoDraws pins that a clean transmit leaves the
// channel's random stream untouched: raising BER afterwards must yield
// exactly the bytes a fresh channel with the same seed produces.
func TestBSCZeroBERConsumesNoDraws(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(13)).Read(data)

	warm := NewBSC(0, 99)
	if !bytes.Equal(warm.TransmitTo(nil, data), data) {
		t.Fatal("clean channel altered data")
	}
	warm.BER = 0.01
	fresh := NewBSC(0.01, 99)
	if !bytes.Equal(warm.TransmitTo(nil, data), fresh.TransmitTo(nil, data)) {
		t.Fatal("p=0 transmit consumed random draws")
	}
}

// TestBSCDegenerateFlipsAll checks the p >= 1 short-circuit: every bit
// flips and, like p = 0, no draws are consumed.
func TestBSCDegenerateFlipsAll(t *testing.T) {
	data := make([]byte, 257)
	rand.New(rand.NewSource(14)).Read(data)

	c := NewBSC(0, 42)
	c.BER = 1 // past the constructor clamp, exercising the public knob
	got := c.TransmitTo(nil, data)
	for i := range got {
		if got[i] != data[i]^0xff {
			t.Fatalf("byte %d: %02x, want all bits flipped (%02x)", i, got[i], data[i]^0xff)
		}
	}
	c.BER = 0.25
	fresh := NewBSC(0.25, 42)
	if !bytes.Equal(c.TransmitTo(nil, data), fresh.TransmitTo(nil, data)) {
		t.Fatal("p>=1 transmit consumed random draws")
	}
}

// TestBSCTinyBERGapOvershootsFrame: at p = 1e-15 the expected gap to the
// first error is ~10^15 bits, astronomically past any frame, so the
// sampler's first draw must overshoot and leave the data untouched —
// with no intermediate work and no int overflow from the huge float gap.
func TestBSCTinyBERGapOvershootsFrame(t *testing.T) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(15)).Read(data)
	c := NewBSC(1e-15, 7)
	for round := 0; round < 8; round++ {
		if !bytes.Equal(c.TransmitTo(nil, data), data) {
			t.Fatalf("round %d: tiny-p channel flipped a bit in a 64 KiB frame "+
				"(probability ~5e-10 per round; a flip means the gap math broke)", round)
		}
	}
}

// TestBSCSkipSamplingMatchesBernoulliRate checks the sampler is still a
// faithful BSC at moderate p: the realized flip rate over a long stream
// must sit near p (law of large numbers, 6-sigma band).
func TestBSCSkipSamplingMatchesBernoulliRate(t *testing.T) {
	const p = 1e-3
	data := make([]byte, 1<<20)
	got := NewBSC(p, 21).TransmitTo(nil, data)
	flips := 0
	for i := range got {
		flips += popcount8(got[i] ^ data[i])
	}
	nbits := float64(len(data) * 8)
	mean := p * nbits
	sigma := math.Sqrt(nbits * p * (1 - p))
	if d := math.Abs(float64(flips) - mean); d > 6*sigma {
		t.Fatalf("flips = %d, want %0.f ± %0.f", flips, mean, 6*sigma)
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// --- Framer ---

// scannedFrame is one frame ScanStream recovered.
type scannedFrame struct {
	Lane        int
	Seq         uint32
	Payload     []byte
	Corrections int
}

// scanFrames collects every frame ScanStream recovers from stream, its
// payload copied out.
func scanFrames(f *Framer, stream []byte) ([]scannedFrame, DecodeStats) {
	var frames []scannedFrame
	var body []byte
	st := f.ScanStream(stream, &body, func(lane int, seq uint32, payload []byte, ncorr int) {
		frames = append(frames, scannedFrame{Lane: lane, Seq: seq, Payload: bytes.Clone(payload), Corrections: ncorr})
	})
	return frames, st
}

func TestFramerRoundTrip(t *testing.T) {
	for _, fec := range []FEC{NoFEC{}, HammingFEC{}, NewRSLite()} {
		f := NewFramer(fec, 63)
		payload := make([]byte, 63)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		wire := f.AppendFrame(nil, 5, 42, payload, new([]byte))
		frames, st := scanFrames(f, wire)
		if len(frames) != 1 {
			t.Fatalf("%s: got %d frames", fec.Name(), len(frames))
		}
		got := frames[0]
		if got.Lane != 5 || got.Seq != 42 || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("%s: frame mismatch: %+v", fec.Name(), got)
		}
		if st.Frames != 1 || st.CRCFailures != 0 {
			t.Errorf("%s: stats %+v", fec.Name(), st)
		}
	}
}

func TestFramerHuntsThroughSkew(t *testing.T) {
	f := NewFramer(HammingFEC{}, 63)
	payload := make([]byte, 63)
	wire := f.AppendFrame(nil, 1, 7, payload, new([]byte))
	// Random garbage prefix, as a skewed channel would present.
	rng := rand.New(rand.NewSource(7))
	garbage := make([]byte, 200)
	rng.Read(garbage)
	stream := append(garbage, wire...)
	frames, _ := scanFrames(f, stream)
	found := false
	for _, fr := range frames {
		if fr.Lane == 1 && fr.Seq == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("frame not recovered after skew garbage")
	}
}

func TestFramerCorrectsWithFEC(t *testing.T) {
	f := NewFramer(NewRSLite(), 63)
	payload := make([]byte, 63)
	wire := f.AppendFrame(nil, 0, 0, payload, new([]byte))
	wire[10] ^= 0xff // corrupt one byte inside the FEC region
	frames, st := scanFrames(f, wire)
	if len(frames) != 1 {
		t.Fatalf("FEC did not save the frame: %+v", st)
	}
	if st.Corrections == 0 {
		t.Error("corrections not reported")
	}
}

func TestFramerDropsOnNoFECCorruption(t *testing.T) {
	f := NewFramer(NoFEC{}, 63)
	payload := make([]byte, 63)
	wire := f.AppendFrame(nil, 0, 0, payload, new([]byte))
	wire[10] ^= 0x01
	frames, st := scanFrames(f, wire)
	if len(frames) != 0 {
		t.Fatal("corrupted unprotected frame accepted")
	}
	if st.CRCFailures == 0 {
		t.Error("CRC failure not counted")
	}
}

func TestFramerMarkerCorruption(t *testing.T) {
	f := NewFramer(HammingFEC{}, 63)
	wire := f.AppendFrame(nil, 0, 0, make([]byte, 63), new([]byte))
	wire[0] ^= 0xff // destroy the marker
	frames, _ := scanFrames(f, wire)
	if len(frames) != 0 {
		t.Fatal("frame with destroyed marker recovered")
	}
}

// TestScanStreamOneDecodePath pins ScanStream's statistics on the two
// frames the deleted "extract first, decode on a miss" fork existed for,
// to the values that fork produced: a frame whose RS blocks are all
// codewords but whose body fails the frame CRC (then: shortcut taken,
// CRC miss, full decode, same CRC miss), and a frame with one dirty
// block among clean ones (then: shortcut abandoned at the dirty block,
// full decode from the top) — plus one with an uncorrectable block. Each
// sits between two intact frames, so the resync after a reject and the
// accept after it are both in the numbers.
func TestScanStreamOneDecodePath(t *testing.T) {
	fec := NewRSLite()
	fr := NewFramer(fec, 243)
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, 243) }
	frame := func(seq uint32) []byte { return fr.AppendFrame(nil, 5, seq, payload(byte(0x30+seq)), new([]byte)) }

	// Block 1 of the middle frame gets a changed data byte and the parity
	// that makes it a codeword again: the FEC sees nothing, the CRC does.
	codewordBadCRC := frame(1)
	blk := codewordBadCRC[2+68 : 2+2*68]
	blk[4+20] ^= 0x5a
	copy(blk, fec.AppendEncode(nil, blk[4:]))

	oneDirty := frame(1)
	oneDirty[2+2*68+31] ^= 0x01

	overloaded := frame(1)
	for i := 0; i < 3; i++ {
		overloaded[2+3*68+9+i] ^= 0xff
	}

	cases := []struct {
		name   string
		middle []byte
		want   DecodeStats
		seqs   []uint32
		ncorr  []int
	}{
		{"all codewords, CRC fails", codewordBadCRC,
			DecodeStats{Frames: 2, CRCFailures: 1, SkippedBytes: 274}, []uint32{0, 2}, []int{0, 0}},
		{"one dirty block", oneDirty,
			DecodeStats{Frames: 3, Corrections: 1}, []uint32{0, 1, 2}, []int{0, 1, 0}},
		{"one overloaded block", overloaded,
			DecodeStats{Frames: 2, CRCFailures: 1, FECOverloads: 1, SkippedBytes: 274}, []uint32{0, 2}, []int{0, 0}},
	}
	for _, tc := range cases {
		stream := bytes.Join([][]byte{frame(0), tc.middle, frame(2)}, nil)
		var scratch []byte
		var seqs []uint32
		var ncorr []int
		st := fr.ScanStream(stream, &scratch, func(lane int, seq uint32, p []byte, n int) {
			if lane != 5 || !bytes.Equal(p, payload(byte(0x30+seq))) {
				t.Errorf("%s: frame seq %d delivered with lane %d or a wrong payload", tc.name, seq, lane)
			}
			seqs, ncorr = append(seqs, seq), append(ncorr, n)
		})
		if st != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, st, tc.want)
		}
		if !slices.Equal(seqs, tc.seqs) || !slices.Equal(ncorr, tc.ncorr) {
			t.Errorf("%s: delivered seqs %v with corrections %v, want %v with %v", tc.name, seqs, ncorr, tc.seqs, tc.ncorr)
		}
	}
}

func TestFramerPayloadLenPanic(t *testing.T) {
	f := NewFramer(NoFEC{}, 63)
	defer func() {
		if recover() == nil {
			t.Error("wrong payload length did not panic")
		}
	}()
	f.AppendFrame(nil, 0, 0, make([]byte, 10), new([]byte))
}

// --- Monitor ---

func TestMonitorClassification(t *testing.T) {
	m := NewMonitor(4, DefaultMonitorConfig())
	// Channel 0: clean.
	m.Observe(0, 100, 100, 0, 1e9)
	if m.Health(0).State != Healthy {
		t.Error("clean channel not healthy")
	}
	// Channel 1: high corrected-error rate -> degraded.
	m.Observe(1, 100, 100, 5000, 1e6)
	if m.Health(1).State != Degraded {
		t.Errorf("noisy channel state = %v", m.Health(1).State)
	}
	// Channel 2: most frames missing -> failed.
	m.Observe(2, 100, 10, 0, 1e6)
	if m.Health(2).State != Failed {
		t.Errorf("lossy channel state = %v", m.Health(2).State)
	}
	// Failed is sticky even if a later window looks fine.
	m.Observe(2, 100, 100, 0, 1e6)
	if m.Health(2).State != Failed {
		t.Error("failed state should be sticky")
	}
}

func TestMonitorRecovery(t *testing.T) {
	m := NewMonitor(1, DefaultMonitorConfig())
	m.Observe(0, 10, 10, 1000, 1e6) // degraded
	if m.Health(0).State != Degraded {
		t.Fatal("setup failed")
	}
	// Lots of clean traffic dilutes the estimate below threshold.
	m.Observe(0, 1000, 1000, 0, 1e12)
	if m.Health(0).State != Healthy {
		t.Errorf("channel did not recover: %v", m.Health(0).State)
	}
}

func TestMonitorBEREstimate(t *testing.T) {
	m := NewMonitor(1, DefaultMonitorConfig())
	m.Observe(0, 10, 10, 100, 1e8)
	if got := m.Health(0).EstimatedBER(); math.Abs(got-1e-6) > 1e-12 {
		t.Errorf("BER estimate = %v", got)
	}
	if (ChannelHealth{}).EstimatedBER() != 0 {
		t.Error("zero observation should estimate 0")
	}
}

func TestMonitorWorstChannels(t *testing.T) {
	m := NewMonitor(3, DefaultMonitorConfig())
	m.Observe(0, 1, 1, 10, 1e6)
	m.Observe(1, 1, 1, 1000, 1e6)
	m.Observe(2, 1, 1, 100, 1e6)
	worst := m.WorstChannels(2)
	if len(worst) != 2 || worst[0].Physical != 1 || worst[1].Physical != 2 {
		t.Errorf("worst = %+v", worst)
	}
	if len(m.WorstChannels(10)) != 3 {
		t.Error("k > n should clamp")
	}
}

func TestMonitorBounds(t *testing.T) {
	m := NewMonitor(2, DefaultMonitorConfig())
	m.Observe(-1, 1, 1, 0, 1) // must not panic
	m.Observe(5, 1, 1, 0, 1)
	m.MarkFailed(5)
	m.MarkFailed(1)
	if got := m.FailedChannels(); len(got) != 1 || got[0] != 1 {
		t.Errorf("failed = %v", got)
	}
}

// --- Mapper ---

func TestMapperBasics(t *testing.T) {
	m, err := NewMapper(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumLanes() != 4 || m.SparesLeft() != 2 || m.NumChannels() != 6 {
		t.Fatal("initial shape wrong")
	}
	for lane := 0; lane < 4; lane++ {
		if m.Physical(lane) != lane {
			t.Fatal("identity map expected")
		}
	}
	if m.LaneOf(4) != -1 {
		t.Error("spare should have no lane")
	}
}

func TestMapperFailRemapsToSpare(t *testing.T) {
	m, _ := NewMapper(4, 2)
	ev := m.Fail(2)
	if ev.Lane != 2 || ev.Spare != 4 || ev.Degraded {
		t.Fatalf("event = %+v", ev)
	}
	if m.Physical(2) != 4 || m.SparesLeft() != 1 || m.NumLanes() != 4 {
		t.Fatal("remap state wrong")
	}
	if ev.String() == "" {
		t.Error("empty event string")
	}
}

func TestMapperFailSpare(t *testing.T) {
	m, _ := NewMapper(4, 2)
	ev := m.Fail(5) // a spare
	if ev.Lane != -1 || m.SparesLeft() != 1 || m.NumLanes() != 4 {
		t.Fatalf("spare failure mishandled: %+v", ev)
	}
}

func TestMapperDegradesWhenSparesExhausted(t *testing.T) {
	m, _ := NewMapper(3, 1)
	m.Fail(0) // uses the spare
	ev := m.Fail(1)
	if !ev.Degraded || ev.Spare != -1 {
		t.Fatalf("expected degradation: %+v", ev)
	}
	if m.NumLanes() != 2 {
		t.Errorf("lanes = %d, want 2", m.NumLanes())
	}
}

func TestMapperDoubleFailIdempotent(t *testing.T) {
	m, _ := NewMapper(3, 1)
	m.Fail(1)
	ev := m.Fail(1)
	if ev.Lane != -1 || ev.Spare != -1 {
		t.Errorf("double fail should be a no-op: %+v", ev)
	}
}

func TestMapperRejectsBadShape(t *testing.T) {
	if _, err := NewMapper(0, 1); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := NewMapper(1, -1); err == nil {
		t.Error("negative spares accepted")
	}
}
