package phy

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func testFrames(rng *rand.Rand, n, size int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = make([]byte, size)
		rng.Read(frames[i])
	}
	return frames
}

func mustLink(t *testing.T, cfg Config) *Link {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestExchangeCleanChannels(t *testing.T) {
	l := mustLink(t, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	frames := testFrames(rng, 20, 1500)
	got, st, err := l.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered != 20 || st.FramesCorrupted != 0 || st.UnitsLost != 0 {
		t.Fatalf("stats: %+v", st)
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestExchangeVariousSizes(t *testing.T) {
	l := mustLink(t, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	sizes := []int{3, 4, 7, 64, 65, 512, 1500, 9000}
	frames := make([][]byte, len(sizes))
	for i, s := range sizes {
		frames[i] = make([]byte, s)
		rng.Read(frames[i])
	}
	got, st, err := l.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered != len(sizes) {
		t.Fatalf("delivered %d of %d: %+v", st.FramesDelivered, len(sizes), st)
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("size %d mismatch", sizes[i])
		}
	}
}

func TestExchangeRejectsTinyFrame(t *testing.T) {
	l := mustLink(t, DefaultConfig())
	if _, _, err := l.Exchange([][]byte{{1, 2}}); err == nil {
		t.Error("2-byte frame accepted")
	}
}

func TestExchangeEmpty(t *testing.T) {
	l := mustLink(t, DefaultConfig())
	got, st, err := l.Exchange(nil)
	if err != nil || len(got) != 0 || st.FramesDelivered != 0 {
		t.Fatalf("empty exchange: %v %v %+v", got, err, st)
	}
}

func TestExchangeWithModerateBER(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FEC = NewRSLite()
	l := mustLink(t, cfg)
	for p := 0; p < l.Mapper().NumChannels(); p++ {
		l.SetChannelBER(p, 1e-6)
	}
	rng := rand.New(rand.NewSource(3))
	frames := testFrames(rng, 100, 1500)
	got, st, err := l.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered < 99 {
		t.Fatalf("FEC should carry 1e-6 BER easily: %+v", st)
	}
	for i := range got {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestFECPreventsLossThatNoFECSuffers(t *testing.T) {
	run := func(fec FEC) ExchangeStats {
		cfg := DefaultConfig()
		cfg.FEC = fec
		cfg.Seed = 7
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < l.Mapper().NumChannels(); p++ {
			l.SetChannelBER(p, 3e-5)
		}
		rng := rand.New(rand.NewSource(4))
		_, st, err := l.Exchange(testFrames(rng, 200, 1500))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	bare := run(NoFEC{})
	coded := run(NewRSLite())
	if bare.FramesDelivered >= 200 {
		t.Skip("unprotected run had no losses; raise BER")
	}
	if coded.FramesDelivered <= bare.FramesDelivered {
		t.Errorf("FEC did not help: %d vs %d delivered", coded.FramesDelivered, bare.FramesDelivered)
	}
	if coded.Corrections == 0 {
		t.Error("no corrections recorded")
	}
}

func TestExchangeSurvivesSkew(t *testing.T) {
	l := mustLink(t, DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	for p := 0; p < l.Mapper().NumChannels(); p++ {
		l.SetChannelSkew(p, rng.Intn(50))
	}
	frames := testFrames(rng, 30, 1000)
	got, st, err := l.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered != 30 {
		t.Fatalf("skew broke reassembly: %+v", st)
	}
	for i := range got {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatal("frame mismatch under skew")
		}
	}
}

func TestDeadChannelDetectedAndSpared(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 20
	cfg.Spares = 2
	l := mustLink(t, cfg)
	rng := rand.New(rand.NewSource(6))

	l.KillChannel(7)
	_, st1, err := l.Exchange(testFrames(rng, 50, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if st1.UnitsLost == 0 {
		t.Fatal("dead channel lost no units?")
	}
	if l.Monitor().Health(7).State != Failed {
		t.Fatalf("monitor did not flag channel 7: %v", l.Monitor().Health(7).State)
	}

	// Spare it out; traffic must fully recover.
	ev := l.FailChannel(7)
	if ev.Spare != 20 {
		t.Fatalf("remap event: %+v", ev)
	}
	frames := testFrames(rng, 50, 1500)
	got, st2, err := l.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st2.FramesDelivered != 50 || st2.UnitsLost != 0 {
		t.Fatalf("after sparing: %+v", st2)
	}
	for i := range got {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatal("frame mismatch after sparing")
		}
	}
}

func TestGracefulDegradationWithoutSpares(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 10
	cfg.Spares = 0
	l := mustLink(t, cfg)
	rate0 := l.AggregateRate()

	l.KillChannel(3)
	ev := l.FailChannel(3)
	if !ev.Degraded {
		t.Fatalf("expected degradation: %+v", ev)
	}
	if l.Mapper().NumLanes() != 9 {
		t.Fatal("lane not removed")
	}
	if l.AggregateRate() >= rate0 {
		t.Error("aggregate rate should drop")
	}
	// But the link still works.
	rng := rand.New(rand.NewSource(7))
	frames := testFrames(rng, 20, 1200)
	got, st, err := l.Exchange(frames)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDelivered != 20 {
		t.Fatalf("degraded link dropped frames: %+v", st)
	}
	for i := range got {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatal("frame mismatch on degraded link")
		}
	}
}

func TestExchangeDeterministic(t *testing.T) {
	run := func() ExchangeStats {
		cfg := DefaultConfig()
		cfg.Seed = 99
		l, _ := New(cfg)
		for p := 0; p < l.Mapper().NumChannels(); p++ {
			l.SetChannelBER(p, 1e-5)
		}
		rng := rand.New(rand.NewSource(8))
		_, st, err := l.Exchange(testFrames(rng, 50, 1500))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.FramesDelivered != b.FramesDelivered || a.Corrections != b.Corrections ||
		a.UnitsLost != b.UnitsLost {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestGoodputFraction(t *testing.T) {
	l := mustLink(t, DefaultConfig())
	g := l.GoodputFraction()
	if g <= 0.5 || g >= 1 {
		t.Errorf("goodput fraction = %v, want (0.5,1)", g)
	}
	// Measured efficiency should be in the same ballpark as predicted.
	rng := rand.New(rand.NewSource(9))
	_, st, err := l.Exchange(testFrames(rng, 200, 1500))
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(st.PayloadBytes) / float64(st.WireBytes)
	if measured < g*0.8 || measured > g*1.05 {
		t.Errorf("measured efficiency %v vs predicted %v", measured, g)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Lanes = 0
	if _, err := New(bad); err == nil {
		t.Error("zero lanes accepted")
	}
	bad = DefaultConfig()
	bad.UnitLen = 10 // not multiple of 9
	if _, err := New(bad); err == nil {
		t.Error("misaligned UnitLen accepted")
	}
	// Defaults fill in.
	cfg := Config{Lanes: 2}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Config().UnitLen != 243 {
		t.Error("UnitLen default not applied")
	}
}

func TestFECByName(t *testing.T) {
	for _, name := range []string{"none", "", "hamming72", "rslite", "kp4"} {
		if _, err := FECByName(name); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	if _, err := FECByName("quantum"); err == nil {
		t.Error("unknown FEC accepted")
	}
}

func TestChannelStateString(t *testing.T) {
	for _, s := range []ChannelState{Healthy, Degraded, Failed, ChannelState(9)} {
		if s.String() == "" {
			t.Error("empty state name")
		}
	}
}

func BenchmarkExchange100ch(b *testing.B) {
	cfg := DefaultConfig()
	l, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < l.Mapper().NumChannels(); p++ {
		l.SetChannelBER(p, 1e-9)
	}
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, 64)
	total := 0
	for i := range frames {
		frames[i] = make([]byte, 1500)
		rng.Read(frames[i])
		total += 1500
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := l.Exchange(frames)
		if err != nil {
			b.Fatal(err)
		}
		if st.FramesDelivered != 64 {
			b.Fatal(fmt.Sprintf("dropped frames: %+v", st))
		}
	}
}

// SpareFailed remaps exactly the channels the monitor failed and the
// mapper has not retired: once each, in ascending order, whoever retired
// the others.
func TestSpareFailedRemapsEachFailedChannelOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 20
	cfg.Spares = 2
	l := mustLink(t, cfg)
	l.FailChannel(9) // retired by the caller: not SpareFailed's to report
	l.Monitor().MarkFailed(12)
	l.Monitor().MarkFailed(4)

	var got []RemapEvent
	if n := l.SpareFailed(func(ev RemapEvent) { got = append(got, ev) }); n != 2 {
		t.Fatalf("spared %d channels, want 2", n)
	}
	// One spare went to channel 9; 4 takes the last one, 12 degrades.
	want := []RemapEvent{
		{Physical: 4, Lane: 4, Spare: 21},
		{Physical: 12, Lane: 12, Spare: -1, Degraded: true},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("remap events %+v, want %+v", got, want)
	}
	if n := l.SpareFailed(nil); n != 0 {
		t.Fatalf("second pass spared %d channels, want 0", n)
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestExchangeIntoArena drives twin links, one through Exchange and one
// through ExchangeInto on a reused arena, over NoFEC lanes noisy enough
// to lose units mid-frame. A lost unit descrambles to random block
// headers, so now and then a frame in progress meets a garbage start,
// terminate or idle block: at this seed the parse stage's restart,
// FCS-failure and idle-in-frame branches all run beside clean
// deliveries. Every round the twins must deliver the same frames and
// stats; Exchange's frames belong to the caller and survive the next
// round; an append through a delivered frame never reaches the next
// one; and a warmed ExchangeInto allocates nothing.
func TestExchangeIntoArena(t *testing.T) {
	cfg := Config{Lanes: 16, FEC: NoFEC{}, UnitLen: 9, Workers: 1, Seed: 18}
	owned, arena := mustLink(t, cfg), mustLink(t, cfg)
	for p := 0; p < cfg.Lanes; p++ {
		owned.SetChannelBER(p, 2e-3)
		arena.SetChannelBER(p, 2e-3)
	}
	var buf ExchangeBuf
	var prev, prevCopy [][]byte
	delivered, corrupted := 0, 0
	for r := 0; r < 4; r++ {
		frames := SeededFrames(int64(r), 2500, 24+r%3)
		want, wantSt, err := owned.Exchange(frames)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSt, err := arena.ExchangeInto(&buf, frames)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("round %d: ExchangeInto stats %+v, Exchange %+v", r, gotSt, wantSt)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: ExchangeInto delivered %d frames, Exchange %d", r, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d: frame %d differs between ExchangeInto and Exchange", r, i)
			}
		}
		for i := range prev {
			if !bytes.Equal(prev[i], prevCopy[i]) {
				t.Fatalf("round %d: Exchange frame %d of the round before changed", r, i)
			}
		}
		for _, out := range [][][]byte{want, got} {
			for i := 0; i+1 < len(out); i++ {
				next := bytes.Clone(out[i+1])
				_ = append(out[i], 0xee, 0xee, 0xee, 0xee)
				if !bytes.Equal(out[i+1], next) {
					t.Fatalf("round %d: appending to frame %d changed frame %d", r, i, i+1)
				}
			}
		}
		prev, prevCopy = want, make([][]byte, len(want))
		for i := range want {
			prevCopy[i] = bytes.Clone(want[i])
		}
		delivered += wantSt.FramesDelivered
		corrupted += wantSt.FramesCorrupted
	}
	if delivered == 0 || corrupted == 0 {
		t.Fatalf("want both delivered and corrupted frames: %d delivered, %d corrupted", delivered, corrupted)
	}
	if raceEnabled {
		return // sync.Pool drops scratches at random under -race
	}
	frames := SeededFrames(9, 2500, 24)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := arena.ExchangeInto(&buf, frames); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed ExchangeInto allocates %.1f times per call, want 0", allocs)
	}
}
