package mac

import (
	"fmt"
	"testing"
)

func srCfg() Config {
	return Config{Window: 8, RetxTimeout: 2, MaxPayload: 64,
		PayloadBudget: 2048, ARQ: ARQSelectiveRepeat}
}

// Selective repeat on a clean loopback must deliver everything in order
// with no retransmissions, exactly like go-back-N.
func TestSRInOrderDelivery(t *testing.T) {
	var got []string
	lb := newLoopbackDeliver(t, srCfg(), nil, func(_ int, p []byte) {
		got = append(got, string(p))
	})
	for i := 0; i < 30; i++ {
		if err := lb.a.SendVC(0, []byte(fmt.Sprintf("packet-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		lb.tick(false, false)
	}
	if len(got) != 30 {
		t.Fatalf("delivered %d packets, want 30; a=%+v b=%+v", len(got), lb.a.Stats(), lb.b.Stats())
	}
	for i, p := range got {
		if want := fmt.Sprintf("packet-%03d", i); p != want {
			t.Fatalf("packet %d = %q, want %q", i, p, want)
		}
	}
	if s := lb.a.Stats(); s.Retransmits != 0 || s.InFlight != 0 {
		t.Fatalf("clean link retransmitted or left frames in flight: %+v", s)
	}
}

// Under loss, SR must recover by replaying only the dead slots — the
// survivors wait in the reorder buffer instead of being discarded, so
// the receiver records Reordered, never Discarded.
func TestSRRecoversWithoutDiscard(t *testing.T) {
	var got []string
	lb := newLoopbackDeliver(t, srCfg(), nil, func(_ int, p []byte) {
		got = append(got, string(p))
	})
	sent := 0
	drops := map[int]bool{2: true, 3: true, 7: true}
	for i := 0; i < 40; i++ {
		if sent < 24 && i%2 == 0 {
			for k := 0; k < 3; k++ {
				if err := lb.a.SendVC(0, []byte(fmt.Sprintf("p%03d", sent))); err != nil {
					t.Fatal(err)
				}
				sent++
			}
		}
		lb.tick(drops[i], false)
	}
	if len(got) != sent {
		t.Fatalf("delivered %d, want %d; a=%+v b=%+v", len(got), sent, lb.a.Stats(), lb.b.Stats())
	}
	for i, p := range got {
		if want := fmt.Sprintf("p%03d", i); p != want {
			t.Fatalf("slot %d = %q, want %q", i, p, want)
		}
	}
	if s := lb.a.Stats(); s.Retransmits == 0 || s.Timeouts == 0 {
		t.Fatalf("loss produced no retransmissions: %+v", s)
	}
	if s := lb.b.Stats(); s.Discarded != 0 {
		t.Fatalf("SR receiver discarded %d frames it had reorder room for: %+v", s.Discarded, s)
	}
	if s := lb.b.Stats(); s.SacksRx == 0 && lb.a.Stats().SacksRx == 0 {
		t.Fatalf("no sack bitmaps exchanged under loss: a=%+v b=%+v", lb.a.Stats(), lb.b.Stats())
	}
}

// A duplicate retransmission arriving after a late ack — once while the
// original waits in the reorder buffer, once after delivery — must count
// as a duplicate both times and deliver exactly once.
func TestSRDuplicateRetransmits(t *testing.T) {
	delivered := 0
	b, err := NewEndpoint(srCfg(), func(int, []byte) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	data := func(seq uint16) []byte {
		return AppendFrameVC(nil, FlagData, 0, seq, 0, []byte(fmt.Sprintf("s%d", seq)))
	}
	// Seq 0 lost: 1 and 2 park in the reorder buffer.
	b.Accept([][]byte{data(1)})
	b.Accept([][]byte{data(2)})
	if s := b.Stats(); s.Reordered != 2 || s.ReorderDepth != 2 || delivered != 0 {
		t.Fatalf("parked state wrong: delivered=%d %+v", delivered, s)
	}
	// The sender's timer fires before our sack arrives: seq 1 comes again
	// while the original still waits in the buffer.
	b.Accept([][]byte{data(1)})
	if s := b.Stats(); s.Duplicates != 1 || s.ReorderDepth != 2 {
		t.Fatalf("in-buffer duplicate not suppressed: %+v", s)
	}
	// The gap fills: 0,1,2 deliver in order and the buffer drains.
	b.Accept([][]byte{data(0)})
	if s := b.Stats(); delivered != 3 || s.ReorderDepth != 0 {
		t.Fatalf("drain failed: delivered=%d %+v", delivered, s)
	}
	// A straggler retransmission of an already-delivered seq re-acks but
	// does not re-deliver.
	b.Accept([][]byte{data(1)})
	if s := b.Stats(); delivered != 3 || s.Duplicates != 2 {
		t.Fatalf("post-delivery duplicate not suppressed: delivered=%d %+v", delivered, s)
	}
	// Its ack must still go out so the sender can release the slot.
	sf := b.BuildSuperframe()
	var d Deframer
	sawAck := false
	d.Deframe(sf, func(f Frame) {
		if f.Flags&FlagAck != 0 && f.Ack == 3 {
			sawAck = true
		}
	})
	if !sawAck {
		t.Fatal("no ack after duplicate retransmission")
	}
}

// Frames beyond the reorder window must be discarded (bounded memory),
// not parked.
func TestSRReorderWindowBound(t *testing.T) {
	cfg := srCfg()
	cfg.ReorderWindow = 4
	b, err := NewEndpoint(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint16(1); seq <= 6; seq++ {
		b.Accept([][]byte{AppendFrameVC(nil, FlagData, 0, seq, 0, []byte("x"))})
	}
	s := b.Stats()
	// Seqs 1..3 fit (distances 1..3 within a 4-deep ring ahead of
	// expected 0); 4..6 are over the horizon.
	if s.Reordered != 3 || s.Discarded != 3 || s.ReorderDepth != 3 {
		t.Fatalf("bounded reorder buffer misbehaved: %+v", s)
	}
}

// Sequence numbers must survive u16 wraparound while the reorder ring is
// in active use: a small ring, periodic superframe loss, and enough
// packets to wrap the sequence space twice. Everything still arrives
// exactly once, in order.
func TestSRSequenceWraparoundAcrossReorderBoundary(t *testing.T) {
	// Budget barely above one window of data, so a truncated superframe
	// cuts real frames: the surviving prefix acks, the next tick's fresh
	// frames open a gap, and the reorder ring buffers across it.
	cfg := Config{Window: 32, RetxTimeout: 2, MaxPayload: 8,
		PayloadBudget: 33 * (8 + OverheadV2), ARQ: ARQSelectiveRepeat, ReorderWindow: 24}
	delivered := uint64(0)
	next := 0
	lb := newLoopbackDeliver(t, cfg, nil, func(_ int, p []byte) {
		if want := fmt.Sprintf("%08d", next); string(p) != want {
			t.Fatalf("delivery %d = %q, want %q", delivered, p, want)
		}
		next++
		delivered++
	})
	const total = 140000 // > 2 * 65536
	sent, tick := 0, 0
	for sent < total || lb.a.Stats().InFlight > 0 || lb.a.Stats().QueueDepth > 0 {
		for k := 0; k < 40 && sent < total; k++ {
			if err := lb.a.SendVC(0, []byte(fmt.Sprintf("%08d", sent))); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		sfA := lb.a.BuildSuperframe()
		if tick%13 == 5 {
			sfA = sfA[:len(sfA)/2] // a lost PHY frame splices the stream mid-superframe
		}
		lb.b.Accept([][]byte{sfA})
		lb.a.Accept([][]byte{lb.b.BuildSuperframe()})
		tick++
		if tick > 100*total/40 {
			t.Fatalf("no progress: sent=%d a=%+v b=%+v", sent, lb.a.Stats(), lb.b.Stats())
		}
	}
	if delivered != total {
		t.Fatalf("delivered %d, want %d", delivered, total)
	}
	if s := lb.a.Stats(); s.Retransmits == 0 {
		t.Fatalf("lossy wraparound run never retransmitted: %+v", s)
	}
	if s := lb.b.Stats(); s.Reordered == 0 {
		t.Fatalf("reorder ring never used across the wraparound run: %+v", s)
	}
}

// With every virtual channel backlogged and a budget of exactly one WRR
// cycle per superframe, the weighted scheduler must serve classes 0/1/2
// in a strict 4:2:1 ratio — and the class-2 channel must drain, not
// starve, once the higher classes empty.
func TestSRWeightedSchedulingAndStarvationDrain(t *testing.T) {
	cfg := Config{
		Window: 64, RetxTimeout: 2, MaxPayload: 16,
		ARQ: ARQSelectiveRepeat, VCs: 3, VCClass: []uint8{0, 1, 2},
	}
	// Exactly one full WRR cycle (4+2+1 frames) of fresh data per tick.
	cfg.PayloadBudget = 7 * (cfg.MaxPayload + OverheadV2)
	perVC := make([]int, 3)
	lb := &loopback{}
	var err error
	if lb.a, err = NewEndpoint(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if lb.b, err = NewEndpoint(cfg, func(vc int, _ []byte) { perVC[vc]++ }); err != nil {
		t.Fatal(err)
	}
	load := [3]int{100, 60, 40}
	payload := make([]byte, 16)
	for vc, n := range load {
		for k := 0; k < n; k++ {
			if err := lb.a.SendVC(vc, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 10 ticks with all queues backlogged: exact weighted shares.
	for i := 0; i < 10; i++ {
		lb.tick(false, false)
	}
	if perVC[0] != 40 || perVC[1] != 20 || perVC[2] != 10 {
		t.Fatalf("backlogged shares = %v, want [40 20 10] (4:2:1)", perVC)
	}
	// Keep class 0 saturated while the low classes try to finish: the
	// WRR guarantees forward progress for class 2 regardless.
	for i := 0; i < 60; i++ {
		for k := 0; k < 4; k++ {
			if err := lb.a.SendVC(0, payload); err != nil {
				t.Fatal(err)
			}
		}
		lb.tick(false, false)
	}
	if perVC[2] != load[2] {
		t.Fatalf("class-2 VC starved: delivered %d/%d (all=%v)", perVC[2], load[2], perVC)
	}
	if perVC[1] != load[1] {
		t.Fatalf("class-1 VC starved: delivered %d/%d (all=%v)", perVC[1], load[1], perVC)
	}
	if v := lb.b.VCSnapshot(2); v.Class != 2 || v.Delivered != uint64(load[2]) {
		t.Fatalf("VC snapshot wrong: %+v", v)
	}
}

// Validate must accept the documented bounds exactly and reject one step
// beyond them: windows at the int16-wraparound ceiling, the one-byte VC
// field, class range, and the sack-capable payload floor.
func TestConfigValidateBounds(t *testing.T) {
	base := func() Config {
		return Config{Window: 1 << 14, RetxTimeout: 1, MaxPayload: 64,
			PayloadBudget: 1 << 20, ARQ: ARQGoBackN, VCs: 1,
			VCClass: []uint8{0}, ReorderWindow: 1 << 14}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("config at the documented bounds rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"window over int16 bound", func(c *Config) { c.Window = 1<<14 + 1 }},
		{"window zero", func(c *Config) { c.Window = 0 }},
		{"reorder over int16 bound", func(c *Config) { c.ReorderWindow = 1<<14 + 1 }},
		{"reorder zero", func(c *Config) { c.ReorderWindow = 0 }},
		{"vc count zero", func(c *Config) { c.VCs = 0; c.VCClass = nil }},
		{"vc count over header byte", func(c *Config) {
			c.VCs = MaxVCs + 1
			c.VCClass = make([]uint8, MaxVCs+1)
		}},
		{"class list length mismatch", func(c *Config) { c.VCClass = []uint8{0, 1} }},
		{"class out of range", func(c *Config) { c.VCClass = []uint8{NumClasses} }},
		{"unknown arq", func(c *Config) { c.ARQ = "stop-and-wait" }},
		{"payload over u16 length field", func(c *Config) { c.MaxPayload = 1 << 16 }},
		{"sr payload below sack bitmap", func(c *Config) {
			c.ARQ = ARQSelectiveRepeat
			c.MaxPayload = SackBytes - 1
		}},
		{"budget below one frame", func(c *Config) { c.PayloadBudget = c.MaxPayload + Overhead - 1 }},
	}
	for _, tc := range cases {
		c := base()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted: %+v", tc.name, c)
		}
	}

	// The full 256-VC header capacity must construct, and cumulative-ack
	// arithmetic at the maximal window must round-trip a wraparound
	// distance without misreading it as implausible.
	big := base()
	big.VCs = MaxVCs
	big.VCClass = make([]uint8, MaxVCs)
	if _, err := NewEndpoint(big, nil); err != nil {
		t.Fatalf("256-VC endpoint rejected: %v", err)
	}
	ack, seqBase := uint16(3), uint16(65530)
	if d := int(int16(ack - seqBase)); d != 9 {
		t.Fatalf("int16 wraparound distance = %d, want 9", d)
	}
}
