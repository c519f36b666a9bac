package mac

import (
	"bytes"
	"fmt"
	"testing"
)

// loopback couples two endpoints directly: each tick hands A's
// superframe to B and vice versa, optionally dropping whole directions
// to model lost superframes.
type loopback struct {
	a, b *Endpoint
}

func newLoopback(t *testing.T, cfg Config) *loopback {
	t.Helper()
	lb := &loopback{}
	var err error
	if lb.a, err = NewEndpoint(cfg, nil); err != nil {
		t.Fatal(err)
	}
	if lb.b, err = NewEndpoint(cfg, nil); err != nil {
		t.Fatal(err)
	}
	return lb
}

func newLoopbackDeliver(t *testing.T, cfg Config, onA, onB func(int, []byte)) *loopback {
	t.Helper()
	lb := &loopback{}
	var err error
	if lb.a, err = NewEndpoint(cfg, onA); err != nil {
		t.Fatal(err)
	}
	if lb.b, err = NewEndpoint(cfg, onB); err != nil {
		t.Fatal(err)
	}
	return lb
}

// tick moves one superframe each way. dropFwd/dropRev lose that
// direction's superframe entirely.
func (lb *loopback) tick(dropFwd, dropRev bool) {
	sfA := lb.a.BuildSuperframe()
	if dropFwd {
		lb.b.Accept(nil)
	} else {
		lb.b.Accept([][]byte{sfA})
	}
	sfB := lb.b.BuildSuperframe()
	if dropRev {
		lb.a.Accept(nil)
	} else {
		lb.a.Accept([][]byte{sfB})
	}
}

func testCfg() Config {
	return Config{Window: 8, RetxTimeout: 2, MaxPayload: 64, PayloadBudget: 2048}
}

func TestLLRInOrderDelivery(t *testing.T) {
	var got [][]byte
	lb := newLoopbackDeliver(t, testCfg(), nil, func(_ int, p []byte) {
		got = append(got, append([]byte(nil), p...))
	})
	var want [][]byte
	for i := 0; i < 30; i++ {
		p := []byte(fmt.Sprintf("packet-%03d", i))
		want = append(want, p)
		if err := lb.a.SendVC(0, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		lb.tick(false, false)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d; a=%+v b=%+v", len(got), len(want), lb.a.Stats(), lb.b.Stats())
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("packet %d = %q, want %q", i, got[i], want[i])
		}
	}
	if s := lb.a.Stats(); s.Retransmits != 0 || s.InFlight != 0 {
		t.Fatalf("clean link retransmitted or left frames in flight: %+v", s)
	}
}

// Dropping forward superframes forces go-back-N retransmission; every
// packet must still arrive exactly once, in order.
func TestLLRRecoversFromLoss(t *testing.T) {
	var got []string
	lb := newLoopbackDeliver(t, testCfg(), nil, func(_ int, p []byte) {
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
		t.Fatalf("delivered %d, want %d; a=%+v", len(got), sent, lb.a.Stats())
	}
	for i, p := range got {
		if want := fmt.Sprintf("p%03d", i); p != want {
			t.Fatalf("slot %d = %q, want %q", i, p, want)
		}
	}
	if lb.a.Stats().Retransmits == 0 || lb.a.Stats().Timeouts == 0 {
		t.Fatalf("loss produced no retransmissions: %+v", lb.a.Stats())
	}
}

// Dropping the reverse direction starves A of acks: the window fills,
// credit stalls are counted, and in-flight never exceeds the window.
func TestLLRCreditStall(t *testing.T) {
	cfg := testCfg()
	cfg.Window = 4
	lb := newLoopback(t, cfg)
	for i := 0; i < 20; i++ {
		if err := lb.a.SendVC(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		lb.tick(false, true) // acks never arrive
		if f := lb.a.Stats().InFlight; f > 4 {
			t.Fatalf("in-flight %d exceeds window 4", f)
		}
	}
	s := lb.a.Stats()
	if s.CreditStalls == 0 {
		t.Fatalf("no credit stalls counted: %+v", s)
	}
	if s.QueueDepth == 0 {
		t.Fatalf("queue drained without acks: %+v", s)
	}
	// Let acks flow again: everything drains.
	for i := 0; i < 30; i++ {
		lb.tick(false, false)
	}
	s = lb.a.Stats()
	if s.InFlight != 0 || s.QueueDepth != 0 {
		t.Fatalf("window did not drain after acks resumed: %+v", s)
	}
	if lb.b.Stats().Delivered != 20 {
		t.Fatalf("delivered %d, want 20", lb.b.Stats().Delivered)
	}
}

// Duplicate data (a retransmission racing a lost ack) must re-ack but
// deliver only once.
func TestLLRDuplicateSuppression(t *testing.T) {
	cfg := testCfg()
	delivered := 0
	b, err := NewEndpoint(cfg, func(int, []byte) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, FlagData, 0, 0, []byte("dup"))
	b.Accept([][]byte{frame})
	b.Accept([][]byte{frame})
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	s := b.Stats()
	if s.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1; %+v", s.Duplicates, s)
	}
	// The re-ack must be emitted so the sender can advance.
	sf := b.BuildSuperframe()
	var d Deframer
	sawAck := false
	d.Deframe(sf, func(f Frame) {
		if f.Flags&FlagAck != 0 && f.Ack == 1 {
			sawAck = true
		}
	})
	if !sawAck {
		t.Fatal("no ack for the duplicated frame")
	}
}

// A gap (lost frame followed by later seqs) drops the ahead-of-window
// frames — go-back-N has no reorder buffer — and keeps re-acking the
// expected seq.
func TestLLROutOfOrderDrop(t *testing.T) {
	cfg := testCfg()
	delivered := 0
	b, err := NewEndpoint(cfg, func(int, []byte) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	buf := AppendFrame(nil, FlagData, 1, 0, []byte("ahead")) // seq 0 missing
	buf = AppendFrame(buf, FlagData, 2, 0, []byte("ahead"))
	b.Accept([][]byte{buf})
	if delivered != 0 {
		t.Fatalf("delivered %d out-of-order packets", delivered)
	}
	if s := b.Stats(); s.Discarded != 2 {
		t.Fatalf("discarded = %d, want 2", s.Discarded)
	}
	// Now the missing frame arrives: only seq 0 is deliverable (1 and 2
	// were dropped, the sender will replay them).
	b.Accept([][]byte{AppendFrame(nil, FlagData, 0, 0, []byte("filled"))})
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
}

// Garbage acks far outside the window must be ignored, not corrupt the
// replay ring.
func TestLLRIgnoresImplausibleAck(t *testing.T) {
	cfg := testCfg()
	lb := newLoopback(t, cfg)
	for i := 0; i < 4; i++ {
		if err := lb.a.SendVC(0, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	lb.a.BuildSuperframe() // 4 frames now in flight
	lb.a.Accept([][]byte{AppendFrame(nil, FlagAck, 0, 999, nil)})
	if f := lb.a.Stats().InFlight; f != 4 {
		t.Fatalf("implausible ack changed in-flight to %d", f)
	}
	lb.a.Accept([][]byte{AppendFrame(nil, FlagAck, 0, 4, nil)})
	if f := lb.a.Stats().InFlight; f != 0 {
		t.Fatalf("valid cumulative ack left %d in flight", f)
	}
}

func TestLLRSendRejectsOversize(t *testing.T) {
	cfg := testCfg()
	lb := newLoopback(t, cfg)
	if err := lb.a.SendVC(0, make([]byte, cfg.MaxPayload+1)); err == nil {
		t.Fatal("oversize packet accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Window: 1 << 15, PayloadBudget: 4096},        // window too large
		{MaxPayload: 1 << 16, PayloadBudget: 1 << 17}, // length field overflow
		{MaxPayload: 1024, PayloadBudget: 100},        // budget below one frame
	}
	for i, c := range cases {
		if _, err := NewEndpoint(c, nil); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

// Sequence numbers must survive u16 wraparound: run enough packets
// through a loopback to wrap twice.
func TestLLRSequenceWraparound(t *testing.T) {
	cfg := Config{Window: 32, RetxTimeout: 2, MaxPayload: 4, PayloadBudget: 4096}
	delivered := uint64(0)
	lb := newLoopbackDeliver(t, cfg, nil, func(int, []byte) { delivered++ })
	const total = 140000 // > 2 * 65536
	sent := 0
	for sent < total || lb.a.Stats().InFlight > 0 || lb.a.Stats().QueueDepth > 0 {
		for k := 0; k < 100 && sent < total; k++ {
			if err := lb.a.SendVC(0, []byte{byte(sent)}); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		lb.tick(false, false)
	}
	if delivered != total {
		t.Fatalf("delivered %d, want %d", delivered, total)
	}
	if s := lb.a.Stats(); s.Retransmits != 0 {
		t.Fatalf("clean wraparound run retransmitted: %+v", s)
	}
}

// SizeFor is the one endpoint sizing rule: unset fields only, the frame
// overhead of the wire version the config speaks, and for a zero config
// exactly the v1 mac.Overhead number fleetd's links have always used.
func TestSizeForDerivesUnsetFields(t *testing.T) {
	var c Config
	c.SizeFor(4, 0, 150)
	if c.MaxPayload != 150 || c.Window != DefaultWindow || c.PayloadBudget != (2*4+1)*(150+Overhead) {
		t.Fatalf("zero config sized to %+v", c)
	}
	sr := Config{ARQ: ARQSelectiveRepeat, VCs: 3, Window: 7}
	sr.SizeFor(40, 10, 150)
	if sr.Window != 7 || sr.PayloadBudget != (2*(40+10)+1)*(150+OverheadV2) {
		t.Fatalf("v2 config sized to %+v", sr)
	}
	big := Config{}
	big.SizeFor(40, 10, 150)
	if big.Window != 160 {
		t.Fatalf("window %d, want four ticks of packets", big.Window)
	}
}

func TestRoundRobinVCs(t *testing.T) {
	classes, perVC := RoundRobinVCs(4, 10)
	if fmt.Sprint(classes, perVC) != "[0 1 2 0] [3 3 2 2]" {
		t.Fatalf("4 VCs, 10 packets: classes %v perVC %v", classes, perVC)
	}
	if classes, perVC := RoundRobinVCs(1, 10); fmt.Sprint(classes) != "[0]" || perVC != nil {
		t.Fatalf("1 VC: classes %v perVC %v", classes, perVC)
	}
	if classes, perVC := RoundRobinVCs(0, 10); classes != nil || perVC != nil {
		t.Fatalf("0 VCs: classes %v perVC %v", classes, perVC)
	}
}
