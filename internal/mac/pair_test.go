package mac

import (
	"fmt"
	"testing"

	"mosaic/internal/phy"
)

func testLink(t *testing.T, seed int64, workers int) *phy.Link {
	t.Helper()
	link, err := phy.New(phy.Config{
		Lanes:             12,
		Spares:            2,
		FEC:               phy.NewRSLite(),
		UnitLen:           63,
		PerChannelBitRate: 2e9,
		Seed:              seed,
		Workers:           workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return link
}

// Over a clean PHY, every packet crosses the real pipeline (encode,
// stripe, destripe, parse) and arrives exactly once, in order.
func TestPairDeliversOverPHY(t *testing.T) {
	fwd := testLink(t, 3, 0)
	rev := testLink(t, 4, 0)
	var got []string
	pair, err := NewPair(fwd, rev, PairConfig{
		PHYFrameLen: 120,
		Endpoint:    Config{Window: 16, MaxPayload: 200, PayloadBudget: 3000},
	}, nil, func(p []byte) { got = append(got, string(p)) })
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for tick := 0; tick < 20; tick++ {
		for k := 0; k < 4 && sent < 50; k++ {
			if err := pair.A.SendVC(0, []byte(fmt.Sprintf("pkt-%03d", sent))); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := pair.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != sent {
		t.Fatalf("delivered %d/%d; b=%+v", len(got), sent, pair.B.Stats())
	}
	for i, p := range got {
		if want := fmt.Sprintf("pkt-%03d", i); p != want {
			t.Fatalf("slot %d = %q, want %q", i, p, want)
		}
	}
}

// With a channel forced to a brutal BER, PHY frames die, MAC frames
// splice, and the LLR must still deliver everything in order.
func TestPairRecoversOverLossyPHY(t *testing.T) {
	fwd := testLink(t, 5, 0)
	rev := testLink(t, 6, 0)
	fwd.SetChannelBER(3, 4e-3) // ~2 symbol errors per RS-lite block: units fail probabilistically
	var got []string
	pair, err := NewPair(fwd, rev, PairConfig{
		PHYFrameLen: 120,
		Endpoint:    Config{Window: 32, RetxTimeout: 2, MaxPayload: 200, PayloadBudget: 3000},
	}, nil, func(p []byte) { got = append(got, string(p)) })
	if err != nil {
		t.Fatal(err)
	}
	// Packets near MaxPayload so the data region spans the whole budget
	// (striping is deterministic: a superframe that is mostly idle fill
	// would place every data byte on the same healthy lanes every tick).
	mkpkt := func(i int) []byte {
		p := make([]byte, 200)
		copy(p, fmt.Sprintf("pkt-%03d", i))
		return p
	}
	sent := 0
	for tick := 0; tick < 120; tick++ {
		for k := 0; k < 6 && sent < 60; k++ {
			if err := pair.A.SendVC(0, mkpkt(sent)); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		if err := pair.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != sent {
		t.Fatalf("delivered %d/%d; a=%+v b=%+v", len(got), sent, pair.A.Stats(), pair.B.Stats())
	}
	for i, p := range got {
		if want := fmt.Sprintf("pkt-%03d", i); p[:len(want)] != want {
			t.Fatalf("slot %d = %q, want prefix %q", i, p[:8], want)
		}
	}
	if pair.A.Stats().Retransmits == 0 {
		t.Fatalf("lossy run never retransmitted: %+v", pair.A.Stats())
	}
}

// The budget must round up to whole PHY frames so no chunk is below the
// PHY's 3-byte minimum.
func TestPairRoundsBudgetToPHYFrames(t *testing.T) {
	fwd := testLink(t, 7, 0)
	rev := testLink(t, 8, 0)
	pair, err := NewPair(fwd, rev, PairConfig{
		PHYFrameLen: 100,
		Endpoint:    Config{MaxPayload: 64, PayloadBudget: 250},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pair.A.BuildSuperframe()); got != 300 {
		t.Fatalf("budget = %d, want 300 (rounded to PHY frames)", got)
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// A warmed Tick allocates nothing, PHY side included: the delivered
// chunks live in the phy.ExchangeBuf the Tick borrowed until Accept has
// copied them. This is every fleetd link tick and every session
// superframe. Under -race sync.Pool drops a quarter of what is put back,
// so a Tick now and then rebuilds a borrowed buffer (tens of allocations
// on average): there the cleanest of up to 50 single Ticks must allocate
// nothing, which a per-Tick allocation still fails.
func TestPairTickSteadyStateAllocs(t *testing.T) {
	for _, arq := range []ARQKind{ARQGoBackN, ARQSelectiveRepeat} {
		t.Run(string(arq), func(t *testing.T) {
			var links [2]*phy.Link
			for i := range links {
				cfg := phy.DefaultConfig() // the 100-lane link
				cfg.Seed = int64(7 + i)
				link, err := phy.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				links[i] = link
			}
			delivered, ticks := 0, 0
			pair, err := NewPair(links[0], links[1], PairConfig{
				Endpoint: Config{Window: 64, RetxTimeout: 2, MaxPayload: 1500, PayloadBudget: 8 * (1500 + Overhead), ARQ: arq},
			}, nil, func([]byte) { delivered++ })
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 1500)
			tick := func() {
				ticks++
				for k := 0; k < 8; k++ {
					if err := pair.A.SendVC(0, payload); err != nil {
						t.Fatal(err)
					}
				}
				if err := pair.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			// Warm past two window rotations: the SR engine grows its
			// per-slot pools lazily.
			for i := 0; i < 32; i++ {
				tick()
			}
			delivered, ticks = 0, 0
			allocs := testing.AllocsPerRun(50, tick)
			for i := 0; raceEnabled && allocs > 0 && i < 50; i++ {
				allocs = min(allocs, testing.AllocsPerRun(1, tick))
			}
			if allocs != 0 {
				t.Errorf("a warmed Tick allocates %.1f times, want 0", allocs)
			}
			if delivered != ticks*8 {
				t.Errorf("delivered %d packets over %d ticks, want %d", delivered, ticks, ticks*8)
			}
		})
	}
}

// An endpoint's aggregate Stats are its own frame counters (pure acks
// sent, data frames, acks and sacks received, unknown-VC frames), its
// deframer's counters, and the field-by-field sum of its VC snapshots,
// gauges included — after every tick of a lossy 3-VC selective-repeat
// run that exercises every ARQ branch.
func TestEndpointStatsSumVCs(t *testing.T) {
	fwd := testLink(t, 7, 1)
	rev := testLink(t, 8, 1)
	for _, ch := range []int{1, 4, 9} {
		fwd.SetChannelBER(ch, 4e-3)
	}
	for ch := 0; ch < 12; ch++ {
		rev.SetChannelBER(ch, 2e-3)
	}
	pair, err := NewPair(fwd, rev, PairConfig{
		PHYFrameLen: 120,
		Endpoint: Config{
			ARQ: ARQSelectiveRepeat, VCs: 3, VCClass: []uint8{0, 1, 2},
			Window: 16, ReorderWindow: 4, RetxTimeout: 2,
			MaxPayload: 200, PayloadBudget: 3000,
		},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(tick int, name string, e *Endpoint) {
		got := e.Stats()
		want := Stats{
			AcksTx: got.AcksTx, DataRx: got.DataRx, AcksRx: got.AcksRx,
			SacksRx: got.SacksRx, UnknownVC: got.UnknownVC,
			Deframe: e.deframer.Stats,
		}
		for vc := 0; vc < e.NumVCs(); vc++ {
			v := e.VCSnapshot(vc)
			want.PacketsQueued += v.PacketsQueued
			want.DataTx += v.DataTx
			want.Retransmits += v.Retransmits
			want.Delivered += v.Delivered
			want.Duplicates += v.Duplicates
			want.Discarded += v.Discarded
			want.Reordered += v.Reordered
			want.CreditStalls += v.CreditStalls
			want.Timeouts += v.Timeouts
			want.InFlight += v.InFlight
			want.QueueDepth += v.QueueDepth
			want.ReorderDepth += v.ReorderDepth
		}
		if got != want {
			t.Fatalf("tick %d endpoint %s: Stats()\n %+v\nwant endpoint counters + VC sum\n %+v", tick, name, got, want)
		}
	}
	pkt := make([]byte, 200)
	for tick := 0; tick < 80; tick++ {
		for vc := 0; vc < 3; vc++ {
			for k := 0; k < 3; k++ {
				pkt[0], pkt[1] = byte(tick), byte(vc*3+k)
				if err := pair.A.SendVC(vc, pkt); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tick%2 == 0 {
			if err := pair.B.SendVC(tick%3, pkt[:40]); err != nil {
				t.Fatal(err)
			}
		}
		if err := pair.Tick(); err != nil {
			t.Fatal(err)
		}
		check(tick, "a", pair.A)
		check(tick, "b", pair.B)
	}
	a, b := pair.A.Stats(), pair.B.Stats()
	if a.Retransmits == 0 || b.Duplicates == 0 || b.Reordered == 0 || b.Discarded == 0 {
		t.Fatalf("lossy run left an ARQ branch unexercised: a.Retransmits=%d b.Duplicates=%d b.Reordered=%d b.Discarded=%d",
			a.Retransmits, b.Duplicates, b.Reordered, b.Discarded)
	}
}
