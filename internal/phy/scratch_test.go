package phy

import (
	"bytes"
	"reflect"
	"testing"

	"mosaic/internal/par"
)

// Every error exit of ExchangeInto hands its scratch back. A failing call
// that kept it would make each later call build a fresh one, so 100
// failing calls must build (almost) none: under -race sync.Pool drops a
// quarter of what it is handed, a kept scratch is all 100.
func TestExchangeErrorsReturnScratch(t *testing.T) {
	short := mustLink(t, Config{Lanes: 4, UnitLen: 27, Workers: 1})
	down := mustLink(t, Config{Lanes: 2, UnitLen: 27, Workers: 1})
	down.FailChannel(0)
	down.FailChannel(1)
	if n := down.Mapper().NumLanes(); n != 0 {
		t.Fatalf("setup: %d lanes left, want 0", n)
	}
	for _, tc := range []struct {
		name  string
		link  *Link
		frame []byte
	}{
		{"3-byte frame minimum", short, []byte{1, 2}},
		{"zero lanes", down, make([]byte, 64)},
	} {
		if _, _, err := tc.link.Exchange([][]byte{tc.frame}); err == nil {
			t.Fatalf("%s: exchange succeeded", tc.name)
		}
		built := 0
		build := scratchPool.New
		scratchPool.New = func() any { built++; return build() }
		for range 100 {
			_, _, _ = tc.link.Exchange([][]byte{tc.frame})
		}
		scratchPool.New = build
		if built >= 50 {
			t.Errorf("%s: 100 failing exchanges built %d scratches", tc.name, built)
		}
	}
}

// Links stepped concurrently from one par.Pool borrow scratches from the
// one scratchPool, a scratch lent to links of different widths, FECs and
// unit lengths in turn. They must deliver the same bytes, ExchangeStats
// and monitor state as twins stepped one at a time: no exchange may read
// anything another left in a scratch. Run under -race by make race.
func TestConcurrentLinksShareScratch(t *testing.T) {
	cfgs := []Config{
		{Lanes: 4, Spares: 1, FEC: NewRSLite(), UnitLen: 27},
		{Lanes: 8, Spares: 2, FEC: NewRSLite(), UnitLen: 243},
		{Lanes: 16, FEC: HammingFEC{}, UnitLen: 63},
		{Lanes: 100, Spares: 4, FEC: NewRSLite(), UnitLen: 243, Workers: 2},
		{Lanes: 3, FEC: NoFEC{}, UnitLen: 9},
		{Lanes: 8, Spares: 2, FEC: NewRSKP4(), UnitLen: 243},
		{Lanes: 12, Spares: 1, FEC: NewRSLite(), UnitLen: 117, Workers: 2},
		{Lanes: 5, FEC: HammingFEC{}, UnitLen: 27},
		{Lanes: 32, Spares: 2, FEC: NewRSLite(), UnitLen: 243},
	}
	build := func() []*Link {
		links := make([]*Link, len(cfgs))
		for i, cfg := range cfgs {
			if cfg.Workers == 0 {
				cfg.Workers = 1
			}
			cfg.Seed = int64(100 + i)
			links[i] = mustLink(t, cfg)
			for p := 0; p < cfg.Lanes+cfg.Spares; p++ {
				links[i].SetChannelBER(p, float64(i%3)*1e-4)
			}
			links[i].SetChannelSkew(0, 3*i)
			if i%3 == 1 {
				links[i].KillChannel(1) // never spared here: a lane's units lost every round
			}
		}
		return links
	}
	type round struct {
		frames [][]byte
		st     ExchangeStats
		err    error
	}
	const rounds = 6
	step := func(links []*Link, i, r int, out [][]round) {
		frames := SeededFrames(int64(7*i+r), 4+i, 40+97*i)
		got, st, err := links[i].Exchange(frames)
		out[i][r] = round{got, st, err}
	}
	results := func() [][]round {
		out := make([][]round, len(cfgs))
		for i := range out {
			out[i] = make([]round, rounds)
		}
		return out
	}

	serial, serialOut := build(), results()
	for r := range rounds {
		for i := range serial {
			step(serial, i, r, serialOut)
		}
	}
	shared, sharedOut := build(), results()
	pool := par.New(4)
	for r := range rounds {
		pool.Run(len(shared), func(i int) { step(shared, i, r, sharedOut) })
	}

	for i := range cfgs {
		for r := range rounds {
			want, got := serialOut[i][r], sharedOut[i][r]
			if want.err != nil || got.err != nil {
				t.Fatalf("link %d round %d: errors %v / %v", i, r, want.err, got.err)
			}
			if len(got.frames) != len(want.frames) {
				t.Fatalf("link %d round %d: %d frames delivered, %d one at a time", i, r, len(got.frames), len(want.frames))
			}
			for k := range want.frames {
				if !bytes.Equal(got.frames[k], want.frames[k]) {
					t.Fatalf("link %d round %d: frame %d differs from the one-at-a-time twin", i, r, k)
				}
			}
			if !reflect.DeepEqual(got.st, want.st) {
				t.Fatalf("link %d round %d: stats %+v, one at a time %+v", i, r, got.st, want.st)
			}
		}
		if got, want := shared[i].Monitor().Snapshot(), serial[i].Monitor().Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("link %d: monitor %+v, one at a time %+v", i, got, want)
		}
	}
}
