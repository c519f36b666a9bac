package phy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// The staged pipeline must be bit-deterministic: for a fixed Config.Seed,
// the delivered frames and every statistic are identical no matter how
// many pool workers run the per-lane stage. The noise-free golden values
// below date back to the pre-refactor implementation (goroutine-per-lane,
// allocation-heavy); the noise-dependent cases were re-pinned when the
// BSC moved from math/rand + Poisson error counts to the spec'd
// xoshiro256++ stream with geometric skip-sampling — the draw sequence
// changed, the channel model did not. default-clean consumes no random
// draws and is untouched, and the re-pinned values were certified by a
// clean verify-deep run (refmodel's FuzzDiffPipeline target replays the
// same noise through the naive reference pipeline byte-for-byte, swept
// across worker counts).

type goldenCase struct {
	name    string
	cfg     func() Config
	nframes int
	size    int
	ber     float64
	failMid bool // kill + fail channel 2 before round 1 of 3

	wantSHA         string // sha256[:8] of delivered frames, 3 rounds
	wantDelivered   int
	wantCorrupted   int
	wantUnitsLost   int
	wantCorrections int
	wantWire        int
}

var goldenCases = []goldenCase{
	{
		name: "default-clean",
		cfg:  DefaultConfig, nframes: 60, size: 1500,
		wantSHA: "b76be625bf468d4c", wantDelivered: 180, wantWire: 347706,
	},
	{
		name: "default-noisy",
		cfg: func() Config {
			c := DefaultConfig()
			c.Seed = 7
			return c
		},
		nframes: 60, size: 1500, ber: 2e-4,
		wantSHA: "e528091caf78c249", wantDelivered: 175, wantCorrupted: 4,
		wantUnitsLost: 4, wantCorrections: 563, wantWire: 347706,
	},
	{
		name: "fail-remap",
		cfg: func() Config {
			c := DefaultConfig()
			c.Lanes = 20
			c.Spares = 2
			c.Seed = 3
			return c
		},
		nframes: 40, size: 900, ber: 1e-5, failMid: true,
		wantSHA: "4ff99f2a1c12bebb", wantDelivered: 120,
		wantCorrections: 17, wantWire: 140562,
	},
	{
		name: "conventional",
		cfg: func() Config {
			c := ConventionalConfig()
			c.Seed = 5
			return c
		},
		nframes: 30, size: 1200, ber: 1e-6,
		wantSHA: "741b5d35ba10d37b", wantDelivered: 90,
		wantCorrections: 4, wantWire: 552630,
	},
}

// runGolden pushes the case's frames through 3 Exchange rounds and returns
// the frame hash plus aggregated stats.
func runGolden(t *testing.T, gc goldenCase, workers int) (string, ExchangeStats) {
	t.Helper()
	cfg := gc.cfg()
	cfg.Workers = workers
	link, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if gc.ber > 0 {
		for p := 0; p < cfg.Lanes+cfg.Spares; p++ {
			link.SetChannelBER(p, gc.ber)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	frames := make([][]byte, gc.nframes)
	for i := range frames {
		frames[i] = make([]byte, gc.size)
		rng.Read(frames[i])
	}
	h := sha256.New()
	var agg ExchangeStats
	for round := 0; round < 3; round++ {
		if gc.failMid && round == 1 {
			link.KillChannel(2)
			link.FailChannel(2)
		}
		delivered, st, err := link.Exchange(frames)
		if err != nil {
			t.Fatalf("Exchange round %d: %v", round, err)
		}
		for _, f := range delivered {
			h.Write(f)
		}
		agg.FramesDelivered += st.FramesDelivered
		agg.FramesCorrupted += st.FramesCorrupted
		agg.UnitsLost += st.UnitsLost
		agg.Corrections += st.Corrections
		agg.WireBytes += st.WireBytes
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), agg
}

// TestDeterminism checks every golden case against the captured seed
// values for worker counts 1 (inline), 4, and NumCPU — including the
// mid-run channel kill + sparing remap case.
func TestDeterminism(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for _, gc := range goldenCases {
		for _, w := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", gc.name, w), func(t *testing.T) {
				sha, agg := runGolden(t, gc, w)
				if sha != gc.wantSHA {
					t.Errorf("frame hash = %s, want %s", sha, gc.wantSHA)
				}
				if agg.FramesDelivered != gc.wantDelivered {
					t.Errorf("delivered = %d, want %d", agg.FramesDelivered, gc.wantDelivered)
				}
				if agg.FramesCorrupted != gc.wantCorrupted {
					t.Errorf("corrupted = %d, want %d", agg.FramesCorrupted, gc.wantCorrupted)
				}
				if agg.UnitsLost != gc.wantUnitsLost {
					t.Errorf("unitsLost = %d, want %d", agg.UnitsLost, gc.wantUnitsLost)
				}
				if agg.Corrections != gc.wantCorrections {
					t.Errorf("corrections = %d, want %d", agg.Corrections, gc.wantCorrections)
				}
				if agg.WireBytes != gc.wantWire {
					t.Errorf("wireBytes = %d, want %d", agg.WireBytes, gc.wantWire)
				}
			})
		}
	}
}
