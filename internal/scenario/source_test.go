package scenario

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds rand.NewSource folds specially: 0 (replaced
// by a constant), negatives, multiples of 2³¹−1 (which reduce to 0) and
// the int64 extremes.
var sourceSeeds = []int64{0, 1, -1, 7, 42, 1<<31 - 1, -(1<<31 - 1), 3 * (1<<31 - 1), -5 * (1<<31 - 1),
	1 << 31, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}

// TestBoundedDrawMatchesInt31n holds the table-driven bounded draw to
// rand.Rand.Int31n, draw for draw: the value, the number of steps it
// took (the next draw after it must agree too) and the power-of-two
// case, over moduli from 1 to 2³¹−1. At 2³⁰+1 about half the draws are
// rejected and redrawn. A random draw lands on the rejection bound
// itself once in 2³¹, so the register is also planted to make the first
// Int31 the bound and the bound plus one, and rand.Rand.Int31n over a
// copy of that register is the reference.
func TestBoundedDrawMatchesInt31n(t *testing.T) {
	ms := []int{1, 2, 3, 960, 1<<30 + 1, 1<<31 - 1}
	for k := 2; k <= 30; k++ {
		ms = append(ms, 1<<k-1, 1<<k, 1<<k+1)
	}
	seeds := append([]int64{}, sourceSeeds...)
	for s := int64(100); s < 120; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		for _, m := range ms {
			ref, got := rand.New(rand.NewSource(seed)), newGoSource(seed)
			b := newBound(m)
			for i := 0; i < 64; i++ {
				if want, v := ref.Int31n(int32(m)), got.int31n(b); v != int(want) {
					t.Fatalf("seed %d m %d draw %d: %d, Int31n gives %d", seed, m, i, v, want)
				}
			}
			if a, b := got.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d m %d: next draw %d after the bounded draws, %d after Int31n", seed, m, a, b)
			}
		}
	}
	for _, m := range ms {
		b := newBound(m)
		for _, v := range []uint32{b.max, b.max + 1} {
			if v >= 1<<31 {
				continue // no 31-bit draw lies above 2³¹−1
			}
			got := newGoSource(int64(m))
			// The first step adds vec[srcLen-1] into vec[srcLen-srcTap-1].
			got.vec[srcLen-1], got.vec[srcLen-srcTap-1] = 0, int64(v)<<32
			planted := *got
			ref := rand.New(&planted)
			if want, d := ref.Int31n(int32(m)), got.int31n(b); d != int(want) {
				t.Fatalf("m %d, first Int31 %d: %d, Int31n gives %d", m, v, d, want)
			}
			if a, b := got.Int63(), ref.Int63(); a != b {
				t.Fatalf("m %d, first Int31 %d: next draw %d, %d after Int31n", m, v, a, b)
			}
		}
	}
}

// FuzzScenarioSource holds the pinned source to math/rand's for any
// seed: the raw steps across the register's first wrap, then Int31n,
// Float64 and Int63 through the source's own draws and through rand.New
// over it, interleaved as the runners interleave them.
func FuzzScenarioSource(f *testing.F) {
	for _, s := range sourceSeeds {
		f.Add(s, uint32(960))
	}
	f.Add(int64(1), uint32(1<<30+1))
	f.Add(int64(-3), uint32(1))
	f.Fuzz(func(t *testing.T, seed int64, m uint32) {
		m = max(m&(1<<31-1), 1)
		ref, src := rand.New(rand.NewSource(seed)), newGoSource(seed)
		for i := 0; i < 2*srcLen; i++ {
			if a, b := src.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d step %d: %#x, math/rand %#x", seed, i, a, b)
			}
		}
		over, b := rand.New(src), newBound(int(m))
		for i := 0; i < 200; i++ {
			if v, want := src.int31n(b), ref.Int31n(int32(m)); v != int(want) {
				t.Fatalf("seed %d m %d draw %d: int31n %d, Int31n %d", seed, m, i, v, want)
			}
			if v, want := src.float64(), ref.Float64(); v != want {
				t.Fatalf("seed %d draw %d: float64 %v, Float64 %v", seed, i, v, want)
			}
			if v, want := over.Float64(), ref.Float64(); v != want {
				t.Fatalf("seed %d draw %d: rand.New(src).Float64 %v, Float64 %v", seed, i, v, want)
			}
			if v, want := over.Int63(), ref.Int63(); v != want {
				t.Fatalf("seed %d draw %d: rand.New(src).Int63 %d, Int63 %d", seed, i, v, want)
			}
		}
		src.Seed(seed)
		if a, b := src.Uint64(), rand.NewSource(seed).(rand.Source64).Uint64(); a != b {
			t.Fatalf("seed %d: first step after Seed %#x, math/rand %#x", seed, a, b)
		}
	})
}
