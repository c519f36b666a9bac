package refmodel

import "math"

// This file is the naive twin of the PHY's binary symmetric channel
// (internal/phy BSC). The channel noise stream is part of the simulation
// spec: a channel owns a xoshiro256++ generator seeded through splitmix64,
// draws skew and dead-channel noise bytes from the top 8 bits of each
// 64-bit output, and places bit errors by inverse-transform sampling of
// the geometric gap distribution — gap = floor(log1p(-u)/log1p(-p)) —
// consuming exactly one uniform draw per placed error plus one final
// overshooting draw. Both generators below are re-implemented here from
// the published algorithms, sharing no code with internal/phy; the
// optimized channel jumps straight to each error byte while this twin
// walks the stream bit by bit, counting the gap down one position at a
// time. FuzzDiffBSCSkip holds the two byte-identical.

// bscRNG is an independent xoshiro256++ implementation.
type bscRNG struct {
	s0, s1, s2, s3 uint64
}

// newBSCRNG seeds the four state words with consecutive splitmix64
// outputs, exactly as the xoshiro authors prescribe.
func newBSCRNG(seed int64) bscRNG {
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return bscRNG{s0: next(), s1: next(), s2: next(), s3: next()}
}

func rotl64(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }

func (r *bscRNG) next() uint64 {
	out := rotl64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl64(r.s3, 45)
	return out
}

func (r *bscRNG) uniform() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *bscRNG) noiseByte() byte { return byte(r.next() >> 56) }

// BSC is the reference binary symmetric channel. Fields mirror the
// optimized channel's public knobs.
type BSC struct {
	BER       float64
	SkewBytes int
	Dead      bool

	rng bscRNG
}

// NewBSC returns a reference channel with the given bit error rate and
// seed, applying the same [0, 0.5] clamp as the optimized constructor.
func NewBSC(ber float64, seed int64) *BSC {
	if ber < 0 {
		ber = 0
	}
	if ber > 0.5 {
		ber = 0.5
	}
	return &BSC{BER: ber, rng: newBSCRNG(seed)}
}

// Transmit passes data through the channel and returns the received
// bytes as a fresh slice: skew prefix, then data with bit errors applied
// bit-serially.
func (c *BSC) Transmit(data []byte) []byte {
	out := make([]byte, 0, c.SkewBytes+len(data))
	for i := 0; i < c.SkewBytes; i++ {
		out = append(out, c.rng.noiseByte())
	}
	if c.Dead {
		for range data {
			out = append(out, c.rng.noiseByte())
		}
		return out
	}
	out = append(out, data...)
	body := out[c.SkewBytes:]
	p := c.BER
	if p <= 0 || len(body) == 0 {
		return out
	}
	if p >= 1 {
		// Every bit flips; no draws consumed (BER is a public knob, so
		// values beyond the constructor clamp are still defined).
		for i := range body {
			body[i] ^= 0xff
		}
		return out
	}
	// Walk the stream one bit at a time, counting down the geometric gap
	// to the next error; when it hits zero, flip and redraw. The gap
	// stays in float space so a tiny p (astronomical gaps) never touches
	// integer range; overshooting gaps just run the walk off the end.
	logq := math.Log1p(-p)
	nbits := 8 * len(body)
	gap := math.Floor(math.Log1p(-c.rng.uniform()) / logq)
	for bit := 0; bit < nbits; bit++ {
		if gap >= 1 {
			gap--
			continue
		}
		body[bit/8] ^= 1 << uint(bit%8)
		if bit+1 >= nbits {
			// The stream ends on this flip: no further draw, matching the
			// optimized channel (which only draws while bits remain).
			return out
		}
		gap = math.Floor(math.Log1p(-c.rng.uniform()) / logq)
	}
	return out
}
