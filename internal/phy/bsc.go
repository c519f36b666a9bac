// Package phy implements the Mosaic wide-and-slow PHY: the digital logic
// that fans a high-speed data stream out over hundreds of slow optical
// channels and reassembles it, with per-channel framing, lightweight FEC,
// skew-tolerant reassembly, health monitoring, and spare-channel remapping.
//
// This is the paper's primary contribution rendered as executable logic:
// everything a real Mosaic endpoint's gearbox ASIC would do, exercised over
// simulated noisy channels whose error rates come from the analog models in
// internal/channel.
package phy

import "math"

// chanRNG is the per-channel random stream: xoshiro256++ seeded through
// splitmix64. It replaces math/rand here for two reasons that matter at
// fleet scale: a generator is a 32-byte value embedded in its BSC (no
// per-channel heap allocation, no 4.8 KiB lagged-Fibonacci table to seed),
// and the algorithm is pinned by this repo rather than by the Go runtime,
// so the channel noise byte streams are part of the simulation spec — the
// naive twin in internal/refmodel re-implements the same two algorithms
// independently and its FuzzDiffBSCSkip target holds the two in lockstep.
type chanRNG struct {
	s [4]uint64
}

// seedChanRNG initializes the state with splitmix64, the reference seeder
// for xoshiro generators (never yields the all-zero state).
func seedChanRNG(seed int64) chanRNG {
	var r chanRNG
	x := uint64(seed)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 advances xoshiro256++.
func (r *chanRNG) Uint64() uint64 {
	s := &r.s
	x := s[0] + s[3]
	out := (x<<23 | x>>41) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = s[3]<<45 | s[3]>>19
	return out
}

// Float64 returns a uniform float in [0, 1) with 53 random bits.
func (r *chanRNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Byte returns a uniform byte (the top bits of the state, per the
// xoshiro authors' guidance that high bits have the best equidistribution).
func (r *chanRNG) Byte() byte {
	return byte(r.Uint64() >> 56)
}

// BSC is a binary symmetric channel: each transmitted bit flips with
// probability BER. Dead channels emit noise. A skew of up to SkewBytes
// random bytes precedes the stream, modelling per-channel path-length and
// serialization skew (the receiver must hunt for frame alignment).
//
// Errors are placed by geometric skip-sampling: instead of a Bernoulli
// coin per bit, the channel draws the gap to the next flipped bit
// (geometric with parameter BER, by inversion) and jumps straight to it,
// so an exchange touches only the bytes that actually take an error —
// O(errors), not O(bits). One uniform draw is consumed per error (plus
// the final overshooting draw), which is the draw discipline the
// refmodel twin reproduces bit-serially.
type BSC struct {
	BER       float64
	SkewBytes int
	Dead      bool

	rng chanRNG
}

// NewBSC returns a channel with the given bit error rate and its own
// deterministic random stream derived from seed.
func NewBSC(ber float64, seed int64) *BSC {
	b := &BSC{}
	b.init(ber, seed)
	return b
}

// init seeds a BSC in place (the link embeds its channels by value).
func (c *BSC) init(ber float64, seed int64) {
	if ber < 0 {
		ber = 0
	}
	if ber > 0.5 {
		ber = 0.5
	}
	c.BER = ber
	c.SkewBytes = 0
	c.Dead = false
	c.rng = seedChanRNG(seed)
}

// TransmitTo passes data through the channel and appends the received
// bytes — skew prefix, then data with bit errors applied — to dst
// (usually dst[:0] of a per-lane scratch slice), returning the extended
// slice. The input is not modified.
func (c *BSC) TransmitTo(dst, data []byte) []byte {
	base := len(dst)
	need := c.SkewBytes + len(data)
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+need]
	out := dst[base:]
	for i := 0; i < c.SkewBytes; i++ {
		out[i] = c.rng.Byte()
	}
	body := out[c.SkewBytes:]
	copy(body, data)
	if c.Dead {
		// A dead transmitter: the receiver slices at the noise floor.
		for i := range body {
			body[i] = c.rng.Byte()
		}
		return dst
	}
	p := c.BER
	if p <= 0 || len(body) == 0 {
		return dst
	}
	if p >= 1 {
		// Degenerate channel: every bit flips, no draws consumed.
		// (NewBSC clamps to 0.5, but BER is a public knob.)
		for i := range body {
			body[i] ^= 0xff
		}
		return dst
	}
	// Geometric skip-sampling: the gap to the next error is
	// floor(log(1-u)/log(1-p)). Gaps are compared in float space before
	// conversion so a tiny p (astronomical gaps) cannot overflow int.
	logq := math.Log1p(-p)
	nbits := len(body) * 8
	bit := 0
	for {
		gap := math.Floor(math.Log1p(-c.rng.Float64()) / logq)
		if gap >= float64(nbits-bit) {
			return dst
		}
		bit += int(gap)
		body[bit>>3] ^= 1 << uint(bit&7)
		bit++
		if bit >= nbits {
			return dst
		}
	}
}
