// Package linecode implements the line codes a serial PHY needs: the
// self-synchronizing x^58 scrambler and 64b/66b block coding used by
// Ethernet PCS layers (and by Mosaic's protocol-agnostic gearbox).
package linecode

import "math/bits"

// Scrambler is the self-synchronizing multiplicative scrambler with
// polynomial G(x) = 1 + x^39 + x^58 (IEEE 802.3 clause 49). Because it is
// self-synchronizing, the descrambler locks onto the stream after 58 bits
// regardless of initial state — exactly what a wide-and-slow receiver wants
// after a channel remap.
//
// The zero value is a scrambler with an all-zero state; any state works.
//
// # Word-at-a-time operation
//
// Scramble and Descramble advance 64 bits per step instead of one. Over
// GF(2) the scrambler is linear, so 64 steps of the shift register are one
// multiplication by the 64th power of its state-transition matrix. For
// G(x) = 1 + x^39 + x^58 that matrix power collapses to three shifted XOR
// terms rather than a dense 64×64 bit matrix: writing the 64 input bits
// time-ordered in a word (bit i = the i-th bit on the wire) and the state
// history the same way (h bit i = the output 58-i steps ago, i.e. the
// 58-bit register reversed), the recurrence
//
//	out[t] = in[t] ^ out[t-39] ^ out[t-58]
//
// splits by whether each tap lands in the history or the current word:
//
//	T = in ^ (h >> 19) ^ h          // both taps served from history
//	O = T ^ (T << 39) ^ (T << 58)   // in-word feedback, fully unrolled
//
// (the substitution terminates because (x<<39)<<39 overflows 64 bits).
// The next state is the last 58 output bits, i.e. O reversed and masked.
// The slice forms run this recurrence but keep the history in time order
// across the whole word run — the next history is just O >> 6 (scramble) or in >> 6
// (descramble), so the two Reverse64 per word collapse into a single
// register-form write-back after the loop. The tail stays bit-serial,
// producing byte-identical output at any offset (the equivalence is
// pinned by tests at non-64-aligned splits).
type Scrambler struct {
	state uint64 // bits 0..57 hold x^1..x^58
}

const mask58 = 1<<58 - 1

// histWord reorders a 58-bit register into time order: bit i of the
// result is the output/input from 58-i steps ago (register bit 57-i).
func histWord(state uint64) uint64 {
	return bits.Reverse64(state) >> 6
}

// NewScrambler returns a scrambler seeded with the given state (only the
// low 58 bits are used). Seeding with a non-zero value avoids a long
// zero-output prefix on all-zero input.
func NewScrambler(seed uint64) *Scrambler {
	return &Scrambler{state: seed & (1<<58 - 1)}
}

// Reset rewinds the scrambler to the given seed state, making one instance
// reusable across streams without reallocation.
func (s *Scrambler) Reset(seed uint64) {
	s.state = seed & (1<<58 - 1)
}

// ScrambleBit scrambles one bit (0 or 1).
func (s *Scrambler) ScrambleBit(in byte) byte {
	tap := byte((s.state>>38)^(s.state>>57)) & 1 // x^39, x^58
	out := (in & 1) ^ tap
	s.state = (s.state<<1 | uint64(out)) & (1<<58 - 1)
	return out
}

// Scramble scrambles bits in place over a packed byte slice (LSB-first
// within each byte) and returns the same slice. Aligned 8-byte runs go
// a word at a time; the tail stays bit-serial.
func (s *Scrambler) Scramble(buf []byte) []byte {
	// History-form loop: h stays time-ordered across words. The next
	// history is the last 58 output bits in time order — exactly o >> 6 —
	// so the per-word Reverse64 pair disappears; the register form is
	// reconstructed once after the loop (h << 6 restores the high 58 bits
	// of the last output word, whose reversal is the register).
	h := histWord(s.state)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		w := uint64(buf[i]) | uint64(buf[i+1])<<8 | uint64(buf[i+2])<<16 |
			uint64(buf[i+3])<<24 | uint64(buf[i+4])<<32 | uint64(buf[i+5])<<40 |
			uint64(buf[i+6])<<48 | uint64(buf[i+7])<<56
		t := w ^ (h >> 19) ^ h
		o := t ^ (t << 39) ^ (t << 58)
		h = o >> 6
		buf[i] = byte(o)
		buf[i+1] = byte(o >> 8)
		buf[i+2] = byte(o >> 16)
		buf[i+3] = byte(o >> 24)
		buf[i+4] = byte(o >> 32)
		buf[i+5] = byte(o >> 40)
		buf[i+6] = byte(o >> 48)
		buf[i+7] = byte(o >> 56)
	}
	s.state = bits.Reverse64(h<<6) & mask58
	for ; i < len(buf); i++ {
		b := buf[i]
		var out byte
		for j := 0; j < 8; j++ {
			out |= s.ScrambleBit(b>>uint(j)) << uint(j)
		}
		buf[i] = out
	}
	return buf
}

// Descrambler inverts Scrambler. It self-synchronizes: after 58 input bits
// its output is correct regardless of initial state, and a single channel
// bit error corrupts at most 3 output bits (the error plus its two taps).
type Descrambler struct {
	state uint64
}

// NewDescrambler returns a descrambler with the given initial state (it
// only matters for the first 58 bits).
func NewDescrambler(seed uint64) *Descrambler {
	return &Descrambler{state: seed & (1<<58 - 1)}
}

// Reset rewinds the descrambler to the given seed state.
func (d *Descrambler) Reset(seed uint64) {
	d.state = seed & (1<<58 - 1)
}

// DescrambleBit descrambles one bit.
func (d *Descrambler) DescrambleBit(in byte) byte {
	tap := byte((d.state>>38)^(d.state>>57)) & 1
	out := (in & 1) ^ tap
	d.state = (d.state<<1 | uint64(in&1)) & (1<<58 - 1)
	return out
}

// Descramble descrambles bits in place over a packed byte slice (LSB-first
// within each byte) and returns the same slice. Aligned 8-byte runs go
// a word at a time; the tail stays bit-serial.
func (d *Descrambler) Descramble(buf []byte) []byte {
	// History-form loop (see Scrambler.Scramble): the descrambler's next
	// history is the last 58 *input* bits in time order, i.e. w >> 6.
	h := histWord(d.state)
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		w := uint64(buf[i]) | uint64(buf[i+1])<<8 | uint64(buf[i+2])<<16 |
			uint64(buf[i+3])<<24 | uint64(buf[i+4])<<32 | uint64(buf[i+5])<<40 |
			uint64(buf[i+6])<<48 | uint64(buf[i+7])<<56
		o := w ^ (h >> 19) ^ h ^ (w << 39) ^ (w << 58)
		h = w >> 6
		buf[i] = byte(o)
		buf[i+1] = byte(o >> 8)
		buf[i+2] = byte(o >> 16)
		buf[i+3] = byte(o >> 24)
		buf[i+4] = byte(o >> 32)
		buf[i+5] = byte(o >> 40)
		buf[i+6] = byte(o >> 48)
		buf[i+7] = byte(o >> 56)
	}
	d.state = bits.Reverse64(h<<6) & mask58
	for ; i < len(buf); i++ {
		b := buf[i]
		var out byte
		for j := 0; j < 8; j++ {
			out |= d.DescrambleBit(b>>uint(j)) << uint(j)
		}
		buf[i] = out
	}
	return buf
}
