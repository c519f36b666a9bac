// Package sim is what every simulator here shares and nothing more: the
// simulated-time type and named deterministic RNG streams, so that adding
// a new source of randomness never perturbs existing ones.
//
// There is no scheduler. Links are stepped superframe by superframe,
// fleets epoch by epoch, and the exact flow simulator by
// netsim.FlowSim.RunUntil; each owns its clock as a plain Time.
package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Time is simulation time in seconds.
type Time float64

// Millisecond is the one duration unit a caller spells out.
const Millisecond Time = 1e-3

// String renders the time with a convenient unit.
func (t Time) String() string {
	switch v := float64(t); {
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.6gs", v)
	case math.Abs(v) >= 1e-3:
		return fmt.Sprintf("%.6gms", v*1e3)
	case math.Abs(v) >= 1e-6:
		return fmt.Sprintf("%.6gus", v*1e6)
	case v == 0:
		return "0s"
	default:
		return fmt.Sprintf("%.6gns", v*1e9)
	}
}

// RNG returns the deterministic random stream of the given name under
// seed. Streams with different names are independent; the same (seed,
// name) always yields the same sequence.
func RNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}
