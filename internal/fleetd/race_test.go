//go:build race

package fleetd

// The race detector drops sync.Pool items at random, so a link step's
// borrowed scratch is sometimes rebuilt and a step allocates more, and
// less reproducibly, under -race.
func init() { raceEnabled = true }
