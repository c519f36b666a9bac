//go:build race

package phy

// The race detector drops sync.Pool items at random, so an exchange's
// borrowed scratch is sometimes rebuilt and the allocation count is not
// reproducible under -race.
func init() { raceEnabled = true }
