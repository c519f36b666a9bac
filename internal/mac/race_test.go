//go:build race

package mac

// The race detector drops sync.Pool items at random, so a Tick's borrowed
// buffers — the PHY exchange scratch, the tick arena and the
// Accept buffer — are sometimes rebuilt and the allocation count is not
// reproducible under -race.
func init() { raceEnabled = true }
