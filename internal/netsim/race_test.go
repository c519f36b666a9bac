//go:build race

package netsim

// The race detector drops sync.Pool items at random, so fmt's pooled
// printer — and with it the exact allocation count of a log line — is
// not reproducible under -race.
func init() { raceEnabled = true }
