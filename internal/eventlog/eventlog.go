// Package eventlog is the repo's one deterministic event log: a capped
// list of rendered lines. Every layer that witnesses its behaviour in a
// golden sha (MAC session, fault soak, fleetd fleet and links, FleetSim
// epochs, scenario engine) appends through Addf and is hashed by Digest:
// lines are rendered once, capped, counted when dropped, hashed one way.
package eventlog

import (
	"bufio"
	"crypto/sha256"
	"fmt"
)

// DefaultMax is the line cap of a Log whose Max is not positive.
const DefaultMax = 100000

// Log is a capped, append-only line log; the zero value is ready to use.
// Not safe for concurrent use: fleetd, which shares one across API
// calls, guards it with the fleet lock.
type Log struct {
	Max     int // lines retained; <= 0 means DefaultMax
	lines   []string
	dropped uint64
}

// Addf renders one line and appends it; at the cap it counts the line as
// dropped without rendering it.
func (l *Log) Addf(format string, args ...any) {
	max := l.Max
	if max <= 0 {
		max = DefaultMax
	}
	if len(l.lines) >= max {
		l.dropped++
		return
	}
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// Lines returns the retained lines, oldest first. The slice aliases the
// log: callers that outlive the next Addf or Reset must copy it.
func (l *Log) Lines() []string { return l.lines }

// Dropped is the number of lines refused since the log hit its cap.
func (l *Log) Dropped() uint64 { return l.dropped }

// Reset empties the log and its drop count but keeps the line capacity,
// so a per-epoch buffer is refilled, not reallocated. The lines it cuts
// off are cleared first, so the buffer keeps none of their strings alive.
func (l *Log) Reset() {
	clear(l.lines)
	l.lines = l.lines[:0]
	l.dropped = 0
}

// Digest is the golden-sha construction every determinism witness uses:
// hex of the first 8 bytes of sha256 over the "\n"-joined lines, each
// trailer (a run summary, typically) appended after a further "\n". The
// lines stream into the hash through a small buffer, so a long log is
// never joined into one string.
func Digest(lines []string, trailer ...string) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	for i, l := range lines {
		if i > 0 {
			w.WriteByte('\n')
		}
		w.WriteString(l)
	}
	for _, t := range trailer {
		w.WriteByte('\n')
		w.WriteString(t)
	}
	w.Flush() // a hash's Write never fails
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
