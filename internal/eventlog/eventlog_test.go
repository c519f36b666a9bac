package eventlog

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The test kinds: a line of any text, and a numbered line.
var (
	text     = NewKind("%s", Str)
	numbered = NewKind("line %d", Int)
)

// textLog is a log of lines, each one text record.
func textLog(lines []string) *Log {
	var l Log
	for _, s := range lines {
		l.Add(text).Str(s)
	}
	return &l
}

// Digest must be exactly what the six hand-written sites computed, so
// every golden constant in the repo survives the move: the bare form
// (E24, scenario engine) and the "+ \n + summary" form (E23, E25, the
// mac and faultinject determinism tests).
func TestDigestMatchesLegacyExpressions(t *testing.T) {
	const summary = "superframes=40 delivered=3160/3200 retx=40"
	for _, tc := range []struct {
		name  string
		lines []string
	}{
		{"empty", nil},
		{"one", []string{"sf=0 inject kill ch=3"}},
		{"vector", []string{
			"epoch=0 op=create link=0 topo=0 lanes=16",
			"epoch=0 link=0 admitted->bringup lanes=16",
			"",
			"epoch=1 summary live=1 serving=0 degraded=0 draining=0 retired=0 flows=7",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := textLog(tc.lines)
			bare := sha256.Sum256([]byte(strings.Join(tc.lines, "\n")))
			if got, want := Digest(l.Lines()), fmt.Sprintf("%x", bare[:8]); got != want {
				t.Errorf("Digest() = %s, legacy expression gives %s", got, want)
			}
			trailed := sha256.Sum256([]byte(strings.Join(tc.lines, "\n") + "\n" + summary))
			if got, want := Digest(l.Lines(), summary), fmt.Sprintf("%x", trailed[:8]); got != want {
				t.Errorf("Digest(summary) = %s, legacy expression gives %s", got, want)
			}
			if l.Digest(summary) != Digest(tc.lines, summary) || l.Digest() != Digest(tc.lines) {
				t.Error("method and package-level Digest disagree")
			}
		})
	}
}

// legacyDigest is the construction Digest streamed away: the whole log
// joined into one string, each trailer concatenated, the lot copied to
// bytes and hashed.
func legacyDigest(lines []string, trailer ...string) string {
	s := strings.Join(lines, "\n")
	for _, t := range trailer {
		s += "\n" + t
	}
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}

// Streaming the lines, or the records, into the hash hashes the same
// bytes as joining them, and the records render the lines back across
// Lines' 64 KB chunks: on random logs — lines from empty to longer than the stream's
// buffer, with newlines and multi-byte runes inside them — with no lines
// and with zero to three trailers, some of them empty.
func TestDigestStreamsTheJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("epoch=0123456789 \n\tµ→")
	str := func(maxLen int) string {
		r := make([]rune, rng.Intn(maxLen+1))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	for i := 0; i < 500; i++ {
		var lines []string
		switch n := rng.Intn(40); {
		case i%10 == 0: // no lines
		case i%10 == 1:
			lines = make([]string, n) // every line empty
		default:
			maxLen := []int{8, 120, 9000}[rng.Intn(3)]
			for range n {
				lines = append(lines, str(maxLen))
			}
		}
		trailers := make([]string, rng.Intn(4))
		for j := range trailers {
			trailers[j] = str(40)
		}
		want := legacyDigest(lines, trailers...)
		if got := Digest(lines, trailers...); got != want {
			t.Fatalf("case %d (%d lines, %d trailers): Digest %s, the joined string hashes to %s", i, len(lines), len(trailers), got, want)
		}
		l := textLog(lines)
		if got := l.Digest(trailers...); got != want {
			t.Fatalf("case %d (%d lines, %d trailers): the records digest to %s, the joined string hashes to %s", i, len(lines), len(trailers), got, want)
		}
		if got := l.Lines(); !slices.Equal(got, lines) {
			t.Fatalf("case %d: %d lines render as %d others", i, len(lines), len(got))
		}
	}
}

func TestCapCountsDrops(t *testing.T) {
	l := &Log{Max: 3}
	for i := 0; i < 5; i++ {
		l.Add(numbered).Int(i)
	}
	if len(l.Lines()) != 3 || l.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 3 and 2", len(l.Lines()), l.Dropped())
	}
	if got := strings.Join(l.Lines(), "|"); got != "line 0|line 1|line 2" {
		t.Errorf("retained %q: the cap must keep the oldest records", got)
	}

	l.Reset()
	if len(l.Lines()) != 0 || l.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Dropped=%d", len(l.Lines()), l.Dropped())
	}
	l.Add(text).Str("again")
	if len(l.Lines()) != 1 || l.Lines()[0] != "again" {
		t.Errorf("after Reset+Add: %q", l.Lines())
	}
}

func TestZeroAndNonPositiveMaxUseDefault(t *testing.T) {
	var zero Log
	for _, l := range []*Log{&zero, {Max: -1}} {
		for i := 0; i < DefaultMax+2; i++ {
			l.Add(text).Str("x")
		}
		if len(l.Lines()) != DefaultMax || l.Dropped() != 2 {
			t.Errorf("Len=%d Dropped=%d, want %d and 2", len(l.Lines()), l.Dropped(), DefaultMax)
		}
	}
}

// Reset keeps the arena's capacity: refilling a per-epoch buffer packs
// the records and allocates nothing, where filling a fresh log grows its
// arena.
func TestResetKeepsCapacity(t *testing.T) {
	const n = 64
	fill := func(l *Log) {
		for i := 0; i < n; i++ {
			l.Add(numbered).Int(i)
		}
	}
	fresh := testing.AllocsPerRun(50, func() { fill(new(Log)) })
	var l Log
	fill(&l)
	refill := testing.AllocsPerRun(50, func() {
		l.Reset()
		fill(&l)
	})
	if fresh == 0 || refill != 0 {
		t.Errorf("a fresh fill of %d records allocates %.0f times and a refill after Reset %.0f: want some and none", n, fresh, refill)
	}
}

// Reset keeps the capacity but none of the records: what is appended
// after it renders alone.
func TestResetClearsLines(t *testing.T) {
	var l Log
	for i := 0; i < 5; i++ {
		l.Add(numbered).Int(i)
	}
	c := cap(l.buf)
	l.Reset()
	if cap(l.buf) != c || len(l.buf) != 0 || l.Lines() != nil {
		t.Fatalf("Reset: capacity %d (want %d), %d bytes and %q left", cap(l.buf), c, len(l.buf), l.Lines())
	}
	l.Add(numbered).Int(7)
	if got := l.Lines(); len(got) != 1 || got[0] != "line 7" {
		t.Errorf("after Reset: %q, want [line 7]", got)
	}
}
