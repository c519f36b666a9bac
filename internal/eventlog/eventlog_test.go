package eventlog

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

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
			var l Log
			for _, line := range tc.lines {
				l.Addf("%s", line)
			}
			bare := sha256.Sum256([]byte(strings.Join(tc.lines, "\n")))
			if got, want := Digest(l.Lines()), fmt.Sprintf("%x", bare[:8]); got != want {
				t.Errorf("Digest() = %s, legacy expression gives %s", got, want)
			}
			trailed := sha256.Sum256([]byte(strings.Join(tc.lines, "\n") + "\n" + summary))
			if got, want := Digest(l.Lines(), summary), fmt.Sprintf("%x", trailed[:8]); got != want {
				t.Errorf("Digest(summary) = %s, legacy expression gives %s", got, want)
			}
			if Digest(l.Lines(), summary) != Digest(tc.lines, summary) {
				t.Error("method and package-level Digest disagree")
			}
		})
	}
}

func TestCapCountsDrops(t *testing.T) {
	l := &Log{Max: 3}
	for i := 0; i < 5; i++ {
		l.Addf("line %d", i)
	}
	if len(l.Lines()) != 3 || l.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 3 and 2", len(l.Lines()), l.Dropped())
	}
	if got := strings.Join(l.Lines(), "|"); got != "line 0|line 1|line 2" {
		t.Errorf("retained %q: the cap must keep the oldest lines", got)
	}

	l.Reset()
	if len(l.Lines()) != 0 || l.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Dropped=%d", len(l.Lines()), l.Dropped())
	}
	l.Addf("again")
	if len(l.Lines()) != 1 || l.Lines()[0] != "again" {
		t.Errorf("after Reset+Addf: %q", l.Lines())
	}
}

func TestZeroAndNonPositiveMaxUseDefault(t *testing.T) {
	var zero Log
	for _, l := range []*Log{&zero, {Max: -1}} {
		for i := 0; i < DefaultMax+2; i++ {
			l.Addf("x")
		}
		if len(l.Lines()) != DefaultMax || l.Dropped() != 2 {
			t.Errorf("Len=%d Dropped=%d, want %d and 2", len(l.Lines()), l.Dropped(), DefaultMax)
		}
	}
}

// Reset keeps the line capacity: refilling a per-epoch buffer costs the
// Sprintf renderings and nothing else, so it must allocate less than
// filling a fresh log, which also grows the slice.
func TestResetKeepsCapacity(t *testing.T) {
	const n = 64
	fill := func(l *Log) {
		for i := 0; i < n; i++ {
			l.Addf("sf=%d remap", i)
		}
	}
	fresh := testing.AllocsPerRun(50, func() { fill(new(Log)) })
	var l Log
	fill(&l)
	refill := testing.AllocsPerRun(50, func() {
		l.Reset()
		fill(&l)
	})
	if refill >= fresh {
		t.Errorf("refill after Reset allocates %.0f times, a fresh fill %.0f: capacity was not kept", refill, fresh)
	}
	// One string per rendered line; the race detector's runtime also boxes
	// the int argument.
	if refill > 2*n {
		t.Errorf("refill of %d lines allocates %.0f times, want the renderings alone", n, refill)
	}
}
