package experiments

import (
	"strings"
	"testing"

	"mosaic/internal/scenario"
)

// Every library scenario auto-registers as a KindScenario experiment,
// spliced between the paper experiments and the ablations.
func TestScenarioAutoRegistration(t *testing.T) {
	lib := scenario.Library()
	scen := ByKind(KindScenario)
	if len(scen) != len(lib) {
		t.Fatalf("registry has %d scenario experiments, library has %d", len(scen), len(lib))
	}
	for i, entry := range lib {
		e, ok := Lookup(entry.ID)
		if !ok {
			t.Fatalf("library scenario %s not registered", entry.ID)
		}
		if e.Kind != KindScenario {
			t.Errorf("%s registered with kind %q, want %q", entry.ID, e.Kind, KindScenario)
		}
		if scen[i].ID != entry.ID {
			t.Errorf("scenario order: registry[%d] = %s, library[%d] = %s", i, scen[i].ID, i, entry.ID)
		}
	}
	// Presentation order: E26 must come after E25 and before A1.
	pos := map[string]int{}
	for i, e := range registry {
		pos[e.ID] = i
	}
	if !(pos["E25"] < pos["E26"] && pos["E26"] < pos["A1"]) {
		t.Errorf("scenario experiments misplaced: E25@%d E26@%d A1@%d", pos["E25"], pos["E26"], pos["A1"])
	}
}

// The Kind partition must be total and disjoint: three kinds, every
// experiment in exactly one, ByKind slices reassembling the registry.
func TestKindsPartitionRegistry(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 3 {
		t.Fatalf("Kinds() = %v, want [paper scenario ablation]", kinds)
	}
	want := []string{KindPaper, KindScenario, KindAblation}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("Kinds() = %v, want %v", kinds, want)
		}
	}
	total := 0
	for _, k := range kinds {
		for _, e := range ByKind(k) {
			if e.Kind != k {
				t.Errorf("ByKind(%q) returned %s with kind %q", k, e.ID, e.Kind)
			}
			total++
		}
	}
	if total != len(registry) {
		t.Errorf("ByKind slices cover %d experiments, registry has %d", total, len(registry))
	}
	if got := ByKind("nope"); got != nil {
		t.Errorf("ByKind(nope) = %v, want nil", got)
	}
}

// E26/E27 are the scenario library's determinism pins: the rendered
// table — windowed rows, fault expectations, and the event-log sha in
// the notes — must be byte-identical at one worker and at GOMAXPROCS
// workers. This is the golden-sha test `make determinism` runs.
func TestScenarioTablesDeterministicAcrossWorkers(t *testing.T) {
	for _, entry := range scenario.Library() {
		entry := entry
		t.Run(entry.ID, func(t *testing.T) {
			t.Parallel()
			var want string
			for i, w := range []int{1, 0} {
				tab, err := scenarioTableWithWorkers(entry, 1, w)
				got := render(t, tab, err)
				if i == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("workers=%d table diverged:\n%s\nwant:\n%s", w, got, want)
				}
			}
			if !strings.Contains(want, "sha256/8 = ") {
				t.Errorf("notes lost the event-log hash:\n%s", want)
			}
			if !strings.Contains(want, "faults: ") {
				t.Errorf("notes lost the fault expectations:\n%s", want)
			}
			if strings.Count(want, "\n") < 4 {
				t.Errorf("table suspiciously short:\n%s", want)
			}
		})
	}
}

// The registry seed must reach the scenario: different seeds,
// different tables.
func TestScenarioTableSeedSensitive(t *testing.T) {
	e, ok := Lookup("E26")
	if !ok {
		t.Fatal("E26 not registered")
	}
	a, err := e.Gen(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Gen(2)
	if err != nil {
		t.Fatal(err)
	}
	if render(t, a, nil) == render(t, b, nil) {
		t.Fatal("E26 table identical across seeds")
	}
}
