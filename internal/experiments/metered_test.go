package experiments

import (
	"strings"
	"testing"

	"mosaic/internal/telemetry"
)

// RunMetered's contract: the telemetry registry observes every generator
// run, and the generated tables are byte-identical with telemetry on or
// off (timings flow into the registry only, never into a table).

func TestRunMeteredRecordsRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	ids := []string{"E1", "E2", "E8"}
	results, err := RunMetered(ids, 1, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	snap := reg.Snapshot()
	for _, id := range ids {
		key := `mosaic_experiment_runs_total{experiment="` + id + `"}`
		if snap.Counters[key] != 1 {
			t.Errorf("%s = %d, want 1", key, snap.Counters[key])
		}
	}
	hv, ok := snap.Histograms["mosaic_experiment_duration_seconds"]
	if !ok || hv.Count != uint64(len(ids)) {
		t.Errorf("duration histogram = %+v, want count %d", hv, len(ids))
	}
	for _, id := range ids {
		key := `mosaic_experiment_last_duration_seconds{experiment="` + id + `"}`
		if d, ok := snap.Gauges[key]; !ok || d < 0 {
			t.Errorf("%s = (%g, %v), want a non-negative duration", key, d, ok)
		}
	}
	// No generator failed, so no error counters exist.
	for key := range snap.Counters {
		if strings.HasPrefix(key, "mosaic_experiment_errors_total") {
			t.Errorf("unexpected error counter %s", key)
		}
	}
}

func TestRunMeteredOutputMatchesRun(t *testing.T) {
	ids := []string{"E1", "E9"}
	plain, err := RunMetered(ids, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	metered, err := RunMetered(ids, 7, 2, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	render := func(rs []Result) string {
		var sb strings.Builder
		for _, r := range rs {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
			}
			r.Table.Fprint(&sb)
		}
		return sb.String()
	}
	if a, b := render(plain), render(metered); a != b {
		t.Errorf("tables differ with telemetry enabled:\n--- plain ---\n%s\n--- metered ---\n%s", a, b)
	}
}
