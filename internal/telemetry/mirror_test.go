package telemetry

import (
	"strings"
	"testing"
)

// odometer is a stand-in stats struct: one cumulative stat, one level.
type odometer struct {
	km    uint64
	speed float64
}

var odometerRows = []Row[odometer]{
	{Name: "trip_km_total", Help: "distance driven", Count: func(o *odometer) uint64 { return o.km }},
	{Name: "trip_speed", Level: func(o *odometer) float64 { return o.speed }},
	{Name: "trip_km_by_unit_total", Labels: []string{"unit", "m"}, Count: func(o *odometer) uint64 { return o.km * 1000 }},
}

func TestMirrorSync(t *testing.T) {
	r := NewRegistry()
	m := NewMirror(r, odometerRows)
	km, speed := r.Counter("trip_km_total"), r.Gauge("trip_speed")

	m.Sync(&odometer{km: 10, speed: 50})
	m.Sync(&odometer{km: 25, speed: 80})
	if km.Value() != 25 || speed.Value() != 80 {
		t.Fatalf("after two syncs: km=%d speed=%v, want 25 and 80", km.Value(), speed.Value())
	}
	// The same cumulative value again adds nothing; the gauge follows.
	m.Sync(&odometer{km: 25, speed: 0})
	if km.Value() != 25 || speed.Value() != 0 {
		t.Fatalf("same-value re-sync: km=%d speed=%v, want 25 and 0", km.Value(), speed.Value())
	}
	// A source that restarts from zero never takes the series down, and
	// what it accumulates afterwards counts on top.
	m.Sync(&odometer{km: 0})
	if km.Value() != 25 {
		t.Fatalf("restart moved the counter to %d", km.Value())
	}
	m.Sync(&odometer{km: 7})
	if km.Value() != 32 {
		t.Fatalf("post-restart growth: km=%d, want 32", km.Value())
	}
	if !strings.Contains(promString(r), "# HELP trip_km_total distance driven\n") {
		t.Error("row Help did not reach the exposition")
	}
}

func TestMirrorBaselineSkipsHistory(t *testing.T) {
	r := NewRegistry()
	m := NewMirror(r, odometerRows)
	car := &odometer{km: 90000, speed: 30}
	m.Baseline(car)
	if got := r.Gauge("trip_speed").Value(); got != 0 {
		t.Fatalf("Baseline wrote the gauge: %v", got)
	}
	m.Sync(car)
	car.km += 12
	m.Sync(car)
	if got := r.Counter("trip_km_total").Value(); got != 12 {
		t.Fatalf("km since attach = %d, want 12", got)
	}
}

// Row labels land after the mirror's own, and Detach removes exactly the
// mirror's series: a sibling with other labels keeps every one of its.
func TestMirrorLabelsAndDetach(t *testing.T) {
	r := NewRegistry()
	a := NewMirror(r, odometerRows, "car", "a")
	b := NewMirror(r, odometerRows, "car", "b")
	a.Sync(&odometer{km: 1, speed: 10})
	b.Sync(&odometer{km: 2, speed: 20})

	out := promString(r)
	for _, want := range []string{
		`trip_km_total{car="a"} 1`,
		`trip_km_by_unit_total{car="a",unit="m"} 1000`,
		`trip_km_by_unit_total{car="b",unit="m"} 2000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := a.rowLabels(odometerRows[2]); strings.Join(got, ",") != "car,a,unit,m" {
		t.Errorf("row labels composed as %v", got)
	}

	a.Detach()
	out = promString(r)
	if strings.Contains(out, `car="a"`) {
		t.Errorf("detached mirror still exposed:\n%s", out)
	}
	for _, want := range []string{
		`trip_km_total{car="b"} 2`,
		`trip_speed{car="b"} 20`,
		`trip_km_by_unit_total{car="b",unit="m"} 2000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sibling lost %q", want)
		}
	}
}

func TestMirrorKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("trip_km_total")
	defer func() {
		if recover() == nil {
			t.Error("a Count row over a gauge family did not panic")
		}
	}()
	NewMirror(r, odometerRows)
}
