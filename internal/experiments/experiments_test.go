package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func render(t *testing.T, tab Table, err error) string {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", tab.ID, err)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: no rows", tab.ID)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s: row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
		}
	}
	return out
}

func cell(tab Table, row, col int) string { return tab.Rows[row][col] }

func cellF(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(tab, row, col), "%")
	s = strings.TrimSuffix(s, "G")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s[%d][%d] = %q not numeric", tab.ID, row, col, cell(tab, row, col))
	}
	return v
}

func TestAllExperimentsRun(t *testing.T) {
	// Run the whole registry through the parallel runner: every generator
	// must produce a well-formed table carrying its registered ID.
	results, err := RunMetered(nil, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(registry) {
		t.Fatalf("got %d results, registry has %d", len(results), len(registry))
	}
	for i, r := range results {
		if r.Experiment.ID != registry[i].ID {
			t.Errorf("result %d is %s, want registry order %s", i, r.Experiment.ID, registry[i].ID)
		}
		out := render(t, r.Table, r.Err)
		if !strings.Contains(out, r.Experiment.ID) {
			t.Errorf("%s: output missing ID", r.Experiment.ID)
		}
	}
}

func TestRegistryMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if e.ID == "" || e.Title == "" || e.Gen == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Lookup("E10"); !ok {
		t.Error("Lookup(E10) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := RunMetered([]string{"E1", "bogus"}, 1, 1, nil); err == nil {
		t.Fatal("unknown ID must fail before running anything")
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	// A parallel run must produce byte-identical tables in the same order
	// as a serial run: each generator owns its seeded random state.
	ids := []string{"E5", "E9", "E10", "A3"}
	serial, err := RunMetered(ids, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMetered(ids, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		var a, b bytes.Buffer
		serial[i].Table.Fprint(&a)
		par[i].Table.Fprint(&b)
		if a.String() != b.String() {
			t.Errorf("%s: parallel output differs from serial", serial[i].Experiment.ID)
		}
	}
}

func TestE1Shape(t *testing.T) {
	tab, err := E1Tradeoff()
	render(t, tab, err)
	byTech := map[string][]string{}
	for _, r := range tab.Rows {
		byTech[r[0]] = r
	}
	parse := func(tech string, col int) float64 {
		v, err := strconv.ParseFloat(byTech[tech][col], 64)
		if err != nil {
			t.Fatalf("%s col %d: %v", tech, col, err)
		}
		return v
	}
	// Reach: DAC ~2m, Mosaic ~50m, DR 500m.
	if r := parse("DAC", 1); r > 3 {
		t.Errorf("DAC reach %v", r)
	}
	if r := parse("Mosaic", 1); r < 30 {
		t.Errorf("Mosaic reach %v", r)
	}
	// Power: Mosaic < DR.
	if parse("Mosaic", 2) >= parse("DR", 2) {
		t.Error("Mosaic power should beat DR")
	}
	// FIT: Mosaic << DR.
	if parse("Mosaic", 4) >= parse("DR", 4)/10 {
		t.Error("Mosaic FIT should be far below DR")
	}
}

func TestE2Headline(t *testing.T) {
	tab, err := E2PowerBreakdown()
	render(t, tab, err)
	if !strings.Contains(tab.Notes, "%") {
		t.Fatal("missing reduction note")
	}
	// Extract the percentage from "…: NN.N%".
	idx := strings.LastIndex(tab.Notes, " ")
	pct, perr := strconv.ParseFloat(strings.TrimSuffix(tab.Notes[idx+1:], "%"), 64)
	if perr != nil {
		t.Fatalf("cannot parse note %q", tab.Notes)
	}
	if pct < 60 || pct > 75 {
		t.Errorf("headline reduction = %v%%, want ~69%%", pct)
	}
}

func TestE4ReachShape(t *testing.T) {
	tab, err := E4ReachBudget()
	render(t, tab, err)
	// BER must be monotone non-decreasing down the table.
	prev := 0.0
	for i := range tab.Rows {
		ber, err := strconv.ParseFloat(cell(tab, i, 2), 64)
		if err != nil {
			t.Fatal(err)
		}
		if ber < prev {
			t.Fatalf("BER not monotone at row %d", i)
		}
		prev = ber
	}
	// 50m row must still be at or below ~1e-12; 80m must be broken.
	var at50, at80 float64
	for i := range tab.Rows {
		l, _ := strconv.ParseFloat(cell(tab, i, 0), 64)
		ber, _ := strconv.ParseFloat(cell(tab, i, 2), 64)
		if l == 50 {
			at50 = ber
		}
		if l == 80 {
			at80 = ber
		}
	}
	if at50 > 1e-9 {
		t.Errorf("BER at 50m = %v, too high", at50)
	}
	if at80 < 1e-9 {
		t.Errorf("BER at 80m = %v; reach should be exhausted well before 80m", at80)
	}
	if !strings.Contains(tab.Notes, "x") {
		t.Error("missing copper ratio note")
	}
}

func TestE5Distribution(t *testing.T) {
	tab, err := E5PrototypeBER(1)
	render(t, tab, err)
	// Percentile BERs must ascend; post-FEC must be <= pre-FEC everywhere.
	prev := -1.0
	for i := range tab.Rows {
		pre, _ := strconv.ParseFloat(cell(tab, i, 1), 64)
		post, _ := strconv.ParseFloat(cell(tab, i, 2), 64)
		if pre < prev {
			t.Fatal("percentiles not ascending")
		}
		prev = pre
		if post > pre*10 && post > 1e-12 {
			// Post-FEC *block* errors vs bit errors aren't directly
			// comparable, but at prototype operating points the block
			// error rate must be negligible.
			t.Errorf("row %d: post-FEC block err %v vs pre %v", i, post, pre)
		}
	}
}

func TestRSLiteBlockErr(t *testing.T) {
	if rsLiteBlockErr(0) != 0 {
		t.Error("zero BER should have zero block errors")
	}
	// Monotone.
	prev := 0.0
	for _, ber := range []float64{1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2} {
		p := rsLiteBlockErr(ber)
		if p < prev || p > 1 {
			t.Fatalf("block err %v at BER %v", p, ber)
		}
		prev = p
	}
	// At BER 1e-6 the block error rate must be tiny (t=2 corrects easily).
	if p := rsLiteBlockErr(1e-6); p > 1e-9 {
		t.Errorf("block err at 1e-6 = %v", p)
	}
}

func TestE7SparesColumn(t *testing.T) {
	tab, err := E7Reliability()
	render(t, tab, err)
	// Mosaic FIT strictly decreases as spares grow (rows 2..6).
	prev := math.Inf(1)
	count := 0
	for _, r := range tab.Rows {
		if !strings.HasPrefix(r[0], "Mosaic") {
			continue
		}
		fit, _ := strconv.ParseFloat(r[1], 64)
		if fit > prev {
			t.Fatal("Mosaic FIT not decreasing with spares")
		}
		prev = fit
		count++
	}
	if count < 4 {
		t.Fatal("missing Mosaic rows")
	}
}

func TestE9SweetSpotShape(t *testing.T) {
	tab, err := E9SweetSpot()
	render(t, tab, err)
	// Energy per bit must dip and rise (a genuine sweet spot), with the
	// minimum at 1-3 Gbps.
	var min float64 = math.Inf(1)
	var minRate float64
	first, last := 0.0, 0.0
	for i := range tab.Rows {
		rate := cellF(t, tab, i, 0)
		e := cellF(t, tab, i, 2)
		if i == 0 {
			first = e
		}
		last = e
		if e < min {
			min, minRate = e, rate
		}
	}
	if !(first > min && last > min) {
		t.Errorf("no interior minimum: first %v min %v last %v", first, min, last)
	}
	if minRate < 1 || minRate > 3 {
		t.Errorf("sweet spot at %v Gbps, want 1-3", minRate)
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := E10EndToEnd(1)
	render(t, tab, err)
	// First row (2m) must be fully delivered with zero corrections tail
	// risk; last row (60m, beyond reach) must show losses.
	if !strings.HasPrefix(cell(tab, 0, 1), "200/") {
		t.Errorf("2m delivery = %s", cell(tab, 0, 1))
	}
	lastBad := cellF(t, tab, len(tab.Rows)-1, 2)
	if lastBad == 0 {
		t.Error("60m (beyond reach) should lose frames")
	}
}

func TestE11Savings(t *testing.T) {
	tab, err := E11Datacenter()
	render(t, tab, err)
	// For each k, mosaic plan power < all-optics and < DAC+optics.
	powers := map[string]map[string]float64{}
	for _, r := range tab.Rows {
		k := r[0]
		if powers[k] == nil {
			powers[k] = map[string]float64{}
		}
		v, _ := strconv.ParseFloat(r[3], 64)
		powers[k][r[2]] = v
	}
	for k, m := range powers {
		if !(m["mosaic"] < m["all-optics"] && m["mosaic"] < m["DAC+optics"]) {
			t.Errorf("k=%s: mosaic %v not below alternatives %v", k, m["mosaic"], m)
		}
	}
}

func TestE12Degradation(t *testing.T) {
	tab, err := E12Degradation(1)
	render(t, tab, err)
	get := func(name string) (mean, p99 float64, stalled int) {
		for _, r := range tab.Rows {
			if r[0] == name {
				m, _ := strconv.ParseFloat(r[3], 64)
				p, _ := strconv.ParseFloat(r[4], 64)
				s, _ := strconv.Atoi(r[2])
				return m, p, s
			}
		}
		t.Fatalf("missing scenario %s", name)
		return 0, 0, 0
	}
	base, _, _ := get("no-fault")
	deg4, _, degStall := get("mosaic-access(-4%)")
	_, _, downStall := get("optics-access-down")
	_, _, fabricDegStall := get("mosaic-fabric(-4%)")
	if degStall != 0 || fabricDegStall != 0 {
		t.Error("graceful degradation must not stall flows")
	}
	// -4% capacity should barely move the mean.
	if deg4 > base*1.5 {
		t.Errorf("-4%% degradation mean FCT %v vs base %v: too much impact", deg4, base)
	}
	// An access link going dark strands its host: stalled flows appear.
	if downStall == 0 {
		t.Error("access link-down should strand flows")
	}
}

func TestA1SingleCoreDiesFast(t *testing.T) {
	tab, err := A1Oversampling()
	render(t, tab, err)
	// At 5um offset: group loss still finite & small, single-core dead/huge.
	for i := range tab.Rows {
		off := cellF(t, tab, i, 0)
		if off == 5 {
			if g := cell(tab, i, 1); g == "inf" {
				t.Error("group spot dead at 5um")
			}
			single := cell(tab, i, 2)
			if single != "inf" {
				v, _ := strconv.ParseFloat(single, 64)
				if v < 10 {
					t.Errorf("single core at 5um only %v dB down", v)
				}
			}
		}
	}
}

func TestA2FECTable(t *testing.T) {
	tab, err := A2FECChoice(1)
	render(t, tab, err)
	// At 1e-4, none must lose frames while rslite/kp4 hold up.
	var noneOK, rsliteOK string
	for _, r := range tab.Rows {
		if r[0] == "1.00e-04" {
			switch r[1] {
			case "none":
				noneOK = r[3]
			case "RS(68,64)/GF(2^8)":
				rsliteOK = r[3]
			}
		}
	}
	if noneOK == "" || rsliteOK == "" {
		t.Fatalf("missing rows: %q %q", noneOK, rsliteOK)
	}
	if noneOK == "100/100" {
		t.Error("unprotected link at 1e-4 should lose frames")
	}
	if rsliteOK != "100/100" {
		t.Errorf("RS-lite at 1e-4 delivered %s", rsliteOK)
	}
}

func TestA3GoodputMonotone(t *testing.T) {
	tab, err := A3UnitSize(1)
	render(t, tab, err)
	prev := 0.0
	for i := range tab.Rows {
		g := cellF(t, tab, i, 1)
		if g < prev {
			t.Fatal("goodput should grow with unit size")
		}
		prev = g
	}
}

func TestA4SparingTable(t *testing.T) {
	tab, err := A4SparingPolicy(1)
	render(t, tab, err)
	// With 4 spares, rate holds at 40G through 4 failures; bare link
	// degrades immediately.
	r4 := tab.Rows[4] // 4 failures
	if r4[1] != "40G" {
		t.Errorf("spared rate after 4 failures = %s", r4[1])
	}
	if tab.Rows[1][2] != "38G" {
		t.Errorf("bare rate after 1 failure = %s", tab.Rows[1][2])
	}
	// Spared link keeps delivering everything.
	if !strings.HasPrefix(r4[3], "50/") {
		t.Errorf("spared delivery after 4 failures = %s", r4[3])
	}
}
