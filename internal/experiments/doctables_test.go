package experiments

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// experimentsDoc is the results write-up whose tables are copies of the
// registry's seed-1 tables.
const experimentsDoc = "../../EXPERIMENTS.md"

// experimentHeading is the "## E1 —" / "### E22 —" heading a table sits
// under.
var experimentHeading = regexp.MustCompile(`^#{2,} ([EA]\d+) —`)

// docTable is one markdown table of experimentsDoc: the experiment whose
// heading is above it, its header cells and its body rows, each with its
// line number.
type docTable struct {
	id    string
	cols  []string
	rows  [][]string
	lines []int // lines[0] is the header's, lines[i+1] rows[i]'s
}

// readDocTables returns every markdown table in path, in order, outside
// fenced code blocks. Cells are trimmed and lose their ** emphasis.
func readDocTables(path string) ([]docTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var (
		tables           []docTable
		id               string
		inTable, inFence bool
	)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
		}
		if inFence {
			inTable = false
			continue
		}
		if strings.HasPrefix(line, "#") {
			id = ""
			if m := experimentHeading.FindStringSubmatch(line); m != nil {
				id = m[1]
			}
		}
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(strings.ReplaceAll(c, "**", "")))
		}
		switch {
		case !inTable:
			inTable = true
			tables = append(tables, docTable{id: id, cols: cells, lines: []int{n}})
		case strings.Trim(line, "|-: ") == "": // the header's separator row
		default:
			t := &tables[len(tables)-1]
			t.rows = append(t.rows, cells)
			t.lines = append(t.lines, n)
		}
	}
	return tables, sc.Err()
}

// checkDocTables holds every table in EXPERIMENTS.md to the registry
// table of the experiment heading it sits under: its header names are
// registry columns, and its rows are the registry's rows, in order, on
// those columns.
func checkDocTables(t *testing.T, results []Result) {
	t.Helper()
	tables, err := readDocTables(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables found", experimentsDoc)
	}
	byID := map[string]Table{}
	for _, r := range results {
		byID[r.Experiment.ID] = r.Table
	}
	for _, d := range tables {
		at := func(i int) string { return fmt.Sprintf("EXPERIMENTS.md:%d", d.lines[i]) }
		reg, ok := byID[d.id]
		if !ok {
			t.Errorf("%s: table under no experiment heading (want \"## E<n> —\" above it)", at(0))
			continue
		}
		idx := make([]int, len(d.cols))
		for j, c := range d.cols {
			if idx[j] = slices.Index(reg.Columns, c); idx[j] < 0 {
				t.Errorf("%s: %s has no column %q (columns: %s)", at(0), d.id, c, strings.Join(reg.Columns, ", "))
			}
		}
		if slices.Contains(idx, -1) {
			continue
		}
		if len(d.rows) != len(reg.Rows) {
			t.Errorf("%s: %s table has %d rows, the registry's %d", at(0), d.id, len(d.rows), len(reg.Rows))
		}
		for i, row := range d.rows[:min(len(d.rows), len(reg.Rows))] {
			if len(row) != len(d.cols) {
				t.Errorf("%s: %d cells under a %d-column header", at(i+1), len(row), len(d.cols))
				continue
			}
			for j, got := range row {
				if want := reg.Rows[i][idx[j]]; got != want {
					t.Errorf("%s: %s row %d %s = %q, the registry's seed-1 table has %q", at(i+1), d.id, i+1, d.cols[j], got, want)
				}
			}
		}
	}
}
