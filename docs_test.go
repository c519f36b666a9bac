package mosaic

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// docsWithCommands are the documents that tell a reader what to run.
var docsWithCommands = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// goRunDir is a `go run ./<dir>` command, its flags and directory
// possibly wrapped onto the next line; a {a,b} group names several.
var goRunDir = regexp.MustCompile(`go run\s+(?:-\S+\s+)*\./([A-Za-z0-9_./{},-]+)`)

// TestDocsNameOnlyPrograms fails on a document line that sends a reader
// to a program the tree no longer has: every `go run ./<dir>` in the
// docs must name a directory holding a package main.
func TestDocsNameOnlyPrograms(t *testing.T) {
	named := 0
	for _, doc := range docsWithCommands {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goRunDir.FindAllSubmatch(src, -1) {
			for _, dir := range expandBraces(strings.TrimRight(string(m[1]), "./,")) {
				named++
				if !holdsMain(dir) {
					t.Errorf("%s: `go run ./%s` names no package main", doc, dir)
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("found no `go run ./<dir>` command in the docs")
	}
}

// expandBraces expands one {a,b,...} group: "x/{a,b}" is x/a and x/b.
func expandBraces(s string) []string {
	open, end := strings.IndexByte(s, '{'), strings.IndexByte(s, '}')
	if open < 0 || end < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, s[:open]+alt+s[end+1:])
	}
	return out
}

// holdsMain reports whether dir has a non-test Go file in package main.
func holdsMain(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		pf, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err == nil && pf.Name.Name == "main" {
			return true
		}
	}
	return false
}

// roadmapCite is a citation of a roadmap item by its number, possibly
// wrapped onto the next line or comment line. Items are renumbered when
// the roadmap is re-anchored, so outside ROADMAP.md and the change
// records a number soon points at the wrong item.
var roadmapCite = regexp.MustCompile(`ROADMAP[\s/#]+(item[\s/#]+)?[0-9]`)

// changeStatement is the title of a change's statement, which numbers
// the change and, like CHANGES.md, is dated to the roadmap it was written
// against.
var changeStatement = regexp.MustCompile(`^# [A-Z]+ [0-9]+ · `)

// A citeAllowance keeps a file's roadmap citations: exactly n, and why.
type citeAllowance struct {
	n   int
	why string
}

var roadmapCiteAllow = map[string]citeAllowance{
	"benchmark/README.md": {3, "benchmark/ changes only together with the benchmark it documents, so its three citations wait for that change"},
}

// TestNoRoadmapNumbersOutsideRoadmap fails on a roadmap item cited by
// number in a Go, Markdown, YAML or Makefile file other than the dated
// records: ROADMAP.md, CHANGES.md and a change's statement at the root.
func TestNoRoadmapNumbersOutsideRoadmap(t *testing.T) {
	found, err := roadmapCites(".", roadmapCiteAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

// TestRoadmapCitesCatchPlanted is the check's negative case: a citation
// in each kind of file it reads fails, wrapped or not, the exempt
// records and other file kinds do not, and an allowance the tree no
// longer uses up is stale.
func TestRoadmapCitesCatchPlanted(t *testing.T) {
	cite := "ROADMAP "
	root := plantTree(t, map[string]string{
		"ROADMAP.md":               "1. the first item\n",
		"CHANGES.md":               "done: " + cite + "1\n",
		"internal/a/a.go":          "// Package a (" + cite + "item 4): planted.\npackage a\n",
		"internal/b/b.go":          "// Package b is planted (" + cite + "\n// item 4).\npackage b\n",
		"docs/guide.md":            "ROADMAP's aims stand.\nSee " + cite + "2(c).\n",
		".github/workflows/ci.yml": "# " + cite + "3\n",
		"Makefile":                 "\n# " + cite + "item 5\n",
		"notes.txt":                cite + "6\n",
		"benchmark/README.md":      cite + "item 7\n",
	})
	found, err := roadmapCites(root, map[string]citeAllowance{"benchmark/README.md": {2, "planted"}})
	if err != nil {
		t.Fatal(err)
	}
	var at []string
	for _, f := range found {
		pos, _, _ := strings.Cut(f, ": ")
		at = append(at, pos)
	}
	want := []string{".github/workflows/ci.yml:1", "Makefile:2", "benchmark/README.md", "docs/guide.md:2", "internal/a/a.go:1", "internal/b/b.go:1"}
	if !slices.Equal(at, want) {
		t.Errorf("found %q, want findings at %q", found, want)
	}
}

// roadmapCites walks root and returns, sorted by path, each citation of a
// roadmap item by number and each allowance whose file no longer holds
// exactly its count.
func roadmapCites(root string, allow map[string]citeAllowance) ([]string, error) {
	var found []string
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch ext := filepath.Ext(rel); {
		case rel == "ROADMAP.md" || rel == "CHANGES.md":
			return nil
		case ext != ".go" && ext != ".md" && ext != ".yml" && d.Name() != "Makefile":
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if !strings.Contains(rel, "/") && changeStatement.Match(src) {
			return nil
		}
		for _, m := range roadmapCite.FindAllIndex(src, -1) {
			counts[rel]++
			if _, ok := allow[rel]; !ok {
				line := 1 + bytes.Count(src[:m[0]], []byte("\n"))
				found = append(found, fmt.Sprintf("%s:%d: cites a roadmap item by number (%q); name what it is instead", rel, line, src[m[0]:m[1]]))
			}
		}
		return nil
	})
	for file, a := range allow {
		if counts[file] != a.n {
			found = append(found, fmt.Sprintf("%s: allows exactly %d roadmap citations, holds %d (%s)", file, a.n, counts[file], a.why))
		}
	}
	sort.Strings(found)
	return found, err
}
