package mosaic

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
