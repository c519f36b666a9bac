package mosaic

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// fuzzTargetsVar is the Makefile's FUZZ_TARGETS assignment, through
	// its last backslash continuation.
	fuzzTargetsVar = regexp.MustCompile(`(?m)^FUZZ_TARGETS = ((?:.*\\\n)*.*)`)
	// fuzzDecl is a fuzz target declaration in a _test.go file.
	fuzzDecl = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
)

// TestFuzzTargetsListed holds the Makefile's FUZZ_TARGETS to the fuzz
// targets the tree declares. `go test -fuzz` on a name that matches no
// target prints "no fuzz tests to fuzz" and passes, so a stale or
// misspelt entry would leave fuzz-smoke and verify-deep green without
// running anything, and an unlisted target would never be fuzzed.
func TestFuzzTargetsListed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := fuzzTargetsVar.FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no FUZZ_TARGETS assignment")
	}
	listed := strings.Fields(strings.ReplaceAll(string(m[1]), "\\", ""))

	var declared []string
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		for _, m := range fuzzDecl.FindAllSubmatch(src, -1) {
			declared = append(declared, filepath.ToSlash(filepath.Dir(p))+":"+string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets in the tree")
	}
	for _, k := range listed {
		if !slices.Contains(declared, k) {
			t.Errorf("FUZZ_TARGETS lists %s, which no _test.go file declares", k)
		}
	}
	for _, k := range declared {
		if !slices.Contains(listed, k) {
			t.Errorf("%s is declared but missing from FUZZ_TARGETS", k)
		}
	}
}
