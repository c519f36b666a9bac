package mosaic

// The syntactic half of the dead-weight audit, in tier-1: nothing under
// internal/ is exported without a non-test caller. Its typed half and the
// tree's named static rules run in `make audit`, the repo's one static
// gate (audit_typed_test.go, audit_rules_test.go). The scan here has no
// type information, so it errs toward silence: a package-level name
// counts as called when its own package names it (as a bare identifier,
// not as the field or method of a selector) anywhere besides the
// declaration, or any other non-test file selects it through an import
// of that package; a method counts as called when any non-test file selects
// its name on anything, an interface in the tree declares it, or it is
// one of the standard library's well-known interface methods. A use from
// a _test.go file is not a caller.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// auditAllow lists the exports kept without a non-test caller, each with
// the reason it stays. An entry that stops matching (the identifier is
// gone or gained a caller) fails the test as stale.
var auditAllow = map[string]string{
	"internal/reliability.MonteCarloSurvival": "reference model: the Monte-Carlo oracle refmodel's property suite and the reliability tests hold the k-of-n closed form against",
	"internal/phy.Link.SetChannelSkew":        "test fixture: skews a channel in the phy tests and refmodel's pipeline fuzz target",
	"internal/phy.Monitor.FailedChannels":     "test observer of the monitor's failed set; rule SPARING-IN-SUPERVISOR forbids a non-test caller (phy.Link.SpareFailed walks the monitor in place)",
	"internal/core.Design800G":                "test fixture: the 400-channel scale point of the core, config and root integration tests",
	"internal/units.ApproxEqual":              "test fixture: the relative-tolerance compare of seven packages' tests",
	"internal/coding/gf.MustNew":              "test fixture: panicking field constructor of the gf, rs and refmodel tests",
	"internal/coding/rs.MustNew":              "test fixture: panicking code constructor of the rs tests",
}

// typedAuditAllow is the same list for the typed audit
// (audit_typed_test.go, run by `make audit`): exported methods no
// non-test selector or interface reaches, types non-test code never
// names, and option fields read but never set. What the syntactic scan
// also flags is listed once, above.
var typedAuditAllow = map[string]string{
	"internal/fleetd.Fleet.Run":         "replays a recorded op script epoch by epoch; a journal-replay restart of mosaicfleetd is its caller-to-be, the fleetd golden test its only one today",
	"internal/netsim/workload.Fixed":    "test fixture: the deterministic size distribution of netsim's arrival-order and RunUntil tests",
	"internal/channel.Copper.Validate":  "test oracle: TestCopperCatalog holds the cable catalog to it; no non-test code builds a Copper outside the catalog",
	"internal/photonics.Laser.Validate": "test oracle: TestLaserCatalogValid holds the laser catalog to it; no non-test code builds a Laser outside the catalog",
	"internal/power.Budget.Component":   "test observer: the power and core tests read one named component of a budget through it",
}

// stdlibCalled names the methods the standard library calls through its
// own interfaces (fmt.Stringer, error, sort.Interface, http.Handler).
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "ServeHTTP": true,
}

func TestNoCallerlessExports(t *testing.T) {
	flagged, err := auditExports(".")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := auditVerdict(flagged, auditAllow)
	for _, k := range unlisted {
		t.Errorf("%s is exported but no non-test code references it: delete it, or add it to auditAllow with a reason", k)
	}
	for _, k := range stale {
		t.Errorf("auditAllow entry %s is stale: the identifier is gone or has a caller now", k)
	}
	if len(auditAllow) > 30 {
		t.Errorf("auditAllow has %d entries; the budget is 30", len(auditAllow))
	}
	for k, why := range auditAllow {
		if strings.TrimSpace(why) == "" {
			t.Errorf("auditAllow entry %s carries no reason", k)
		}
	}
}

// TestAuditCatchesPlantedExport is the audit's own negative case: in a
// planted tree a caller-less export and a test-only one are reported, a
// called one and an allow-listed one are not, and an allow-list entry
// matching nothing is stale.
func TestAuditCatchesPlantedExport(t *testing.T) {
	root := plantTree(t, map[string]string{
		"go.mod": "module planted\n",
		"internal/a/a.go": `package a
type T struct{}
func (T) Orphan() {}
func (T) Called() {}
func Planted() {}
func TestOnly() {}
func Allowed() {}
func Used() { helper() }
func helper() { Internal() }
func Internal() {}
`,
		"internal/a/a_test.go": "package a\nfunc init() { TestOnly() }\n",
		"cmd/x/main.go":        "package main\nimport \"planted/internal/a\"\nfunc main() { a.Used(); a.T{}.Called() }\n",
	})
	flagged, err := auditExports(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.Allowed", "internal/a.Planted", "internal/a.T.Orphan", "internal/a.TestOnly"}
	if !reflect.DeepEqual(flagged, want) {
		t.Fatalf("flagged %v, want %v", flagged, want)
	}
	unlisted, stale := auditVerdict(flagged, map[string]string{
		"internal/a.Allowed": "planted allow-list entry",
		"internal/a.Gone":    "matches nothing",
	})
	if want := []string{"internal/a.Planted", "internal/a.T.Orphan", "internal/a.TestOnly"}; !reflect.DeepEqual(unlisted, want) {
		t.Errorf("unlisted %v, want %v", unlisted, want)
	}
	if want := []string{"internal/a.Gone"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale %v, want %v", stale, want)
	}
}

// auditVerdict splits the scan against an allow-list: flagged names the
// list does not cover, and list entries that flag nothing.
func auditVerdict(flagged []string, allow map[string]string) (unlisted, stale []string) {
	hit := make(map[string]bool, len(flagged))
	for _, k := range flagged {
		hit[k] = true
		if _, ok := allow[k]; !ok {
			unlisted = append(unlisted, k)
		}
	}
	for k := range allow {
		if !hit[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return unlisted, stale
}

// auditExports parses every non-test Go file under root and returns, as
// sorted "internal/pkg.Name" / "internal/pkg.Type.Method" keys, the
// exported declarations under root/internal that nothing references.
func auditExports(root string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // slash-separated dir relative to root -> its non-test files
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && auditSkipsDir(name) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	type decl struct {
		dir, name string
		method    bool
	}
	decls := map[string]decl{}       // key -> declaration
	declared := map[string]int{}     // dir + "." + name -> declarations of that name in dir
	mentions := map[string]int{}     // dir + "." + name -> identifiers of that name in dir
	qualified := map[string]bool{}   // dir + "." + name selected through an import of dir
	selected := map[string]bool{}    // every selected name, on anything
	ifaceMethod := map[string]bool{} // every method an interface in the tree declares

	for dir, fs := range files {
		audited := dir == "internal" || strings.HasPrefix(dir, "internal/")
		for _, f := range fs {
			imports := map[string]string{} // local name -> dir
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				if !strings.HasPrefix(ip, module+"/") {
					continue
				}
				target := strings.TrimPrefix(ip, module+"/")
				local := path.Base(target)
				if tf := files[target]; len(tf) > 0 {
					local = tf[0].Name.Name
				}
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = target
			}
			add := func(name string, id *ast.Ident, method bool) {
				declared[dir+"."+id.Name]++
				if audited && id.IsExported() {
					decls[dir+"."+name] = decl{dir, id.Name, method}
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name.Name, d.Name, false)
					} else if len(d.Recv.List) == 1 {
						add(recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name, true)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name.Name, s.Name, false)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id.Name, id, false)
							}
						}
					}
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					mentions[dir+"."+n.Name]++
				case *ast.SelectorExpr:
					// x.Sel is a field, a method or another package's name,
					// never this package's own Sel: descend into x only.
					selected[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if target, ok := imports[x.Name]; ok {
							qualified[target+"."+n.Sel.Name] = true
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							ifaceMethod[id.Name] = true
						}
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}

	var flagged []string
	for key, d := range decls {
		var used bool
		if d.method {
			used = selected[d.name] || ifaceMethod[d.name] || stdlibCalled[d.name]
		} else {
			own := d.dir + "." + d.name
			used = qualified[own] || mentions[own] > declared[own]
		}
		if !used {
			flagged = append(flagged, key)
		}
	}
	sort.Strings(flagged)
	return flagged, nil
}

// plantTree writes files, keyed by slash-separated path, under a fresh
// temporary directory and returns it.
func plantTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// auditSkipsDir reports a directory the module's packages never live in.
func auditSkipsDir(name string) bool { return strings.HasPrefix(name, ".") || name == "testdata" }

// modulePath reads the module path off the first line of root/go.mod.
func modulePath(root string) (string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	fields := strings.Fields(string(mod))
	if len(fields) < 2 || fields[0] != "module" {
		return "", fmt.Errorf("audit: %s/go.mod does not start with a module line", root)
	}
	return fields[1], nil
}

// recvName is the receiver's base type name: T for T, *T and T[K].
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
