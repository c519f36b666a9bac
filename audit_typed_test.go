//go:build audit

package mosaic

// The typed half of the dead-weight audit (ROADMAP 1(c)): what the
// syntactic scan in audit_test.go cannot see because it matches names,
// not objects. It type-checks every non-test package of the module
// (go/types, the standard library imported from source) and flags
//
//   - an exported method on a concrete type under internal/ that no
//     non-test selector resolves to and that no interface — declared in
//     the tree or in a standard-library package the tree reaches — can
//     reach on a type that carries it: `Len` is called all over the tree,
//     but not eventlog.Log's. An interface reaches only a type non-test
//     code names somewhere besides the type's own declarations; one that
//     is never named is never constructed, and is flagged whole;
//   - an exported field without a json tag in an internal/ struct named
//     *Config or *Options that non-test code reads and none sets: a knob
//     with one value in use, which should be that constant.
//
// Type-checking the tree and the standard library it reaches from source
// takes seconds, not the syntactic scan's milliseconds, so it runs from
// `make check` behind the audit build tag
// (go test -tags audit -run TestTypedAudit .), not in tier-1.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestTypedAudit(t *testing.T) {
	flagged, err := typedAudit(".")
	if err != nil {
		t.Fatal(err)
	}
	// The syntactic scan's verdict on what it also flags stands.
	flagged = slices.DeleteFunc(flagged, func(k string) bool { _, ok := auditAllow[k]; return ok })
	unlisted, stale := auditVerdict(flagged, typedAuditAllow)
	for _, k := range unlisted {
		t.Errorf("%s: an exported method nothing outside tests can reach, or an option read but never set: delete it (make the option its constant), or add it to typedAuditAllow with a reason", k)
	}
	for _, k := range stale {
		t.Errorf("typedAuditAllow entry %s is stale: the identifier is gone or is reachable now", k)
	}
	for k, why := range typedAuditAllow {
		if strings.TrimSpace(why) == "" {
			t.Errorf("typedAuditAllow entry %s carries no reason", k)
		}
	}
}

// TestTypedAuditCatchesPlanted is the typed audit's own negative case:
// everything the syntactic scan would pass because the name is selected
// somewhere, on something else.
func TestTypedAuditCatchesPlanted(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module planted\n",
		"internal/a/a.go": `package a

import "sort"

type Log struct{ lines []string }

func (l *Log) Len() int       { return len(l.lines) } // flagged: *Log is no sort.Interface
func (l *Log) Lines() []string { return l.lines }     // called from cmd/x

type Keys []string

func (k Keys) Len() int           { return len(k) } // reached through sort.Interface
func (k Keys) Less(i, j int) bool { return k[i] < k[j] }
func (k Keys) Swap(i, j int)      { k[i], k[j] = k[j], k[i] }

func Sorted(k Keys) Keys { sort.Sort(k); return k }

type Shape interface{ Area() float64 }

type Square struct{ S float64 }

func (s Square) Area() float64  { return s.S * s.S } // reached through Shape
func (s Square) Perim() float64 { return 4 * s.S }   // flagged: only the test calls it

type Inner struct{}

func (Inner) Area() float64 { return 0 } // reached through Shape, promoted into Outer

type Outer struct{ Inner }

type Ghost struct{}

func (Ghost) Area() float64 { return 1 } // a Shape nobody builds: the type is flagged whole

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T   { return b.v } // called on an instantiation
func (b *Box[T]) Drop()    {}             // flagged

type RunConfig struct {
	Frames  int    // read and set
	FrameLen int   // flagged: read, never set
	Name    string ` + "`json:\"name\"`" + ` // decoded, not set in code
	Unused  int    // neither read nor set: not this audit's business
	Workers int    // set through its address
}

func Run(c RunConfig) int { return c.Frames*c.FrameLen + len(c.Name) + c.Workers }
`,
		"internal/a/a_test.go": "package a\nfunc init() { _ = Square{}.Perim(); _ = RunConfig{FrameLen: 3} }\n",
		"cmd/x/main.go": `package main

import "planted/internal/a"

func main() {
	var l a.Log
	_ = l.Lines()
	_ = a.Sorted(a.Keys{"b", "a"}).Len
	var s a.Shape = a.Square{S: 2}
	_ = s.Area()
	s = a.Outer{}
	var b a.Box[int]
	_ = b.Get()
	c := a.RunConfig{Frames: 2}
	p := &c.Workers
	*p = 3
	_ = a.Run(c)
}
`,
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flagged, err := typedAudit(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.Box.Drop", "internal/a.Ghost", "internal/a.Log.Len", "internal/a.RunConfig.FrameLen", "internal/a.Square.Perim"}
	if !reflect.DeepEqual(flagged, want) {
		t.Fatalf("flagged %v, want %v", flagged, want)
	}
}

// errorMethods are the methods package errors reaches through interface
// literals inside its functions, which no package scope declares.
var errorMethods = map[string]bool{"Is": true, "As": true, "Unwrap": true}

var optionStruct = regexp.MustCompile(`(Config|Options)$`)

// auditLoader type-checks the module's packages on demand, sharing one
// types.Info, and hands everything else to the source importer.
type auditLoader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	info         *types.Info
	pkgs         map[string]*types.Package // import path -> checked module package
	files        map[string][]*ast.File
}

func (l *auditLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	bp, err := build.Default.ImportDir(dir, 0) // non-test files that match the build constraints
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// typedAudit returns, as sorted "internal/pkg.Type.Name" keys, the
// exported methods and option fields under root/internal that the rules
// at the top of this file flag.
func typedAudit(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(string(mod))
	if len(fields) < 2 || fields[0] != "module" {
		return nil, fmt.Errorf("audit: %s/go.mod does not start with a module line", root)
	}
	fset := token.NewFileSet()
	l := &auditLoader{
		root: root, module: fields[1], fset: fset,
		std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			return nil // no buildable non-test Go here
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		_, err = l.Import(strings.TrimSuffix(l.module+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
	if err != nil {
		return nil, err
	}

	// Every interface a value can be used through: each interface type
	// written in the tree, named or literal, plus each one a reachable
	// standard-library package declares.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(l.info.Types[it].Type)
				}
				return true
			})
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var reach func(*types.Package)
	reach = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if l.pkgs[p.Path()] != p {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
						addIface(named)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			reach(imp)
		}
	}
	for _, p := range l.pkgs {
		reach(p)
	}

	// reached: methods a non-test selector resolves to, and methods an
	// interface above can call on a type of the tree (promoted ones
	// included: the lookup runs on the implementing type).
	reached := map[*types.Func]bool{}
	for _, sel := range l.info.Selections {
		if fn, ok := sel.Obj().(*types.Func); ok {
			reached[fn.Origin()] = true
		}
	}
	set, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	namedTypes := map[*types.TypeName]bool{} // named by non-test code outside the type's own method receivers
	for _, files := range l.files {
		for _, f := range files {
			classifyFieldUses(l.info, f, set, read)
			recv := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !recv[id] {
					if tn, ok := l.info.Uses[id].(*types.TypeName); ok {
						namedTypes[tn] = true
					}
				}
				return true
			})
		}
	}

	var flagged []string
	for path, pkg := range l.pkgs {
		dir := strings.TrimPrefix(path, l.module+"/")
		audited := dir == "internal" || strings.HasPrefix(dir, "internal/")
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			if audited && tn.Exported() && !namedTypes[tn] {
				flagged = append(flagged, dir+"."+name)
				continue
			}
			if named.TypeParams().Len() == 0 && namedTypes[tn] {
				ptr := types.NewPointer(named)
				for _, it := range ifaces {
					if !types.Implements(ptr, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
						if fn, ok := obj.(*types.Func); ok {
							reached[fn.Origin()] = true
						}
					}
				}
			}
			if !audited {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !reached[m] && !errorMethods[m.Name()] {
					flagged = append(flagged, dir+"."+name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok && optionStruct.MatchString(name) {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
					if f.Exported() && !tagged && read[f] && !set[f] {
						flagged = append(flagged, dir+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Strings(flagged)
	return flagged, nil
}

// classifyFieldUses records, for every struct field an identifier of f
// resolves to, whether the use can write it (a keyed or positional
// composite literal, the left side of an assignment, ++/--, or its
// address taken) or only reads it.
func classifyFieldUses(info *types.Info, f *ast.File, set, read map[*types.Var]bool) {
	field := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
		}
		return nil
	}
	written := map[*ast.Ident]bool{}
	write := func(e ast.Expr) {
		if v := field(e); v != nil {
			set[v] = true
			written[ast.Unparen(e).(*ast.SelectorExpr).Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem() // an elided &T{...} element
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							set[v], written[id] = true, true
						}
					}
				} else if i < st.NumFields() {
					set[st.Field(i)] = true
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !written[id] {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				read[v] = true
			}
		}
		return true
	})
}
