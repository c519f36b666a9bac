//go:build audit

package mosaic

// The static rules of `make audit`: the tree's one-of-each facts — one
// parallel runner, one event log, one superframe boundary, nothing
// scheduled, one stats mirror, pointer-free flows, a byte-stream link
// exchange, one face per link-stack operation, one owner per count, one
// door into the fleet, no fused multiply-add in the flow engine. Each is
// a row of auditRules: a stable ID, one line of why, the files it reads
// and a check over the syntax the typed audit loads and type-checks.
// Checks read code — declarations, identifiers, calls, imports, literals
// — never comments. A check on a package-qualified name resolves
// identifiers to their objects, so an import alias or a dot import does
// not hide a use, and matches the name as spelled too; a check on a bare
// name matches identifiers by name. Test files are not type-checked, so
// only what needs no types applies to them. A violation prints as
// `RULE-ID file:line: why`; TestTypedAuditRulesCatchPlanted shows every
// rule firing.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// A rule is one static fact of the tree: every line of a file it reads on
// which its check matches a node is a violation, unless an allowance
// covers it.
type rule struct {
	id, why string
	files   []string // path prefixes it reads: a directory with its slash, or a file; "" is every file
	skip    []string // path prefixes inside files it does not read
	tests   bool     // read _test.go files too
	decl    string   // read only this declaration: "Func", "Type" or "Type.Method"
	match   check
	// arm64, set instead of match, names instructions that the package in
	// files[0], compiled for arm64, must not emit from any source line
	// outside skip (code it inlines included).
	arm64 *regexp.Regexp
	allow []allowance
}

// An allowance lets one hit of its rule stand: a hit in file whose source
// line, trimmed, is line. It is exact: n allowances for one line allow n
// such lines, more is a violation and fewer is a stale allowance.
type allowance struct{ file, line, why string }

// A check reports whether n breaks its rule. info is the type
// information of n's file, nil for a file that is not type-checked (a
// test file).
type check func(info *types.Info, n ast.Node) bool

var srcDirs = []string{"internal/", "cmd/"}

var auditRules = []rule{{
	id:    "GO-IN-PAR",
	why:   "fan-out goes through internal/par, the one runner: a go statement elsewhere is a second scheduler",
	files: srcDirs, skip: []string{"internal/par/"},
	match: goStmt,
	allow: []allowance{
		{"internal/telemetry/httpx/httpx.go", "go func() { errc <- srv.Serve(ln) }()", "the HTTP server's serve loop"},
		{"cmd/mosaicfleetd/main.go", "go func() {", "the epoch ticker, the fleet's one caller of Step"},
		{"cmd/linksoak/main.go", "go func() {", "the served soak's round loop"},
	},
}, {
	id:    "WAITGROUP-IN-PAR",
	why:   "waiting on goroutines is internal/par's work: a sync.WaitGroup elsewhere joins a second set of workers",
	files: srcDirs, skip: []string{"internal/par/"},
	match: refers("sync.WaitGroup"),
}, {
	id:    "SHA256-IN-EVENTLOG",
	why:   "a log digest comes from internal/eventlog, the one event log",
	files: srcDirs, skip: []string{"internal/eventlog/"},
	match: refers("crypto/sha256.*", "crypto.SHA256"),
	allow: []allowance{
		{"internal/experiments/e23.go", "h := sha256.Sum256([]byte(sb.String()))", "E23's copper stall-record hash: a digest of records, not of a line log"},
	},
}, {
	id:    "SPARING-IN-SUPERVISOR",
	why:   "the link supervisor owns reactive sparing: phy.Link.SpareFailed asks the mapper, so nothing polls Monitor.FailedChannels or keeps a handled map",
	files: srcDirs,
	match: anyOf(spelled(`\.FailedChannels$`), defines(`handled`, isMap)),
}, {
	id:    "HOOK-IN-SUPERVISOR",
	why:   "only faultinject/supervisor.go installs a transition-hook closure on a link's monitor",
	files: srcDirs,
	match: hookClosure,
	allow: []allowance{
		{"internal/faultinject/supervisor.go", "link.Monitor().SetTransitionHook(func(physical int, from, to phy.ChannelState) {", "the supervisor's one hook, installed when it attaches"},
	},
}, {
	id:    "REMAP-IN-SUPERVISOR",
	why:   "only the link supervisor declares the remap record, at the superframe boundary it owns",
	files: srcDirs,
	match: stringLit(`^sf=%d remap %v$`),
	allow: []allowance{
		{"internal/faultinject/supervisor.go", `var recRemap = eventlog.NewKind("sf=%d remap %v", eventlog.Int, eventlog.Rec)`, "the supervisor's one remap record"},
	},
}, {
	id: "EVENTLOG-RECORDS",
	why: "an event is a record, rendered on demand: no Addf under internal/, and internal/eventlog's append path " +
		"(the Entry methods, Log's Add and AppendEach, and skip) calls no fmt",
	files: []string{"internal/"}, tests: true,
	match: anyOf(ident(`^Addf$`), fmtOnAppendPath),
}, {
	id: "SCENARIO-PINNED-DRAWS",
	why: "a scenario runner draws through goSource, Go 1's source as a concrete type: no (*rand.Rand).Intn, Int31n, " +
		"Perm or Float64 and no rand.NewSource but the one newGoSource recovers its register from",
	files: []string{"internal/scenario/workload.go", "internal/scenario/env.go", "internal/scenario/source.go"},
	match: refers("math/rand.Rand.Intn", "math/rand.Rand.Int31n", "math/rand.Rand.Perm", "math/rand.Rand.Float64",
		"math/rand.NewSource"),
	allow: []allowance{
		{"internal/scenario/source.go", "ref := rand.NewSource(seed).(rand.Source64)", "newGoSource reads math/rand's own first draws"},
	},
}, {
	id:    "FLEETD-LINK-NO-SIM",
	why:   "a fleetd link is stepped by its caller, who holds the clock: it imports no simulation clock",
	files: []string{"internal/fleetd/link.go"},
	match: imports("mosaic/internal/sim"),
}, {
	id:    "NO-SCHEDULER",
	why:   "nothing is scheduled: links, sessions and flows are stepped with the caller holding the clock (no sim.Engine, no Schedule or After call, no batch mode)",
	files: srcDirs,
	match: anyOf(refers("mosaic/internal/sim.Engine", "mosaic/internal/sim.NewEngine", "mosaic/internal/sim.Canceler"),
		calls(`^(Schedule|After)$`), ident(`^(BeginBatch|CommitBatch)$`)),
}, {
	id:    "SIM-CLOCK-ONLY",
	why:   "internal/sim is a clock type and seeded RNGs, not an event engine: no Engine, NewEngine or Canceler, no container/heap",
	files: []string{"internal/sim/"}, tests: true,
	match: anyOf(ident(`^(NewEngine|Engine|Canceler)$`), imports("container/heap")),
}, {
	id:    "TELEMETRY-NO-MAC-FLEET",
	why:   "MAC and fleet series are row tables beside the structs they read, in internal/mac and internal/fleetd, not collectors in telemetry",
	files: []string{"internal/telemetry/"},
	match: anyOf(typeDecl(`^(MACStats|MACVCStats|MACCollector|Fleet[A-Za-z]*Collector)$`), stringLit(`^mosaic_(fleetd|mac)_`)),
}, {
	id:    "DELTA-IN-MIRROR",
	why:   "a cumulative stat becomes a counter by telemetry.Mirror's one growth-since-last-sync line: no other Add of a difference, no syncDelta",
	files: srcDirs,
	match: anyOf(deltaAdd, ident(`syncDelta`)),
	allow: []allowance{
		{"internal/telemetry/mirror.go", "se.c.Add(now - se.prev)", "the mirror's one delta advance"},
	},
}, {
	id:    "CAPACITY-BY-FRACTION",
	why:   "capacity leaves a mac.Bridge one way, Fraction(): no CapacitySink, no DiscardCapacity, tests and benchmark included",
	files: []string{""}, tests: true,
	match: ident(`CapacitySink|DiscardCapacity`),
}, {
	id:    "POISSON-IN-NETSIM",
	why:   "the Poisson gap is drawn only inside internal/netsim (FlowSim.OfferPoisson)",
	files: srcDirs, skip: []string{"internal/netsim/"},
	match: spelled(`\.NextGapSec$`),
}, {
	id:    "NETSIM-SLAB-HANDLES",
	why:   "flows are pointer-free slab records addressed by handle and sorted as integer keys: no incFlow, no map[int]*T table, no SortFunc comparator over flows",
	files: []string{"internal/netsim/"},
	match: anyOf(ident(`^incFlow$`), mapIntToPointer, sortFuncOverFlows),
}, {
	id:    "TOPOLOGY-UPLINKS-ONCE",
	why:   "Topology.Path routes from up-link lists built once, not an out slice built per route",
	files: []string{"internal/netsim/topology.go"},
	match: defines(`^out$`, isSlice),
}, {
	id:    "NETSIM-NO-COMPLETION-LIST",
	why:   "a link's flows sit in an ID-ordered index, so no completion or re-rated list is kept or sorted",
	files: []string{"internal/netsim/"},
	match: ident(`compFlows|noteReRated|reRated`),
}, {
	id:    "NETSIM-NO-QUEUE",
	why:   "finish times are read off the slab: internal/netsim declares no heap or queue type, imports no container/heap, keeps no per-flow version counter",
	files: []string{"internal/netsim/"},
	match: anyOf(typeDecl(`([Hh]eap|[Qq]ueue)$`), imports("container/heap"), ident(`^ver$`)),
}, {
	id:    "FLUSH-SORTS-ONCE",
	why:   "the flush path sorts once, the integer-key repair of an index a reroute broke",
	files: []string{"internal/netsim/incremental.go"},
	match: refers("slices.Sort*"),
	allow: []allowance{
		{"internal/netsim/incremental.go", "slices.Sort(keys)", "the index repair"},
	},
}, {
	id:    "PHY-BYTE-STREAM",
	why:   "a link exchange goes between frame bytes and stream bytes through linecode.AppendFrame/AppendIdle/Classify: no Block staging, no extract-then-decode fork",
	files: []string{"internal/phy/"},
	match: anyOf(refers("mosaic/internal/coding/linecode.Block"), ident(`DecodeBlock|AppendFrameBlocks|AppendExtract|dataExtractor`)),
}, {
	id:    "RS-SLICED-TABLES",
	why:   "the RS encoder's tables are eight 2 KB slices, not a contrib row per data position",
	files: []string{"internal/coding/rs/"},
	match: ident(`^contrib$`),
}, {
	id:    "LINK-NO-SCRATCH",
	why:   "a serving phy.Link keeps its state, not its scratch: an exchange or probe borrows a scratch for the call",
	files: []string{"internal/phy/"}, decl: "Link",
	match: ident(`linkScratch|probeScratch`),
}, {
	id:    "PAIR-NO-ARENA",
	why:   "a mac.Pair keeps no exchange buffer and no chunk headers: a Tick borrows its arena",
	files: []string{"internal/mac/"}, decl: "Pair",
	match: anyOf(ident(`ExchangeBuf`), defines(``, isByteSlices)),
}, {
	id:    "ENDPOINT-NO-TXBUF",
	why:   "a mac.Endpoint is born with no superframe buffer: Pair.Tick builds into its borrowed arena, BuildSuperframe grows one on first use",
	files: []string{"internal/mac/"}, decl: "NewEndpoint",
	match: makesBytes,
}, {
	id:    "FLOWGRAPH-OWN-RANGE",
	why:   "newFlowGraph sizes its per-link arrays to its own link range, never to the topology",
	files: []string{"internal/netsim/"}, decl: "newFlowGraph",
	match: anyOf(ident(`Topology`), lenOfLinks),
}, {
	id:    "STEP-KEEPS-CROSS",
	why:   "FleetSim.Step walks the cross-key list it keeps across epochs and never rebuilds it from the slab",
	files: []string{"internal/netsim/"}, decl: "FleetSim.Step",
	match: rangeOverCross,
}, {
	id:    "INJECT-NO-ADMIT",
	why:   "admission is the shards' work: FleetSim.Inject routes and leaves the flow on its shards' pending lists",
	files: []string{"internal/netsim/"}, decl: "FleetSim.Inject",
	match: calls(`(admit|addFlow)$`),
}, {
	id:    "WAIT-IN-PAR",
	why:   "waiting stays inside the runner: a runtime.Gosched or an atomic spin loop elsewhere is a second scheduler",
	files: srcDirs, skip: []string{"internal/par/"},
	match: anyOf(refers("runtime.Gosched"), spinLoop),
}, {
	id:    "ONE-FACE",
	why:   "every link-stack operation has one face, the one the hot path runs: no DecodeStream, SnapshotInto, NewEndpointVC, Send, Transmit or FEC Encode/Decode twin",
	files: []string{"internal/phy/", "internal/mac/"},
	match: allocatingTwin,
}, {
	id:    "EXCHANGE-NO-EMIT",
	why:   "the link exchange hands its frames to no emit callback",
	files: []string{"internal/phy/link.go"},
	match: defines(`^emit$`, isFunc),
}, {
	id:    "COUNT-ONE-OWNER",
	why:   "a MAC endpoint's aggregate Stats are the sum of its VC counters: no endpoint twin of a VC counter, no syncGauges",
	files: []string{"internal/mac/"},
	match: anyOf(endpointTwinCounter, ident(`^syncGauges$`)),
}, {
	id:    "METRIC-ONE-INDEX",
	why:   "the telemetry registry keeps one metric index, not a counters, gauges or hists map",
	files: []string{"internal/telemetry/"},
	match: defines(`^(counters|gauges|hists)$`, isMap),
}, {
	id:    "SOAK-ROW-TABLE",
	why:   "the soak series are a row table over the Result, not a soakMetrics type",
	files: []string{"internal/faultinject/"}, tests: true,
	match: typeDecl(`^soakMetrics$`),
}, {
	id:    "NO-CONTAINER-HEAP",
	why:   "there is one door into the fleet and no queue beside it: no code outside tests imports container/heap",
	files: srcDirs,
	match: imports("container/heap"),
}, {
	id:    "FLEET-ONE-DOOR",
	why:   "fleetd's HTTP routes apply an Op through Fleet.Apply, never Create, Degrade, Renegotiate or Retire",
	files: []string{"internal/fleetd/api.go"},
	match: anyOf(refers("mosaic/internal/fleetd.Fleet.Create", "mosaic/internal/fleetd.Fleet.Degrade",
		"mosaic/internal/fleetd.Fleet.Renegotiate", "mosaic/internal/fleetd.Fleet.Retire"),
		spelled(`^s\.fleet\.(Create|Degrade|Renegotiate|Retire)$`)),
}, {
	id: "NETSIM-NO-FMA",
	why: "the flow engine's digests hold on every GOARCH: round each product with float64(...) so arm64 fuses no multiply into an add; " +
		"invariants.go's two tolerance bounds reach no digest",
	files: []string{"internal/netsim/"}, skip: []string{"internal/netsim/invariants.go"},
	arm64: regexp.MustCompile(`\bF(N)?M(ADD|SUB)[SD]\b`),
}}

// fmtOnAppendPath matches a function of internal/eventlog's append path
// whose body refers to package fmt.
func fmtOnAppendPath(info *types.Info, n ast.Node) bool {
	fd, ok := n.(*ast.FuncDecl)
	if !ok || info == nil || fd.Body == nil || !matchKey(objectKey(info.Defs[fd.Name]), []string{
		"mosaic/internal/eventlog.Entry.*", "mosaic/internal/eventlog.Log.Add", "mosaic/internal/eventlog.Log.AppendEach",
		"mosaic/internal/eventlog.skip",
	}) {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				found = true
			}
		}
		return !found
	})
	return found
}

// anyOf matches what any of ms matches.
func anyOf(ms ...check) check {
	return func(info *types.Info, n ast.Node) bool {
		for _, m := range ms {
			if m(info, n) {
				return true
			}
		}
		return false
	}
}

// goStmt matches a go statement of any shape.
func goStmt(_ *types.Info, n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok }

// ident matches an identifier whose name matches re.
func ident(re string) check {
	rx := regexp.MustCompile(re)
	return func(_ *types.Info, n ast.Node) bool { id, ok := n.(*ast.Ident); return ok && rx.MatchString(id.Name) }
}

// calls matches a call of a function or method whose name matches re.
func calls(re string) check {
	rx := regexp.MustCompile(re)
	return func(_ *types.Info, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && rx.MatchString(callName(call))
	}
}

// callName is the name a call is spelled with: f for f(...) and x.f(...).
func callName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// imports matches an import of one of paths.
func imports(paths ...string) check {
	return func(_ *types.Info, n ast.Node) bool {
		im, ok := n.(*ast.ImportSpec)
		if !ok {
			return false
		}
		p, _ := strconv.Unquote(im.Path.Value)
		return slices.Contains(paths, p)
	}
}

// typeDecl matches the declaration of a type whose name matches re.
func typeDecl(re string) check {
	rx := regexp.MustCompile(re)
	return func(_ *types.Info, n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		return ok && rx.MatchString(ts.Name.Name)
	}
}

// stringLit matches a string literal whose value matches re.
func stringLit(re string) check {
	rx := regexp.MustCompile(re)
	return func(_ *types.Info, n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return false
		}
		v, err := strconv.Unquote(lit.Value)
		return err == nil && rx.MatchString(v)
	}
}

// refers matches an identifier that resolves to an object named by one
// of keys: "path.Name" or "path.Type.Method", or, ending in *, any such
// name with that prefix. A "path.Name" key also matches the selector
// spelled with the package's own name (sync.WaitGroup), resolved or not,
// so a file without types is read too.
func refers(keys ...string) check {
	var spelledAs []string
	for _, key := range keys {
		if pkg, name, ok := strings.Cut(path.Base(key), "."); ok && !strings.Contains(name, ".") {
			spelledAs = append(spelledAs, pkg+"."+name)
		}
	}
	return func(info *types.Info, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			return info != nil && matchKey(objectKey(info.Uses[n]), keys)
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			return ok && matchKey(x.Name+"."+n.Sel.Name, spelledAs)
		}
		return false
	}
}

// matchKey reports whether k is one of keys, or has the prefix of a key
// ending in *.
func matchKey(k string, keys []string) bool {
	return k != "" && slices.ContainsFunc(keys, func(key string) bool {
		prefix, wild := strings.CutSuffix(key, "*")
		return k == key || wild && strings.HasPrefix(k, prefix)
	})
}

// spelled matches a selector expression, called or not, whose source
// spelling matches re, whatever its operand's type.
func spelled(re string) check {
	rx := regexp.MustCompile(re)
	return func(_ *types.Info, n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		return ok && rx.MatchString(types.ExprString(sel))
	}
}

// objectKey names o as refers does.
func objectKey(o types.Object) string {
	if o == nil || o.Pkg() == nil {
		return ""
	}
	if fn, ok := o.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return o.Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
			}
		}
	}
	return o.Pkg().Path() + "." + o.Name()
}

// defines matches the declaration of a variable, parameter or field whose
// name matches re and whose type satisfies typ.
func defines(re string, typ func(types.Type) bool) check {
	rx := regexp.MustCompile(re)
	return func(info *types.Info, n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info == nil || !rx.MatchString(id.Name) {
			return false
		}
		v, ok := info.Defs[id].(*types.Var)
		return ok && typ(v.Type())
	}
}

func isMap(t types.Type) bool   { _, ok := t.Underlying().(*types.Map); return ok }
func isFunc(t types.Type) bool  { _, ok := t.Underlying().(*types.Signature); return ok }
func isSlice(t types.Type) bool { _, ok := t.Underlying().(*types.Slice); return ok }

// isBytes reports whether t is a byte slice.
func isBytes(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isByteSlices reports whether t is a slice of byte slices.
func isByteSlices(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isBytes(s.Elem())
}

// makesBytes matches a make call or composite literal that builds a byte
// slice.
func makesBytes(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		if callName(n) != "make" {
			return false
		}
	case *ast.CompositeLit:
	default:
		return false
	}
	if info == nil {
		return false
	}
	t := info.TypeOf(n.(ast.Expr))
	return t != nil && isBytes(t)
}

// hookClosure matches a SetTransitionHook call handed a function literal.
func hookClosure(_ *types.Info, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || callName(call) != "SetTransitionHook" || len(call.Args) == 0 {
		return false
	}
	_, lit := call.Args[0].(*ast.FuncLit)
	return lit
}

// deltaAdd matches x.Add(...) with an argument that is a difference.
func deltaAdd(_ *types.Info, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Add" {
		return false
	}
	return slices.ContainsFunc(call.Args, subtracts)
}

// subtracts reports a subtraction among the operands of an arithmetic
// expression, not inside a call or conversion.
func subtracts(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return subtracts(e.X)
	case *ast.BinaryExpr:
		return e.Op == token.SUB || subtracts(e.X) || subtracts(e.Y)
	}
	return false
}

// mapIntToPointer matches the type map[int]*T.
func mapIntToPointer(_ *types.Info, n ast.Node) bool {
	m, ok := n.(*ast.MapType)
	if !ok {
		return false
	}
	key, ok := m.Key.(*ast.Ident)
	_, ptr := m.Value.(*ast.StarExpr)
	return ok && key.Name == "int" && ptr
}

// sortFuncOverFlows matches a SortFunc call whose comparator takes a
// flow, flowSlot or handle, or a pointer to one.
func sortFuncOverFlows(_ *types.Info, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || callName(call) != "SortFunc" {
		return false
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok || len(lit.Type.Params.List) == 0 {
			continue
		}
		t := lit.Type.Params.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok && (id.Name == "flow" || id.Name == "flowSlot" || id.Name == "handle") {
			return true
		}
	}
	return false
}

// lenOfLinks matches len(x.Links).
func lenOfLinks(_ *types.Info, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || callName(call) != "len" || len(call.Args) != 1 {
		return false
	}
	sel, ok := call.Args[0].(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Links"
}

// rangeOverCross matches a range over x.cross.v.
func rangeOverCross(_ *types.Info, n ast.Node) bool {
	r, ok := n.(*ast.RangeStmt)
	if !ok {
		return false
	}
	v, ok := r.X.(*ast.SelectorExpr)
	if !ok || v.Sel.Name != "v" {
		return false
	}
	cross, ok := v.X.(*ast.SelectorExpr)
	return ok && cross.Sel.Name == "cross"
}

// spinLoop matches a for loop whose header — init, condition, post or
// range expression — calls a Load or CompareAndSwap method.
func spinLoop(_ *types.Info, n ast.Node) bool {
	var head []ast.Node
	switch n := n.(type) {
	case *ast.ForStmt:
		for _, h := range []ast.Node{n.Init, n.Cond, n.Post} {
			if h != nil {
				head = append(head, h)
			}
		}
	case *ast.RangeStmt:
		head = []ast.Node{n.X}
	}
	spins := false
	for _, h := range head {
		ast.Inspect(h, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Load" || sel.Sel.Name == "CompareAndSwap") {
					spins = true
				}
			}
			return !spins
		})
	}
	return spins
}

// allocatingTwin matches the declaration of a twin of a link-stack
// operation: a func DecodeStream, SnapshotInto or NewEndpointVC, a method
// Send or Transmit, and an FEC Encode(plain …) or Decode(encoded …) —
// declared, named in an interface or struct, or called bare.
func allocatingTwin(_ *types.Info, n ast.Node) bool {
	fecTwin := func(name, first string) bool {
		return name == "Encode" && first == "plain" || name == "Decode" && first == "encoded"
	}
	firstParam := func(ft *ast.FuncType) string {
		if ft.Params == nil || len(ft.Params.List) == 0 || len(ft.Params.List[0].Names) == 0 {
			return ""
		}
		return ft.Params.List[0].Names[0].Name
	}
	switch n := n.(type) {
	case *ast.FuncDecl:
		switch name := n.Name.Name; name {
		case "DecodeStream", "SnapshotInto", "NewEndpointVC":
			return true
		case "Send", "Transmit":
			return n.Recv != nil
		default:
			return fecTwin(name, firstParam(n.Type))
		}
	case *ast.Field:
		ft, ok := n.Type.(*ast.FuncType)
		return ok && len(n.Names) == 1 && fecTwin(n.Names[0].Name, firstParam(ft))
	case *ast.CallExpr:
		if len(n.Args) > 0 {
			arg, ok := n.Args[0].(*ast.Ident)
			return ok && fecTwin(callName(n), arg.Name)
		}
	}
	return false
}

// vcCounters are the counters a MAC VC owns and its endpoint's Stats sum.
var vcCounters = map[string]bool{
	"PacketsQueued": true, "DataTx": true, "Retransmits": true, "Delivered": true, "Duplicates": true,
	"Discarded": true, "Reordered": true, "CreditStalls": true, "Timeouts": true,
}

// endpointTwinCounter matches x.stats.C for a VC counter C where x is a
// mac.Endpoint, or is spelled e as the endpoint's methods name it.
func endpointTwinCounter(info *types.Info, n ast.Node) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || !vcCounters[sel.Sel.Name] {
		return false
	}
	stats, ok := sel.X.(*ast.SelectorExpr)
	if !ok || stats.Sel.Name != "stats" {
		return false
	}
	if x, ok := stats.X.(*ast.Ident); ok && x.Name == "e" {
		return true
	}
	if info == nil {
		return false
	}
	t := info.TypeOf(stats.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && objectKey(named.Obj()) == "mosaic/internal/mac.Endpoint"
}

// reads reports whether the rule reads the file at slash path rel.
func (r *rule) reads(rel string, test bool) bool {
	return (r.tests || !test) && hasPrefix(rel, r.files) && !hasPrefix(rel, r.skip)
}

func hasPrefix(s string, prefixes []string) bool {
	return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(s, p) })
}

// ruleFindings runs the syntax rules over every Go file under l's root:
// the files l type-checked with their types, every other one (tests,
// testdata) by syntax alone. It returns the violations and the stale
// allowances, in rule order.
func ruleFindings(l *auditLoader, rules []rule) ([]string, error) {
	typed := map[string]*ast.File{}
	for _, files := range l.files {
		for _, f := range files {
			typed[l.fset.File(f.Pos()).Name()] = f
		}
	}
	hits := make([]map[string][]int, len(rules)) // rule -> file -> lines with a hit, ascending
	for i := range hits {
		hits[i] = map[string][]int{}
	}
	err := filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		test := strings.HasSuffix(p, "_test.go")
		var rs []int
		for i := range rules {
			if rules[i].match != nil && rules[i].reads(rel, test) {
				rs = append(rs, i)
			}
		}
		if len(rs) == 0 {
			return nil
		}
		f, info := typed[p], l.info
		if f == nil {
			if !test && !slices.ContainsFunc(strings.Split(rel, "/")[:strings.Count(rel, "/")], auditSkipsDir) {
				return fmt.Errorf("audit: %s is outside the host build, so the rules cannot type-check it", rel)
			}
			if f, err = parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution); err != nil {
				return err
			}
			info = nil
		}
		visit := func(decl string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				for _, i := range rs {
					if (rules[i].decl == "" || rules[i].decl == decl) && n != nil && rules[i].match(info, n) {
						line := l.fset.Position(n.Pos()).Line
						if lines := hits[i][rel]; len(lines) == 0 || lines[len(lines)-1] != line {
							hits[i][rel] = append(lines, line)
						}
					}
				}
				return true
			})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					name = recvName(d.Recv.List[0].Type) + "." + name
				}
				visit(name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					name := ""
					if ts, ok := s.(*ast.TypeSpec); ok {
						name = ts.Name.Name
					}
					visit(name, s)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []string
	for i, r := range rules {
		type key struct{ file, line string }
		allowed, used := map[key]int{}, map[key][]string{}
		for _, a := range r.allow {
			allowed[key{a.file, a.line}]++
		}
		files := make([]string, 0, len(hits[i]))
		for file := range hits[i] {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			src, err := os.ReadFile(filepath.Join(l.root, filepath.FromSlash(file)))
			if err != nil {
				return nil, err
			}
			text := strings.Split(string(src), "\n")
			for _, line := range hits[i][file] {
				pos := fmt.Sprintf("%s:%d", file, line)
				if k := (key{file, strings.TrimSpace(text[line-1])}); allowed[k] > 0 {
					used[k] = append(used[k], pos)
					continue
				}
				out = append(out, fmt.Sprintf("%s %s: %s", r.id, pos, r.why))
			}
		}
		for _, a := range r.allow {
			k := key{a.file, a.line}
			n, got := allowed[k], len(used[k])
			switch {
			case got < n:
				out = append(out, fmt.Sprintf("%s %s: stale allowance %q: %d such lines, it allows %d (%s)", r.id, a.file, a.line, got, n, a.why))
			case got > n:
				for _, pos := range used[k] {
					out = append(out, fmt.Sprintf("%s %s: %s (%d such lines, the allowance is %d: %s)", r.id, pos, r.why, got, n, a.why))
				}
			}
			delete(allowed, k) // one verdict per line, however many allowances name it
		}
	}
	return out, nil
}

// asmPos is the source position the -S listing gives an instruction.
var asmPos = regexp.MustCompile(`\(([^()]+\.go):(\d+)\)`)

// arm64Findings compiles, for arm64 with -S, the package of each rule
// that names arm64 instructions and reports each source line that emits
// one. A compile that lists no function of the package is itself a
// finding, so a failed build cannot pass.
func arm64Findings(root string, rules []rule) []string {
	module, err := modulePath(root)
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	for _, r := range rules {
		if r.arm64 == nil {
			continue
		}
		dir := strings.TrimSuffix(r.files[0], "/")
		cmd := exec.Command("go", "build", "-trimpath", "-gcflags=-S", "./"+dir) // module-relative positions, cacheable anywhere
		cmd.Dir, cmd.Env = root, append(os.Environ(), "GOARCH=arm64")
		asm, err := cmd.CombinedOutput()
		listed := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(module+"/"+dir) + `\..* STEXT`)
		if err != nil || !listed.Match(asm) {
			out = append(out, fmt.Sprintf("%s %s: the arm64 -S compile printed no assembly (%v): %.400s", r.id, dir, err, asm))
			continue
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(string(asm), "\n") {
			if !r.arm64.MatchString(line) {
				continue
			}
			pos := strings.TrimSpace(line)
			if m := asmPos.FindStringSubmatch(line); m != nil {
				file := strings.TrimPrefix(m[1], module+"/")
				if hasPrefix(file, r.skip) {
					continue
				}
				pos = file + ":" + m[2]
			}
			if !seen[pos] {
				seen[pos] = true
				out = append(out, fmt.Sprintf("%s %s: %s", r.id, pos, r.why))
			}
		}
	}
	return out
}

// TestTypedAuditRulesCatchPlanted is the rules' own negative case: a
// planted module where every rule fires on the lines marked `// want ID`
// and on no other, the allowances hold exactly (a second allowed line
// fires, a missing one is stale), and the clean variant beside each
// violation passes — the four text-match holes the rules close among
// them: go h[0](), go (f)(), a sync.WaitGroup under an aliased import,
// and a sha256.New() digest outside internal/eventlog.
func TestTypedAuditRulesCatchPlanted(t *testing.T) {
	want := map[string]bool{}
	files := map[string]string{}
	for name, src := range plantedRuleTree {
		lines := strings.Split(src, "\n")
		for i, line := range lines {
			code, ids, ok := strings.Cut(line, " // want ")
			if !ok {
				continue
			}
			for _, id := range strings.Fields(ids) {
				want[fmt.Sprintf("%s %s:%d", id, name, i+1)] = true
			}
			lines[i] = code
		}
		files[name] = strings.Join(lines, "\n")
	}
	want["DELTA-IN-MIRROR internal/telemetry/mirror.go"] = true // its allowed line is missing
	root := plantTree(t, files)
	asm := make(chan []string, 1)
	go func() { asm <- arm64Findings(root, auditRules) }()
	l, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := ruleFindings(l, auditRules)
	if err != nil {
		t.Fatal(err)
	}
	findings = append(findings, <-asm...)
	got, fired := map[string]bool{}, map[string]bool{}
	for _, f := range findings {
		at, _, _ := strings.Cut(f, ": ")
		got[at] = true
		fired[strings.Fields(at)[0]] = true
		if !want[at] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for at := range want {
		if !got[at] {
			t.Errorf("missing finding: %s", at)
		}
	}

	ids := map[string]bool{}
	for _, r := range auditRules {
		if ids[r.id] || r.why == "" || len(r.files) == 0 || (r.match == nil) == (r.arm64 == nil) {
			t.Errorf("rule %q: want a unique ID, a why, files, and one check", r.id)
		}
		ids[r.id] = true
		if !fired[r.id] {
			t.Errorf("rule %s fires on nothing in the planted module", r.id)
		}
		for _, a := range r.allow {
			if a.why == "" {
				t.Errorf("rule %s: allowance %s %q carries no reason", r.id, a.file, a.line)
			}
		}
	}

	// The guard: a compile that fails lists no assembly and cannot pass.
	broken := plantTree(t, map[string]string{
		"go.mod":                 "module mosaic\n\ngo 1.22\n",
		"internal/netsim/bad.go": "package netsim\n\nfunc f() int { return \"\" }\n",
	})
	if f := arm64Findings(broken, auditRules); len(f) != 1 || !strings.Contains(f[0], "printed no assembly") {
		t.Errorf("a failed arm64 compile gave %q, want one printed-no-assembly finding", f)
	}
}

// plantedRuleTree is a module shaped like this one, where each rule's
// violations are marked `// want ID` and each clean variant is not.
var plantedRuleTree = map[string]string{
	"go.mod": "module mosaic\n\ngo 1.22\n",
	"internal/par/par.go": `package par

import (
	"runtime"
	s "sync"
	"sync/atomic"
)

// Run holds clean variants: internal/par owns goroutines and waiting.
func Run(h []func(), f func(), n *atomic.Int64) {
	var wg s.WaitGroup
	go h[0]()
	go (f)()
	for n.Load() > 0 {
		runtime.Gosched()
	}
	wg.Wait()
}
`,
	"internal/eventlog/eventlog.go": `package eventlog

import (
	"crypto/sha256"
	"fmt"
)

// Digest is the clean variant of the sha256.New() hole.
func Digest(b []byte) []byte {
	h := sha256.New()
	h.Write(b)
	return h.Sum(nil)
}

type Arg int

var Int, Rec Arg

type Kind struct{ format string }

func NewKind(format string, args ...Arg) *Kind { return &Kind{format} }

type Log struct{ buf []byte }

type Entry struct{ l *Log }

func (l *Log) Add(k *Kind) Entry {
	l.buf = append(l.buf, k.format...)
	return Entry{l}
}

func (e Entry) Int(v int) Entry { // want EVENTLOG-RECORDS
	e.l.buf = fmt.Appendf(e.l.buf, "%d", v)
	return e
}

// render is the clean variant: the renderer may format.
func render(b []byte, v int) []byte { return fmt.Appendf(b, "%d", v) }
`,
	"internal/mac/session.go": `package mac

type eventLog struct{}

func (eventLog) Addf(format string, args ...any) {} // want EVENTLOG-RECORDS

func (l eventLog) retx(sf int) {
	l.Addf("sf=%d retx", sf) // want EVENTLOG-RECORDS
}
`,
	"internal/experiments/e23.go": `package experiments

import (
	"crypto/sha256"
	"strings"
)

func stallSHA(sb *strings.Builder) [32]byte {
	h := sha256.Sum256([]byte(sb.String()))
	return h
}
`,
	"internal/telemetry/httpx/httpx.go": `package httpx

import (
	"net"
	"net/http"
)

func Serve(srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return <-errc
}
`,
	"cmd/mosaicfleetd/main.go": `package main

func main() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	<-done
}
`,
	"cmd/linksoak/main.go": `package main

func main() {
	done := make(chan struct{})
	go func() { // want GO-IN-PAR
		close(done)
	}()
	go func() { // want GO-IN-PAR
		<-done
	}()
}
`,
	"internal/phy/monitor.go": `package phy

type ChannelState int

type Monitor struct{ hook func(physical int, from, to ChannelState) }

func (m *Monitor) SetTransitionHook(fn func(physical int, from, to ChannelState)) { m.hook = fn }

func (m *Monitor) FailedChannels() []int { return nil }
`,
	"internal/phy/link.go": `package phy

import lc "mosaic/internal/coding/linecode"

type linkScratch struct{}

type Link struct {
	mon     Monitor
	scratch *linkScratch // want LINK-NO-SCRATCH
}

func (l *Link) Monitor() *Monitor { return &l.mon }

func (l *Link) exchange(emit func(frame []byte)) { // want EXCHANGE-NO-EMIT
	emit(nil)
}

func (l *Link) DecodeStream(b []byte) []lc.Block { // want ONE-FACE PHY-BYTE-STREAM
	return nil
}

func DecodeBlock(b []byte) {} // want PHY-BYTE-STREAM

type fec interface {
	Encode(plain []byte) []byte // want ONE-FACE
	Decode(in []byte) []byte
}
`,
	"internal/coding/linecode/linecode.go": "package linecode\n\ntype Block struct{}\n",
	"internal/coding/rs/rs.go":             "package rs\n\nvar contrib [][]byte // want RS-SLICED-TABLES\n",
	"internal/mac/mac.go": `package mac

type Stats struct{ DataTx, FramesTx, Timeouts int }

type Endpoint struct {
	stats Stats
	order []int
	tx    []byte
}

type VC struct{ stats Stats }

type Pair struct {
	ExchangeBuf []byte   // want PAIR-NO-ARENA
	chunks      [][]byte // want PAIR-NO-ARENA
	frameLen    int
}

// tickArena holds the clean variant: chunk headers outside Pair.
type tickArena struct{ chunks [][]byte }

func NewEndpoint(budget int) *Endpoint {
	e := &Endpoint{order: make([]int, budget)}
	e.tx = make([]byte, 0, budget) // want ENDPOINT-NO-TXBUF
	e.tx = []byte{0}               // want ENDPOINT-NO-TXBUF
	return e
}

// BuildSuperframe holds the clean variant: a buffer grown on first use.
func (e *Endpoint) BuildSuperframe() []byte {
	if e.tx == nil {
		e.tx = make([]byte, 0, len(e.order))
	}
	return e.tx
}

func (e *Endpoint) Send(p []byte) { // want ONE-FACE
	e.stats.DataTx++ // want COUNT-ONE-OWNER
	e.stats.FramesTx++
}

func bump(ep *Endpoint) { ep.stats.Timeouts++ } // want COUNT-ONE-OWNER

func (v *VC) send() { v.stats.DataTx++ }

func syncGauges() {} // want COUNT-ONE-OWNER
`,
	"internal/mac/mac_test.go": "package mac\n\ntype CapacitySink interface{} // want CAPACITY-BY-FRACTION\n",
	"internal/sim/sim.go":      "package sim\n\ntype Time float64\n\ntype Engine struct{} // want SIM-CLOCK-ONLY\n",
	"internal/sim/sim_test.go": "package sim\n\ntype Canceler func() // want SIM-CLOCK-ONLY\n",
	"internal/telemetry/telemetry.go": `package telemetry

type MACCollector struct{} // want TELEMETRY-NO-MAC-FLEET

type Registry struct {
	counters map[string]int // want METRIC-ONE-INDEX
	index    map[string]int
}

const frames = "mosaic_mac_frames_total" // want TELEMETRY-NO-MAC-FLEET
`,
	"internal/telemetry/mirror.go": `package telemetry

type counter struct{ v float64 }

func (c *counter) Add(d float64) { c.v += d }

func mirror(c *counter, now float64) { c.Add(now) }
`,
	"internal/faultinject/supervisor.go": `package faultinject

import (
	"mosaic/internal/eventlog"
	"mosaic/internal/phy"
)

var recRemap = eventlog.NewKind("sf=%d remap %v", eventlog.Int, eventlog.Rec)

type Supervisor struct {
	log *eventlog.Log
	sf  int
}

func (s *Supervisor) attach(link *phy.Link) {
	link.Monitor().SetTransitionHook(func(physical int, from, to phy.ChannelState) {
	})
}

func (s *Supervisor) remap() {
	s.log.Add(recRemap).Int(s.sf)
}
`,
	"internal/faultinject/soak_test.go": "package faultinject\n\ntype soakMetrics struct{} // want SOAK-ROW-TABLE\n",
	"internal/fleetd/link.go": `package fleetd

import "mosaic/internal/sim" // want FLEETD-LINK-NO-SIM

var epoch sim.Time
`,
	"internal/fleetd/fleet.go": `package fleetd

type Fleet struct{}

func (f *Fleet) Create(n int) ([]int, error) { return nil, nil }

func (f *Fleet) Apply(op string) ([]int, error) { return nil, nil }
`,
	"internal/scenario/source.go": `package scenario

import "math/rand"

type goSource struct{ rand.Source64 }

func newGoSource(seed int64) *goSource {
	ref := rand.NewSource(seed).(rand.Source64)
	return &goSource{ref}
}
`,
	"internal/scenario/workload.go": `package scenario

import r "math/rand"

func draw(src *goSource, hosts int) (int, float64, uint64) {
	shadow := r.New(r.NewSource(1)) // want SCENARIO-PINNED-DRAWS
	rng := r.New(src)
	j := rng.Intn(hosts) + shadow.Perm(hosts)[0] // want SCENARIO-PINNED-DRAWS
	f := rng.Float64()                           // want SCENARIO-PINNED-DRAWS
	return j, f, rng.Uint64()
}
`,
	"internal/fleetd/api.go": `package fleetd

type server struct{ fleet *Fleet }

func (s *server) create() {
	f := s.fleet
	_, _ = f.Create(1) // want FLEET-ONE-DOOR
	_, _ = s.fleet.Apply("create")
}
`,
	"internal/netsim/workload/workload.go": `package workload

import "math/rand"

type PoissonArrivals struct{ Rate float64 }

func (p PoissonArrivals) NextGapSec(rng *rand.Rand) float64 { return rng.ExpFloat64() / p.Rate }
`,
	"internal/netsim/netsim.go": `package netsim

import (
	"container/heap" // want NETSIM-NO-QUEUE NO-CONTAINER-HEAP
	"math/rand"
	"slices"

	"mosaic/internal/netsim/workload"
)

type flow struct{ id int }

type incFlow struct{} // want NETSIM-SLAB-HANDLES

type flowHeap []int // want NETSIM-NO-QUEUE

var compFlows []int // want NETSIM-NO-COMPLETION-LIST

var byID map[int]*flow // want NETSIM-SLAB-HANDLES

var ver int // want NETSIM-NO-QUEUE

var _ heap.Interface

func sortFlows(fs []*flow) {
	slices.SortFunc(fs, func(a, b *flow) int { return a.id - b.id }) // want NETSIM-SLAB-HANDLES
	slices.SortFunc(fs, func(x, y *flow) int { return x.id - y.id }) // want NETSIM-SLAB-HANDLES
}

func gap(rng *rand.Rand) float64 { return workload.PoissonArrivals{Rate: 1}.NextGapSec(rng) }

func Fused(a, b, c float64) float64 { return a*b + c } // want NETSIM-NO-FMA

func Rounded(a, b, c float64) float64 { return float64(a*b) + c }
`,
	"internal/netsim/invariants.go": `package netsim

func Within(a, b, c float64) bool { return a*b+c > 0 }
`,
	"internal/netsim/topology.go": `package netsim

func route(up []int) []int {
	var out []int // want TOPOLOGY-UPLINKS-ONCE
	return append(out, up...)
}
`,
	"internal/netsim/incremental.go": `package netsim

import "slices"

type Topology struct{ Links []int }

type flowGraph struct{ cap []float64 }

func newFlowGraph(t *Topology) *flowGraph { // want FLOWGRAPH-OWN-RANGE
	return &flowGraph{cap: make([]float64, len(t.Links))} // want FLOWGRAPH-OWN-RANGE
}

func (g *flowGraph) flush(keys, ids []int) {
	slices.Sort(keys)
	slices.SortFunc(ids, func(a, b int) int { return a - b }) // want FLUSH-SORTS-ONCE
}
`,
	"internal/netsim/shard.go": `package netsim

type crossList struct{ v []int }

type FleetSim struct{ cross crossList }

func (fs *FleetSim) admit(id int)   {}
func (fs *FleetSim) addFlow(id int) {}

func (fs *FleetSim) Inject(id int) {
	fs.admit(id) // want INJECT-NO-ADMIT
}

func (fs *FleetSim) Step() {
	for range fs.cross.v { // want STEP-KEEPS-CROSS
	}
	fs.addFlow(0)
}
`,
	"cmd/x/main.go": `package main

import (
	"crypto/sha256"
	"math/rand"
	rt "runtime"
	s "sync"
	"sync/atomic"
	"time"

	"mosaic/internal/netsim/workload"
	"mosaic/internal/phy"
	"mosaic/internal/sim"
)

type counter struct{ v int }

func (c *counter) Add(d int) { c.v += d }

type flowSim struct{}

func (flowSim) Schedule(at float64) {}

func (flowSim) BeginBatch() {} // want NO-SCHEDULER

func main() {
	h := []func(){func() {}}
	f := func() {}
	go h[0]()          // want GO-IN-PAR
	go (f)()           // want GO-IN-PAR
	var wg s.WaitGroup // want WAITGROUP-IN-PAR
	var mu s.Mutex
	mu.Lock()
	wg.Wait()
	mu.Unlock()
	_ = sha256.New() // want SHA256-IN-EVENTLOG

	var l phy.Link
	_ = l.Monitor().FailedChannels() // want SPARING-IN-SUPERVISOR
	handledSpares := map[int]bool{}  // want SPARING-IN-SUPERVISOR
	_ = handledSpares
	l.Monitor().SetTransitionHook(func(physical int, from, to phy.ChannelState) {}) // want HOOK-IN-SUPERVISOR
	l.Monitor().SetTransitionHook(nil)
	_ = "sf=%d remap %v" // want REMAP-IN-SUPERVISOR

	var e sim.Engine // want NO-SCHEDULER
	_ = e
	var fs flowSim
	fs.Schedule(1)  // want NO-SCHEDULER
	<-time.After(0) // want NO-SCHEDULER

	var c counter
	now, prev := 3, 1
	c.Add(now - prev) // want DELTA-IN-MIRROR
	c.Add(^(now - prev))

	rng := rand.New(rand.NewSource(1))
	_ = workload.PoissonArrivals{Rate: 1}.NextGapSec(rng) // want POISSON-IN-NETSIM

	rt.Gosched() // want WAIT-IN-PAR
	var n atomic.Int64
	for n.Load() > 0 { // want WAIT-IN-PAR
	}
}
`,
}
