package lint

// facts.go is the shared call-summary layer of the crewlint suite: a
// go/analysis fact engine that computes, for every function in a package, a
// conservative summary of the behaviors the other analyzers care about —
// may it block, may it allocate, which mutex classes does it acquire, does
// it (or anything it calls) put a message on the transport — and exports
// the summaries as object facts so they propagate across package
// boundaries through the vet driver's .vetx files.
//
// The summaries turn the previously syntactic, intraprocedural analyzers
// into interprocedural ones: locksend no longer needs a hand-maintained
// table of blocking entry points (a function that transitively reaches a
// channel receive is blocking wherever it is called from), chargedsend
// follows transport.Message parameters through wrapper functions, and the
// new lockorder/hotalloc analyzers are built on the same propagation.
//
// Propagation rules:
//
//   - Within a package, summaries are a fixed point over the static call
//     graph (go/types resolution; calls through function values stay
//     unknown and contribute nothing).
//   - Across packages, summaries are read back as facts: a call to an
//     imported function merges that function's exported FuncFacts.
//   - Interface dispatch resolves to the interface method object itself
//     (e.g. transport.Link.Deliver), which carries facts seeded in its
//     declaring package — either from the transport entry-point table
//     below or from a //crew:blocks or //crew:allocs annotation on the
//     method's declaration.
//   - Calls inside `go` statements contribute nothing to the caller's
//     summary (the spawned goroutine blocks, allocates and locks on its
//     own stack); the `go` statement itself is an allocation site.
//   - Allocation sites silenced with //crew:allow hotalloc <reason> do not
//     contribute to the Allocs bit, so a deliberate cold-path allocation
//     (an error return, a once-per-lifetime growth) does not poison every
//     hot-path caller.

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// FuncFacts is the exported per-function call summary.
type FuncFacts struct {
	// Blocks reports that calling the function may park the goroutine
	// indefinitely: a channel operation, a select without default, a known
	// blocking root (time.Sleep, WaitGroup.Wait), an annotated primitive,
	// or a transitive call to any of those.
	Blocks bool
	// Allocs reports that the function may allocate on a steady-state
	// call: fmt/errors/json/reflect use, interface boxing, a capturing
	// closure, make/new, map iteration, or a transitive call to a function
	// that does. Sites silenced with //crew:allow hotalloc are excluded.
	Allocs bool
	// SendsRaw reports that the function (transitively) performs a raw
	// wire delivery below the transport's charging front half
	// (Link.Deliver): traffic entering it is never counted.
	SendsRaw bool
	// BypassBatch reports a physical-envelope send entry point whose call
	// sites bypass the Batcher that charges logical messages
	// (Handle.SendBatch).
	BypassBatch bool
	// SendsParam, when non-zero, is the 1-based index of a
	// transport.Message parameter that the function forwards into a
	// charged send entry point without setting its Mechanism: callers must
	// charge the message they pass (chargedsend checks them).
	SendsParam int8
	// Locks lists the mutex classes (package.Type.field) the function may
	// acquire, directly or transitively. lockorder uses it to extend
	// acquisition edges through calls made while a lock is held.
	Locks []string
}

// AFact marks FuncFacts as a go/analysis fact.
func (*FuncFacts) AFact() {}

func (f *FuncFacts) String() string {
	var parts []string
	if f.Blocks {
		parts = append(parts, "blocks")
	}
	if f.Allocs {
		parts = append(parts, "allocs")
	}
	if f.SendsRaw {
		parts = append(parts, "sendsraw")
	}
	if f.BypassBatch {
		parts = append(parts, "bypassbatch")
	}
	if f.SendsParam != 0 {
		parts = append(parts, "sendsparam="+string(rune('0'+f.SendsParam)))
	}
	if len(f.Locks) > 0 {
		parts = append(parts, "locks("+strings.Join(f.Locks, ",")+")")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

func (f *FuncFacts) empty() bool {
	return !f.Blocks && !f.Allocs && !f.SendsRaw && !f.BypassBatch &&
		f.SendsParam == 0 && len(f.Locks) == 0
}

// merge folds a callee's summary into the caller's, for a call made on the
// caller's goroutine. SendsParam and BypassBatch deliberately do not
// propagate: they describe the callee's signature contract, not a
// behavior the caller inherits.
func (f *FuncFacts) merge(c FuncFacts) bool {
	changed := false
	if c.Blocks && !f.Blocks {
		f.Blocks, changed = true, true
	}
	if c.Allocs && !f.Allocs {
		f.Allocs, changed = true, true
	}
	if c.SendsRaw && !f.SendsRaw {
		f.SendsRaw, changed = true, true
	}
	for _, l := range c.Locks {
		if !containsString(f.Locks, l) {
			f.Locks = append(f.Locks, l)
			changed = true
		}
	}
	return changed
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// SummaryIndex is the Summaries analyzer's per-package result: a lookup
// from any *types.Func — declared here or imported — to its summary.
type SummaryIndex struct {
	pass  *analysis.Pass
	local map[*types.Func]*FuncFacts
}

// FactsOf returns fn's summary, consulting the current package's fixed
// point first and imported facts second. A nil or unknown function has the
// zero summary.
func (ix *SummaryIndex) FactsOf(fn *types.Func) FuncFacts {
	if fn == nil {
		return FuncFacts{}
	}
	if f, ok := ix.local[fn]; ok {
		return *f
	}
	var ff FuncFacts
	if fn.Pkg() != nil && ix.pass.ImportObjectFact(fn, &ff) {
		return ff
	}
	return FuncFacts{}
}

// CalleeOf resolves the function object a call invokes: static callees
// (functions, concrete methods) and interface methods. Calls through plain
// function values and builtins resolve to nil.
func (ix *SummaryIndex) CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	return calleeFunc(info, call)
}

// calleeFunc resolves call's target including interface methods, which
// typeutil.StaticCallee deliberately excludes. The interface method object
// is exactly what carries the seeded facts for dynamic dispatch.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := typeutil.StaticCallee(info, call); fn != nil {
		return fn
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// Summaries computes and exports the per-function FuncFacts for a package.
// It reports nothing itself; the other analyzers consume its result (and
// the facts it exports) to reason across function and package boundaries.
var Summaries = &analysis.Analyzer{
	Name:       "summary",
	Doc:        "compute per-function call summaries (may-block, may-allocate, acquired locks, send behavior) as facts",
	Requires:   []*analysis.Analyzer{inspect.Analyzer},
	FactTypes:  []analysis.Fact{new(FuncFacts)},
	ResultType: reflect.TypeOf((*SummaryIndex)(nil)),
	Run:        runSummaries,
}

// blockingRoots are standard-library calls that can park the goroutine and
// cannot carry facts (their packages are outside the module).
var blockingRoots = map[methodKey]bool{
	{pkg: "sync", recv: "WaitGroup", name: "Wait"}: true,
	{pkg: "sync", recv: "Cond", name: "Wait"}:      true,
	{pkg: "time", name: "Sleep"}:                   true,
}

// allocRootPkgs are standard-library packages whose calls allocate on
// essentially every entry point that matters here.
var allocRootPkgs = map[string]bool{
	"fmt":           true,
	"errors":        true,
	"encoding/json": true,
	"reflect":       true,
}

// transportSeeds are the transport package's charged-send entry points and
// raw wire primitives, seeded when the summary pass analyzes the transport
// package itself so every other package sees them as ordinary facts. The
// Link.Deliver entry is an interface method: dynamic dispatch through any
// Wire backend resolves to it.
var transportSeeds = map[methodKey]FuncFacts{
	{pkg: transportPath, recv: "Handle", name: "Send"}:           {SendsParam: 1},
	{pkg: transportPath, recv: "Network", name: "Send"}:          {SendsParam: 1},
	{pkg: transportPath, recv: "Batcher", name: "Add"}:           {SendsParam: 2},
	{pkg: transportPath, recv: "ChildConn", name: "SendMessage"}: {SendsParam: 1},
	{pkg: transportPath, recv: "Handle", name: "SendBatch"}:      {BypassBatch: true},
	{pkg: transportPath, recv: "Link", name: "Deliver"}:          {SendsRaw: true, Blocks: true},
}

// factsAllPackages widens firstParty to every analyzed package; the
// offline test harness sets it so fixture packages (whose import paths do
// not carry the module prefix) get summaries.
var factsAllPackages = false

// firstParty reports whether the summary layer computes facts for a
// package. Only module-internal code is summarized: under the vet driver
// the suite also visits standard-library dependencies for fact
// propagation, and deriving "may block"/"may allocate" from stdlib
// internals (every os.File.Write bottoms out in a pollable syscall) would
// drown the invariants these facts exist for. Standard-library behavior
// enters the analysis only through the curated root tables
// (blockingRoots, allocRootPkgs) and explicit annotations.
func firstParty(path string) bool {
	return factsAllPackages || path == "crew" || strings.HasPrefix(path, "crew/")
}

func runSummaries(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	local := map[*types.Func]*FuncFacts{}
	if !firstParty(pass.Pkg.Path()) {
		return &SummaryIndex{pass: pass, local: local}, nil
	}
	get := func(fn *types.Func) *FuncFacts {
		f := local[fn]
		if f == nil {
			f = &FuncFacts{}
			local[fn] = f
		}
		return f
	}
	imported := func(fn *types.Func) FuncFacts {
		if f, ok := local[fn]; ok {
			return *f
		}
		var ff FuncFacts
		if fn.Pkg() != nil && pass.ImportObjectFact(fn, &ff) {
			return ff
		}
		return FuncFacts{}
	}

	// Seed the transport entry points when analyzing transport itself (or
	// its testdata stand-in, which shares the import path).
	if pass.Pkg.Path() == transportPath {
		for k, ff := range transportSeeds {
			if fn := lookupMethod(pass.Pkg, k.recv, k.name); fn != nil {
				seeded := ff
				get(fn).merge(seeded)
				if seeded.SendsParam != 0 {
					get(fn).SendsParam = seeded.SendsParam
				}
				if seeded.BypassBatch {
					get(fn).BypassBatch = true
				}
			}
		}
	}

	// Seed annotated declarations: //crew:blocks and //crew:allocs on a
	// function declaration or an interface method force the bit for
	// primitives whose behavior is invisible to the analysis (socket
	// reads, callbacks).
	seedAnnotations(pass, get)

	// Per-function direct attributes and same-package call edges. A
	// //crew:nocharge annotation at a call site stops SendsRaw taint: the
	// annotated funnel takes responsibility, so its callers stay clean.
	// Likewise //crew:allow hotalloc at a call site stops Allocs taint: the
	// annotation vouches that the edge is a cold branch, so a hot caller of
	// the enclosing function stays clean.
	noRawMemo := map[token.Pos]bool{}
	noRawAt := func(pos token.Pos) bool {
		v, ok := noRawMemo[pos]
		if !ok {
			v = exemptedQuiet(pass, pos, "chargedsend")
			noRawMemo[pos] = v
		}
		return v
	}
	allocAllowMemo := map[token.Pos]bool{}
	allocAllowAt := func(pos token.Pos) bool {
		v, ok := allocAllowMemo[pos]
		if !ok {
			v = exemptedQuiet(pass, pos, "hotalloc")
			allocAllowMemo[pos] = v
		}
		return v
	}
	type callsite struct {
		fn   *types.Func // caller
		call *ast.CallExpr
		body *ast.BlockStmt // caller body, for charge analysis
		sig  *types.Signature
	}
	type factEdge struct {
		callee *types.Func
		pos    token.Pos
	}
	edges := map[*types.Func][]factEdge{}
	var sites []callsite
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		fn, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
		if !ok {
			return
		}
		ff := get(fn)
		sig, _ := fn.Type().(*types.Signature)
		directAttrs(pass, fd.Body, ff, func(call *ast.CallExpr) {
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return
			}
			sites = append(sites, callsite{fn, call, fd.Body, sig})
			if callee.Pkg() == pass.Pkg {
				edges[fn] = append(edges[fn], factEdge{callee, call.Pos()})
			} else {
				cf := imported(callee)
				if cf.SendsRaw && noRawAt(call.Pos()) {
					cf.SendsRaw = false
				}
				if cf.Allocs && allocAllowAt(call.Pos()) {
					cf.Allocs = false
				}
				ff.merge(cf)
			}
		})
	})

	// Fixed point over the package-internal call graph.
	for changed := true; changed; {
		changed = false
		for fn, es := range edges {
			ff := get(fn)
			for _, e := range es {
				cf, ok := local[e.callee]
				if !ok {
					continue
				}
				c := *cf
				if c.SendsRaw && noRawAt(e.pos) {
					c.SendsRaw = false
				}
				if c.Allocs && allocAllowAt(e.pos) {
					c.Allocs = false
				}
				if ff.merge(c) {
					changed = true
				}
			}
		}
	}

	// SendsParam derivation: a function that forwards its own
	// transport.Message parameter into a charged-send entry point, without
	// setting the Mechanism itself, shifts the charging obligation to its
	// callers. Iterated so wrappers of wrappers resolve.
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			caller := get(s.fn)
			if caller.SendsParam != 0 {
				continue
			}
			callee := calleeFunc(pass.TypesInfo, s.call)
			if callee == nil {
				continue
			}
			cf := imported(callee)
			if cf.SendsParam == 0 || int(cf.SendsParam) > len(s.call.Args) {
				continue
			}
			arg := ast.Unparen(s.call.Args[cf.SendsParam-1])
			idx := paramIndexOf(pass, s.sig, arg)
			if idx < 0 {
				continue
			}
			if messageCharged(pass, s.body, arg) {
				continue
			}
			if noRawAt(s.call.Pos()) {
				// An annotated forwarding funnel relays pre-charged
				// traffic; its callers owe nothing.
				continue
			}
			caller.SendsParam = int8(idx + 1)
			changed = true
		}
	}

	// Export non-empty summaries.
	fns := make([]*types.Func, 0, len(local))
	for fn := range local {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		ff := local[fn]
		if ff.empty() || fn.Pkg() != pass.Pkg {
			continue
		}
		sort.Strings(ff.Locks)
		pass.ExportObjectFact(fn, ff)
	}
	return &SummaryIndex{pass: pass, local: local}, nil
}

// paramIndexOf reports which parameter of sig the expression refers to, or
// -1. Only plain identifier references count: anything rebound or copied is
// the function's own responsibility to charge.
func paramIndexOf(pass *analysis.Pass, sig *types.Signature, e ast.Expr) int {
	id, ok := e.(*ast.Ident)
	if !ok || sig == nil {
		return -1
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// lookupMethod finds a method (or interface method) recv.name, or a
// package-level function when recv is empty, in pkg's scope.
func lookupMethod(pkg *types.Package, recv, name string) *types.Func {
	if recv == "" {
		fn, _ := pkg.Scope().Lookup(name).(*types.Func)
		return fn
	}
	tn, ok := pkg.Scope().Lookup(recv).(*types.TypeName)
	if !ok {
		return nil
	}
	if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumExplicitMethods(); i++ {
			if m := iface.ExplicitMethod(i); m.Name() == name {
				return m
			}
		}
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// seedAnnotations applies //crew:blocks and //crew:allocs annotations on
// function declarations and interface method declarations.
func seedAnnotations(pass *analysis.Pass, get func(*types.Func) *FuncFacts) {
	apply := func(fn *types.Func, groups ...*ast.CommentGroup) {
		if fn == nil {
			return
		}
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				switch {
				case strings.HasPrefix(text, "crew:blocks"):
					get(fn).Blocks = true
				case strings.HasPrefix(text, "crew:allocs"):
					get(fn).Allocs = true
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pass.TypesInfo.ObjectOf(d.Name).(*types.Func)
				apply(fn, d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							fn, _ := pass.TypesInfo.ObjectOf(name).(*types.Func)
							apply(fn, m.Doc, m.Comment)
						}
					}
				}
			}
		}
	}
}

// directAttrs scans one function body (excluding nested function literals
// and the bodies of `go` statements' immediate calls) for direct summary
// attributes, setting ff's bits and invoking onCall for every call
// expression that should contribute callee facts.
func directAttrs(pass *analysis.Pass, body *ast.BlockStmt, ff *FuncFacts, onCall func(*ast.CallExpr)) {
	// Comm clauses of selects with a default never block.
	type posRange struct{ from, to token.Pos }
	var nonBlocking []posRange
	inNonBlockingComm := func(pos token.Pos) bool {
		for _, r := range nonBlocking {
			if pos >= r.from && pos < r.to {
				return true
			}
		}
		return false
	}
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false // nested functions summarize on their own
		case *ast.GoStmt:
			goCalls[st.Call] = true
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						nonBlocking = append(nonBlocking, posRange{cc.Comm.Pos(), cc.Comm.End()})
					}
				}
			} else {
				ff.Blocks = true
			}
		case *ast.SendStmt:
			if !inNonBlockingComm(st.Pos()) {
				ff.Blocks = true
			}
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && !inNonBlockingComm(st.Pos()) {
				ff.Blocks = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(st.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					ff.Blocks = true
				}
			}
		case *ast.CallExpr:
			if goCalls[st] {
				// The spawned goroutine's behavior is its own; nested
				// argument expressions still evaluate on this goroutine
				// and are visited as separate nodes.
				return true
			}
			if ev, ok := lockEventOf(pass, st); ok {
				if !ev.unlock && ev.class != "" {
					if !containsString(ff.Locks, ev.class) {
						ff.Locks = append(ff.Locks, ev.class)
					}
				}
				return true
			}
			if k, ok := calleeKey(pass.TypesInfo, st); ok && blockingRoots[k] {
				ff.Blocks = true
				return true
			}
			onCall(st)
		}
		return true
	})
	for _, s := range allocSites(pass, body) {
		if !exempted(pass, s.pos, "hotalloc") {
			ff.Allocs = true
			break
		}
	}
}

// allocSite is one construct that may allocate (or, for map ranges, that is
// banned from hot paths for order and cache behavior).
type allocSite struct {
	pos  token.Pos
	what string
}

// allocSites scans a function body for direct allocation constructs. It is
// shared between the summary layer (the Allocs bit) and the hotalloc
// analyzer (which reports each site inside a //crew:hotpath function).
// Nested function literals are scanned by their own enclosing summary; here
// only the literal's creation (a capturing closure) is charged.
func allocSites(pass *analysis.Pass, body *ast.BlockStmt) []allocSite {
	var sites []allocSite
	add := func(pos token.Pos, what string) {
		sites = append(sites, allocSite{pos, what})
	}
	var inspectSkippingLits func(n ast.Node) bool
	inspectSkippingLits = func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			if capturesOuter(pass, st) {
				add(st.Pos(), "capturing closure")
			}
			return false
		case *ast.GoStmt:
			add(st.Pos(), "goroutine spawn")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(st.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					add(st.Pos(), "map iteration")
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(st); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					add(st.Pos(), "map literal")
				case *types.Slice:
					add(st.Pos(), "slice literal")
				}
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				if _, ok := ast.Unparen(st.X).(*ast.CompositeLit); ok {
					add(st.Pos(), "heap-allocated composite literal (&T{...})")
				}
			}
		case *ast.BinaryExpr:
			if st.Op == token.ADD {
				if t := pass.TypesInfo.TypeOf(st); t != nil && isStringType(t) {
					if tv, ok := pass.TypesInfo.Types[st]; !ok || tv.Value == nil {
						add(st.Pos(), "string concatenation")
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok {
				switch pass.TypesInfo.ObjectOf(id) {
				case types.Universe.Lookup("make"):
					add(st.Pos(), "make")
					return true
				case types.Universe.Lookup("new"):
					add(st.Pos(), "new")
					return true
				}
			}
			if k, ok := calleeKey(pass.TypesInfo, st); ok && allocRootPkgs[k.pkg] {
				what := k.pkg + "." + k.name
				if k.recv != "" {
					what = k.pkg + "." + k.recv + "." + k.name
				}
				add(st.Pos(), "call to "+what)
				// The call is already a site; don't also flag each boxed
				// ...any argument of the same expression.
				return true
			}
			// Conversions to an interface type box their operand.
			if len(st.Args) == 1 {
				if t := pass.TypesInfo.TypeOf(st.Fun); t != nil {
					if tv, ok := pass.TypesInfo.Types[st.Fun]; ok && tv.IsType() {
						if ifaceDest(t) {
							if boxes(pass, st.Args[0]) {
								add(st.Pos(), "interface boxing (conversion)")
							}
						}
					}
				}
			}
			// Arguments boxed into interface parameters of a static callee.
			if fn := typeutil.StaticCallee(pass.TypesInfo, st); fn != nil {
				if sig, ok := fn.Type().(*types.Signature); ok {
					checkBoxedArgs(pass, st, sig, add)
				}
			}
		case *ast.KeyValueExpr:
			// Struct literal fields of interface type (e.g. Payload: v).
			if t := pass.TypesInfo.TypeOf(st.Key); t == nil {
				if key, ok := st.Key.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(key); obj != nil {
						if ifaceDest(obj.Type()) && boxes(pass, st.Value) {
							add(st.Value.Pos(), "interface boxing (field "+key.Name+")")
						}
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if i >= len(st.Rhs) {
					break
				}
				lt := pass.TypesInfo.TypeOf(lhs)
				if lt == nil {
					continue
				}
				if ifaceDest(lt) && boxes(pass, st.Rhs[i]) {
					add(st.Rhs[i].Pos(), "interface boxing (assignment)")
				}
			}
		}
		return true
	}
	ast.Inspect(body, inspectSkippingLits)
	return sites
}

// checkBoxedArgs flags arguments whose concrete values are boxed into
// interface-typed parameters (including variadic ...any tails).
func checkBoxedArgs(pass *analysis.Pass, call *ast.CallExpr, sig *types.Signature, add func(token.Pos, string)) {
	if call.Ellipsis.IsValid() {
		return // forwarding a slice: no per-element boxing here
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if ifaceDest(pt) && boxes(pass, arg) {
			add(arg.Pos(), "interface boxing (argument)")
		}
	}
}

// boxes reports whether assigning e to an interface-typed destination
// allocates: the operand is a non-constant, non-nil concrete value whose
// representation is not pointer-shaped. Pointers, channels, maps, funcs and
// values already held in interfaces convert without allocating.
func boxes(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil || tv.IsNil() {
		return false // constants (runtime-cached or compile-time) and nil
	}
	if _, ok := types.Unalias(tv.Type).(*types.TypeParam); ok {
		return false // stenciled per shape; identical-type-param moves don't box
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Struct:
		if st := tv.Type.Underlying().(*types.Struct); st.NumFields() == 0 {
			return false // zero-size
		}
	case *types.Tuple:
		return false // multi-value RHS (comma-ok, multi-return): not a conversion operand
	}
	return true
}

// ifaceDest reports whether t is a genuine interface destination for boxing
// purposes. Type parameters are excluded: their underlying type is the
// constraint interface, but generic instantiations move values of one
// identical type, not interface conversions.
func ifaceDest(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := types.Unalias(t).(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturesOuter reports whether a function literal references variables
// declared outside it — the capture that forces a heap-allocated closure.
func capturesOuter(pass *analysis.Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent() != types.Universe && v.Pkg() == pass.Pkg {
			// Declared in some scope; captured if that scope is outside
			// the literal.
			if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
				if v.Parent() != v.Pkg().Scope() { // package vars are not captures
					captured = true
				}
			}
		}
		return true
	})
	return captured
}
