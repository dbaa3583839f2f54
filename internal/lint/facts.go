package lint

// facts.go is the shared call-summary layer of the crewlint suite: a
// go/analysis fact engine that computes, for every function in a package, a
// conservative summary of the behaviors the locks analyzer cares about — may
// it block, which mutex classes does it acquire — and exports the summaries
// as object facts so they propagate across package boundaries through the
// vet driver's .vetx files. The summaries and the locks analyzer read a
// function body through one walk (walkBody), so what counts as a lock event,
// a blocking operation or a call is decided once.
//
// Propagation rules:
//
//   - Within a package, summaries are a fixed point over the static call
//     graph (go/types resolution; calls through function values stay
//     unknown and contribute nothing).
//   - Across packages, summaries are read back as facts: a call to an
//     imported function merges that function's exported FuncFacts.
//   - Interface dispatch resolves to the interface method object itself,
//     which carries the facts of a //crew:blocks annotation on the method's
//     declaration.
//   - Calls inside `go` statements contribute nothing to the caller's
//     summary (the spawned goroutine blocks and locks on its own stack).

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
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
	// Locks lists the mutex classes (package.Type.field) the function may
	// acquire, directly or transitively. The locks analyzer uses it to
	// extend acquisition edges through calls made while a lock is held.
	Locks []string
}

// AFact marks FuncFacts as a go/analysis fact.
func (*FuncFacts) AFact() {}

func (f *FuncFacts) String() string {
	var parts []string
	if f.Blocks {
		parts = append(parts, "blocks")
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
	return !f.Blocks && len(f.Locks) == 0
}

// merge folds a callee's summary into the caller's, for a call made on the
// caller's goroutine.
func (f *FuncFacts) merge(c FuncFacts) bool {
	changed := false
	if c.Blocks && !f.Blocks {
		f.Blocks, changed = true, true
	}
	for _, l := range c.Locks {
		if !slices.Contains(f.Locks, l) {
			f.Locks = append(f.Locks, l)
			changed = true
		}
	}
	return changed
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

// calleeFunc resolves call's target including interface methods, which
// typeutil.StaticCallee deliberately excludes. The interface method object
// is exactly what carries the annotated facts for dynamic dispatch. Calls
// through plain function values and builtins resolve to nil.
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
	Doc:        "compute per-function call summaries (may-block, acquired locks) as facts",
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

// factsAllPackages widens firstParty to every analyzed package; the
// offline test harness sets it so fixture packages (whose import paths do
// not carry the module prefix) get summaries.
var factsAllPackages = false

// firstParty reports whether the summary layer computes facts for a
// package. Only module-internal code is summarized: under the vet driver
// the suite also visits standard-library dependencies for fact
// propagation, and deriving "may block" from stdlib internals (every
// os.File.Write bottoms out in a pollable syscall) would drown the
// invariants these facts exist for. Standard-library behavior enters the
// analysis only through the curated blockingRoots table and explicit
// annotations.
func firstParty(path string) bool {
	return factsAllPackages || path == "crew" || strings.HasPrefix(path, "crew/")
}

func runSummaries(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := &SummaryIndex{pass: pass, local: map[*types.Func]*FuncFacts{}}
	if !firstParty(pass.Pkg.Path()) {
		return ix, nil
	}
	get := func(fn *types.Func) *FuncFacts {
		f := ix.local[fn]
		if f == nil {
			f = &FuncFacts{}
			ix.local[fn] = f
		}
		return f
	}

	// Seed annotated declarations: //crew:blocks on a function declaration
	// or an interface method forces the bit for primitives whose behavior
	// is invisible to the analysis (socket reads, callbacks).
	seedAnnotations(pass, get)

	// Per-function direct attributes and same-package call edges.
	edges := map[*types.Func][]*types.Func{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		fn, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
		if fd.Body == nil || !ok {
			return
		}
		ff := get(fn)
		for _, op := range walkBody(pass, fd.Body) {
			switch op.kind {
			case opBlock:
				ff.Blocks = true
			case opLock:
				if !op.lock.unlock && !slices.Contains(ff.Locks, op.lock.class) {
					ff.Locks = append(ff.Locks, op.lock.class)
				}
			case opCall:
				if op.callee.Pkg() == pass.Pkg {
					edges[fn] = append(edges[fn], op.callee)
					continue
				}
				ff.merge(ix.FactsOf(op.callee))
			}
		}
	})

	// Fixed point over the package-internal call graph.
	for changed := true; changed; {
		changed = false
		for fn, callees := range edges {
			ff := get(fn)
			for _, callee := range callees {
				if cf, ok := ix.local[callee]; ok && ff.merge(*cf) {
					changed = true
				}
			}
		}
	}

	// Export non-empty summaries.
	fns := make([]*types.Func, 0, len(ix.local))
	for fn := range ix.local {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		ff := ix.local[fn]
		if ff.empty() || fn.Pkg() != pass.Pkg {
			continue
		}
		sort.Strings(ff.Locks)
		pass.ExportObjectFact(fn, ff)
	}
	return ix, nil
}

// opKind classifies one operation walkBody finds in a function body.
type opKind uint8

const (
	opLock  opKind = iota // Lock, RLock, Unlock or RUnlock on a sync mutex
	opBlock               // parks by itself: channel op, select without default, blocking root
	opCall                // any other call whose target resolves
)

// bodyOp is one operation of a function body.
type bodyOp struct {
	kind opKind
	pos  token.Pos
	// deferred marks an operation inside a defer statement: it runs at
	// function exit, not where it is written.
	deferred bool
	lock     lockEvent   // opLock
	what     string      // opBlock: what parks
	callee   *types.Func // opCall
}

// walkBody lists the lock events, blocking operations and calls of one
// function body in source order. Nested function literals are left out
// (they are functions of their own), and so is the call of a go statement
// (it runs on another goroutine; its arguments are evaluated here and are
// walked). The channel operations in a select's comm clauses belong to the
// select: with a default it never parks, without one it is one blocking
// operation.
func walkBody(pass *analysis.Pass, body *ast.BlockStmt) []bodyOp {
	type span struct{ from, to token.Pos }
	var comms, defers []span
	within := func(spans []span, pos token.Pos) bool {
		for _, s := range spans {
			if pos >= s.from && pos < s.to {
				return true
			}
		}
		return false
	}
	var ops []bodyOp
	add := func(op bodyOp) {
		op.deferred = within(defers, op.pos)
		ops = append(ops, op)
	}
	block := func(pos token.Pos, what string) {
		if !within(comms, pos) {
			add(bodyOp{kind: opBlock, pos: pos, what: what})
		}
	}
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goCalls[st.Call] = true
		case *ast.DeferStmt:
			defers = append(defers, span{st.Pos(), st.End()})
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range st.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm == nil {
					hasDefault = true
				} else {
					comms = append(comms, span{cc.Comm.Pos(), cc.Comm.End()})
				}
			}
			if !hasDefault {
				block(st.Pos(), "select without default")
			}
		case *ast.SendStmt:
			block(st.Pos(), "channel send")
		case *ast.UnaryExpr:
			if st.Op == token.ARROW {
				block(st.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(st.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					block(st.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if goCalls[st] {
				return true
			}
			if ev, ok := lockEventOf(pass, st); ok {
				add(bodyOp{kind: opLock, pos: st.Pos(), lock: ev})
			} else if k, ok := calleeKey(pass.TypesInfo, st); ok && blockingRoots[k] {
				what := k.name
				if k.recv != "" {
					what = k.recv + "." + what
				}
				block(st.Pos(), what)
			} else if callee := calleeFunc(pass.TypesInfo, st); callee != nil {
				add(bodyOp{kind: opCall, pos: st.Pos(), callee: callee})
			}
		}
		return true
	})
	return ops
}

// seedAnnotations applies //crew:blocks annotations on function declarations
// and interface method declarations.
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
				if strings.HasPrefix(text, "crew:blocks") {
					get(fn).Blocks = true
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
