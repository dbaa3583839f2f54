package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// mapIterSinks are the observable-order sinks: transport sends (message
// order is charged and traced), event posts, WAL/store writes, and direct
// printing. A map iteration that reaches one of these makes externally
// visible output depend on Go's randomized map order, which breaks replay
// and the exact Tables 4-6 comparisons.
var mapIterSinks = map[methodKey]bool{
	{pkg: transportPath, recv: "Handle", name: "Send"}:            true,
	{pkg: transportPath, recv: "Network", name: "Send"}:           true,
	{pkg: transportPath, recv: "Handle", name: "SendBatch"}:       true,
	{pkg: transportPath, recv: "Batcher", name: "Add"}:            true,
	{pkg: "crew/internal/event", recv: "Table", name: "Post"}:     true,
	{pkg: "crew/internal/store", recv: "Store", name: "Put"}:      true,
	{pkg: "crew/internal/store", recv: "Store", name: "Delete"}:   true,
	{pkg: "crew/internal/store", recv: "Store", name: "Apply"}:    true,
	{pkg: "crew/internal/wfdb", recv: "DB", name: "SaveInstance"}: true,
	{pkg: "crew/internal/wfdb", recv: "DB", name: "Archive"}:      true,
	{pkg: "crew/internal/wfdb", recv: "DB", name: "Commit"}:       true,
	{pkg: "fmt", name: "Print"}:                                   true,
	{pkg: "fmt", name: "Printf"}:                                  true,
	{pkg: "fmt", name: "Println"}:                                 true,
	{pkg: "fmt", name: "Fprint"}:                                  true,
	{pkg: "fmt", name: "Fprintf"}:                                 true,
	{pkg: "fmt", name: "Fprintln"}:                                true,
	// Rows join a Batch in call order and reach the WAL in that order.
	{pkg: "crew/internal/wfdb", recv: "Batch", name: "SaveInstance"}: true,
	{pkg: "crew/internal/wfdb", recv: "Batch", name: "Archive"}:      true,
	// What engines and agents call: Send is the turn's Batcher.Add, and Mark
	// fixes the order in which the turn's rows reach the WAL.
	{pkg: "crew/internal/actor", recv: "Actor", name: "Send"}: true,
	{pkg: "crew/internal/actor", recv: "Actor", name: "Mark"}: true,
}

// MapIter reports `range` statements over maps whose bodies reach — directly
// or transitively through same-package calls — a message emission, event
// post, WAL write, or print. Go randomizes map iteration order per run, so
// any such loop produces a nondeterministic observable sequence; the fix is
// to iterate a sorted copy of the keys. Loops whose output order genuinely
// does not matter are silenced with //crew:allow mapiter <reason>.
var MapIter = &analysis.Analyzer{
	Name:     "mapiter",
	Doc:      "forbid map iteration that feeds message emission, traces, or WAL writes without sorting",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runMapIter,
}

func runMapIter(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pass 1: which functions declared in this package emit, directly or
	// through same-package calls? Computed as a fixed point over the static
	// call graph restricted to this package.
	emits := map[*types.Func]bool{}
	callees := map[*types.Func][]*types.Func{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		fn, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func)
		if !ok {
			return
		}
		ast.Inspect(fd.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if mapIterSinkCall(pass, call) {
				emits[fn] = true
				return true
			}
			if callee := samePackageCallee(pass, call); callee != nil {
				callees[fn] = append(callees[fn], callee)
			}
			return true
		})
	})
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			if emits[fn] {
				continue
			}
			for _, c := range cs {
				if emits[c] {
					emits[fn] = true
					changed = true
					break
				}
			}
		}
	}

	// Pass 2: flag map-range bodies that reach a sink.
	ins.Preorder([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node) {
		rng := n.(*ast.RangeStmt)
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return
		}
		if inTestFile(pass, rng.Pos()) {
			return
		}
		var sink string
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			if sink != "" {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if mapIterSinkCall(pass, call) {
				k, _ := calleeKey(pass.TypesInfo, call)
				sink = k.name
				if k.recv != "" {
					sink = k.recv + "." + sink
				}
				return false
			}
			if callee := samePackageCallee(pass, call); callee != nil && emits[callee] {
				sink = callee.Name() + " (which emits transitively)"
				return false
			}
			return true
		})
		if sink != "" && !exempted(pass, rng.Pos(), "mapiter") {
			pass.Reportf(rng.Pos(), "map iteration feeds %s: map order is randomized per run, making the emitted sequence nondeterministic (iterate a sorted copy of the keys or annotate //crew:allow mapiter <reason>)", sink)
		}
	})
	return nil, nil
}

// mapIterSinkCall reports whether call resolves statically to a known sink.
func mapIterSinkCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	k, ok := calleeKey(pass.TypesInfo, call)
	return ok && mapIterSinks[k]
}

// samePackageCallee resolves call to a function declared in the package
// under analysis, or nil.
func samePackageCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn := typeutilStaticCallee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}
