// Package lint implements crewlint, a go/analysis suite for the invariants
// the code cannot make true by construction and no test checks: determinism,
// locking and wire exhaustiveness. Each analyzer maps to a documented
// DESIGN.md invariant (see the "Statically enforced invariants" section
// there, which also names what guarantees the checks that were retired;
// allocation-free hot paths are held by AllocsPerRun budget tests):
//
//   - detclock: no wall-clock reads or unseeded math/rand in deterministic
//     packages (model, rules, analysis, itable, faults).
//   - locks: no channel operation or blocking call while a mutex is held in
//     the same function body, and a global mutex-acquisition-order graph
//     across packages with no cycle and no acquisition against a declared
//     //crew:lockrank ordering.
//   - mapiter: no range over a map whose body (transitively, within the
//     package) emits messages, posts events, or writes the WAL — map
//     iteration order is nondeterministic and breaks replay and the exact
//     Tables 4-6 comparisons; iterate a sorted copy instead.
//   - wireframe: wire-protocol exhaustiveness — every frame type must have
//     an encode use and a dispatch arm, so adding a frame without handling
//     it is a lint error, not a runtime drop.
//
// The suite is interprocedural: a shared fact layer (see facts.go) exports
// a per-function summary — may it block, which lock classes does it acquire
// — and locks consumes the summaries, so its invariants follow behavior
// through wrappers, across package boundaries, and through interface
// dispatch instead of pattern-matching a fixed list of direct callees.
//
// False positives are silenced in place with an annotation comment on the
// offending line or the line directly above it:
//
//	//crew:allow <analyzer> <reason>
//
// Behavior that the analysis cannot see is declared where it lives:
//
//	//crew:blocks                 on a func or interface method: may park
//	//crew:lockrank <n>           on a mutex field/var: acquisition rank
//
// The annotation must carry a non-empty reason; a bare annotation is itself
// reported. The suite runs as a go vet tool: `go run ./cmd/crewlint ./...`.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"
)

// Analyzers is the full crewlint suite in stable presentation order. The
// Summaries fact analyzer is not listed: it reports nothing and runs
// automatically as a dependency of the analyzers that consume its facts.
var Analyzers = []*analysis.Analyzer{
	DetClock,
	Locks,
	MapIter,
	WireFrame,
}

// transportPath is the import path of the messaging layer whose send entry
// points mapiter treats as sinks and whose frames wireframe checks.
const transportPath = "crew/internal/transport"

// methodKey names a function or method by package path, receiver type name
// (empty for package-level functions), and name.
type methodKey struct {
	pkg  string
	recv string
	name string
}

// typeutilStaticCallee resolves a call to its statically known *types.Func,
// or nil for dynamic calls and builtins.
func typeutilStaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	return typeutil.StaticCallee(info, call)
}

// calleeKey resolves a call expression to the methodKey of its static
// callee, or ok=false for dynamic calls (interface methods, function
// values) and builtins.
func calleeKey(info *types.Info, call *ast.CallExpr) (methodKey, bool) {
	fn := typeutil.StaticCallee(info, call)
	if fn == nil {
		return methodKey{}, false
	}
	k := methodKey{name: fn.Name()}
	if fn.Pkg() != nil {
		k.pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			k.recv = n.Obj().Name()
			if n.Obj().Pkg() != nil {
				k.pkg = n.Obj().Pkg().Path()
			}
		}
	}
	return k, true
}

// fileFor returns the *ast.File of the pass containing pos.
func fileFor(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// exempted reports whether the line containing pos, or the line directly
// above it, carries a //crew:allow <analyzer> <reason> annotation silencing
// the named analyzer. An annotation without a reason does not exempt
// anything; instead it is reported so stale or lazy annotations cannot
// accumulate.
func exempted(pass *analysis.Pass, pos token.Pos, analyzer string) bool {
	f := fileFor(pass, pos)
	if f == nil {
		return false
	}
	line := pass.Fset.Position(pos).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			cl := pass.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "crew:allow")
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
			if name != analyzer {
				continue
			}
			if strings.TrimSpace(reason) == "" {
				pass.Reportf(pos, "crew annotation needs a reason: %s", text)
				continue
			}
			return true
		}
	}
	return false
}

// funcDisplayName renders a function for diagnostics: "Type.Name" for
// methods (including interface methods), "Name" otherwise.
func funcDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedOrPointerTo(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// inTestFile reports whether pos is inside a _test.go file.
func inTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// namedOrPointerTo unwraps pointers and returns the named type, if any.
func namedOrPointerTo(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkg.name.
func isNamedType(t types.Type, pkg, name string) bool {
	n := namedOrPointerTo(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkg
}
