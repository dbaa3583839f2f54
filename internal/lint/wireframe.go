package lint

// wireframe enforces that the frame set (HELLO/WELCOME/MSG/ACK/CRASH/
// RECOVER/EXEC/DONE) is exhaustive. Frame types are the transport's extension
// point, and they fail open at runtime: an unknown frame type falls through a
// switch and is silently dropped. This analyzer turns that into a lint error
// at the commit that introduces the new frame. Frame constants (package-level
// constants named frame*, of an integer type) must each have at least one
// encode use (a non-comparison use: passed to appendFrame, assigned,
// returned) and at least one dispatch arm (a switch case or ==/!=
// comparison). And every switch statement that dispatches on frame constants
// must be exhaustive: cover every frame constant or carry a default clause
// that handles the unknown frame explicitly.
//
// Payloads are not its concern: a registered payload type's walk is its
// codec (transport.RegisterPayload requires one), and the test over the
// registry in internal/transport sends every registered type to the nodes of
// its package, failing on a payload no handler arm takes.
import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var WireFrame = &analysis.Analyzer{
	Name:     "wireframe",
	Doc:      "every wire frame type must have an encode use and a dispatch arm",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runWireFrame,
}

func runWireFrame(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	checkFrameConsts(pass, ins)
	return nil, nil
}

// frameConstsOf collects the package's frame-type constants: package-level
// constants of an integer type whose name starts with "frame".
func frameConstsOf(pass *analysis.Pass) []*types.Const {
	var consts []*types.Const
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "frame") || name == "frame" {
			continue
		}
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Val().Kind() != constant.Int {
			continue
		}
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].Pos() < consts[j].Pos() })
	return consts
}

func checkFrameConsts(pass *analysis.Pass, ins *inspector.Inspector) {
	consts := frameConstsOf(pass)
	if len(consts) == 0 {
		return
	}
	frameSet := map[types.Object]bool{}
	for _, c := range consts {
		frameSet[c] = true
	}
	frameOf := func(e ast.Expr) *types.Const {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && frameSet[c] {
			return c
		}
		return nil
	}

	encoded := map[types.Object]bool{}
	dispatched := map[types.Object]bool{}

	// Switch statements dispatching on frame constants: record coverage and
	// require exhaustiveness (all frames or a default clause).
	ins.Preorder([]ast.Node{(*ast.SwitchStmt)(nil)}, func(n ast.Node) {
		sw := n.(*ast.SwitchStmt)
		covered := map[types.Object]bool{}
		hasDefault := false
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
				continue
			}
			for _, e := range cc.List {
				if c := frameOf(e); c != nil {
					covered[c] = true
					dispatched[c] = true
				}
			}
		}
		if len(covered) == 0 || hasDefault {
			return
		}
		var missing []string
		for _, c := range consts {
			if !covered[c] {
				missing = append(missing, c.Name())
			}
		}
		if len(missing) == 0 {
			return
		}
		if exempted(pass, sw.Pos(), "wireframe") {
			return
		}
		pass.Reportf(sw.Pos(), "frame switch is not exhaustive: no arm for %s and no default — an unknown frame would be silently dropped (add arms or a default that rejects it)", strings.Join(missing, ", "))
	})

	// Remaining uses: comparisons are dispatch arms, anything else is an
	// encode-side use.
	ins.WithStack([]ast.Node{(*ast.Ident)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		c, ok := pass.TypesInfo.Uses[n.(*ast.Ident)].(*types.Const)
		if !ok || !frameSet[c] {
			return true
		}
		// The ident itself is stack[len-1]; its parent decides the role.
		var parent ast.Node
		if len(stack) >= 2 {
			parent = stack[len(stack)-2]
		}
		switch p := parent.(type) {
		case *ast.CaseClause:
			// Already counted by the switch pass.
		case *ast.BinaryExpr:
			if p.Op == token.EQL || p.Op == token.NEQ {
				dispatched[c] = true
			} else {
				encoded[c] = true
			}
		default:
			encoded[c] = true
		}
		return true
	})

	for _, c := range consts {
		if exempted(pass, c.Pos(), "wireframe") {
			continue
		}
		if !encoded[c] {
			pass.Reportf(c.Pos(), "frame %s is never encoded: no send-side use in this package (dead protocol arm, or the writer is missing)", c.Name())
		}
		if !dispatched[c] {
			pass.Reportf(c.Pos(), "frame %s has no dispatch arm: no switch case or comparison consumes it, so a peer sending it would be silently dropped", c.Name())
		}
	}
}
