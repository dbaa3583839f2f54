package lint

// hotalloc enforces that functions annotated //crew:hotpath are
// allocation-free. The per-event path — rules.FireOn through event.Table
// posting into the itable shards, the transport's batch/frame encoders and
// the payload walks — runs once per message or step; its AllocsPerRun
// budgets only catch a regression after the fact and only on the exact path
// a test drives. This analyzer rejects the allocation
// at the line that introduces it: map iteration, fmt/errors/json/reflect
// calls, interface boxing of a concrete value, capturing closures, make and
// new, heap composite literals, string concatenation, goroutine spawns —
// directly in the function, or in anything it calls (via the summary fact
// layer, across packages and interface dispatch).
//
// A deliberate cold branch inside a hot function (an error return that
// formats once per failure, a once-per-lifetime growth) is silenced at the
// site with //crew:allow hotalloc <reason>; the exemption also keeps the
// site out of the function's own "may allocate" summary, so hot callers of
// the annotated function stay clean.
//
// Calls that resolve to nothing (function values, unannotated interface
// methods without facts) contribute nothing — the analyzer is deliberately
// optimistic there, and the AllocsPerRun budgets remain the dynamic
// backstop.

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

var HotAlloc = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "//crew:hotpath functions must not allocate, directly or through anything they call",
	Requires: []*analysis.Analyzer{inspect.Analyzer, Summaries},
	Run:      runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) (any, error) {
	ix := pass.ResultOf[Summaries].(*SummaryIndex)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !hasHotPathAnnotation(fd.Doc) {
			return
		}
		name := fd.Name.Name
		if fn, ok := pass.TypesInfo.ObjectOf(fd.Name).(*types.Func); ok {
			name = funcDisplayName(fn)
		}

		// Direct allocation sites.
		for _, s := range allocSites(pass, fd.Body) {
			if exempted(pass, s.pos, "hotalloc") {
				continue
			}
			pass.Reportf(s.pos, "allocation on //crew:hotpath function %s: %s (hoist it off the hot path or annotate //crew:allow hotalloc <reason>)", name, s.what)
		}

		// Calls to functions whose summary says they may allocate.
		goCalls := map[*ast.CallExpr]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return false // the literal's creation was already flagged
			case *ast.GoStmt:
				goCalls[st.Call] = true // the spawn was already flagged
			case *ast.CallExpr:
				if goCalls[st] {
					return true
				}
				callee := calleeFunc(pass.TypesInfo, st)
				if callee == nil || !ix.FactsOf(callee).Allocs {
					return true
				}
				if exempted(pass, st.Pos(), "hotalloc") {
					return true
				}
				pass.Reportf(st.Pos(), "allocation on //crew:hotpath function %s: call to %s, which may allocate (make the callee allocation-free or annotate //crew:allow hotalloc <reason>)", name, funcDisplayName(callee))
			}
			return true
		})
	})
	return nil, nil
}

// hasHotPathAnnotation reports a //crew:hotpath marker in a doc comment.
func hasHotPathAnnotation(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := trimCommentMarker(c.Text)
		if text == "crew:hotpath" || len(text) > len("crew:hotpath") && text[:len("crew:hotpath ")] == "crew:hotpath " {
			return true
		}
	}
	return false
}

// trimCommentMarker strips the // or /* comment marker and surrounding
// space.
func trimCommentMarker(text string) string {
	if len(text) >= 2 {
		text = text[2:]
	}
	for len(text) > 0 && (text[0] == ' ' || text[0] == '\t') {
		text = text[1:]
	}
	for len(text) > 0 && (text[len(text)-1] == ' ' || text[len(text)-1] == '\t') {
		text = text[:len(text)-1]
	}
	return text
}
