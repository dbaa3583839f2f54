package lint

// lockorder builds a global mutex-acquisition-order graph and reports
// cycles (potential deadlocks) and violations of a declared //crew:lockrank
// ordering. The paper's coordination laws are enforced by engine goroutines
// that take shard-table, transport and hub locks on behalf of many
// workflows at once; an A→B ordering in one package and B→A in another is
// exactly the deadlock class that only a whole-program view can catch.
//
// An edge A→B means "B was acquired while A was held": either a literal
// nested Lock() in one function, or a call made inside A's held region to a
// function whose summary fact says it may acquire B (so cross-function and
// cross-package nesting is visible). Locks are identified by class —
// "pkgpath.Type.field" for mutex fields, "pkgpath.var" for package-level
// mutexes — so every instance of a sharded table is one node.
//
// The graph crosses package boundaries through a cumulative package fact:
// each package exports its own edges plus everything its direct imports
// exported, so by the time the root packages are analyzed the full program
// graph is present. A cycle is reported once, at an edge in the package
// that completes it.
//
// Ranks are declared where the mutex lives:
//
//	mu sync.Mutex //crew:lockrank 20
//
// and acquiring a mutex whose rank is not strictly greater than one already
// held is a violation even before it closes a cycle. Deliberate exceptions
// carry //crew:allow lockorder <reason> on the acquiring line.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// LockEdge is one observed ordering: To was acquired (directly or through a
// call) while From was held.
type LockEdge struct {
	From, To string
	// Pos is "file:line" of the inner acquisition, kept so a cycle detected
	// packages away can still name where each leg was introduced.
	Pos string
}

// LockGraph is the cumulative per-package fact: this package's acquisition
// edges and rank declarations plus those of everything it (transitively)
// imports. Exporting the merged graph is what lets a package see orderings
// introduced anywhere below it with only direct-import fact visibility.
type LockGraph struct {
	Edges []LockEdge
	Ranks map[string]int
}

// AFact marks LockGraph as a go/analysis fact.
func (*LockGraph) AFact() {}

// LockOrder reports mutex-acquisition cycles and //crew:lockrank
// violations over the whole-program graph.
var LockOrder = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "report mutex-acquisition-order cycles and //crew:lockrank violations across packages",
	Requires:  []*analysis.Analyzer{inspect.Analyzer, Summaries},
	FactTypes: []analysis.Fact{new(LockGraph)},
	Run:       runLockOrder,
}

// localEdge is an edge observed in the current package, with the report
// position still live.
type localEdge struct {
	LockEdge
	pos      token.Pos
	fromRead bool   // From was read-locked (RLock)
	toRead   bool   // To acquisition is an RLock (direct acquisitions only)
	via      string // non-empty: the callee whose summary contributed To
}

func runLockOrder(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := pass.ResultOf[Summaries].(*SummaryIndex)

	var locals []localEdge
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch f := n.(type) {
		case *ast.FuncDecl:
			body = f.Body
		case *ast.FuncLit:
			body = f.Body
		}
		if body != nil {
			locals = append(locals, collectOrderEdges(pass, ix, body)...)
		}
	})
	ranks := collectLockRanks(pass)

	// Merge the cumulative graphs of the direct imports; together with this
	// package's own edges they form the program graph known so far.
	merged := map[[2]string]LockEdge{}
	mergedRanks := map[string]int{}
	for class, r := range ranks {
		mergedRanks[class] = r
	}
	for _, imp := range pass.Pkg.Imports() {
		var g LockGraph
		if !pass.ImportPackageFact(imp, &g) {
			continue
		}
		for _, e := range g.Edges {
			merged[[2]string{e.From, e.To}] = e
		}
		for class, r := range g.Ranks {
			mergedRanks[class] = r
		}
	}
	for _, e := range locals {
		k := [2]string{e.From, e.To}
		if _, ok := merged[k]; !ok {
			merged[k] = e.LockEdge
		}
	}

	// Rank violations: acquiring a rank not strictly above every held rank.
	for _, e := range locals {
		rFrom, okFrom := mergedRanks[e.From]
		rTo, okTo := mergedRanks[e.To]
		if !okFrom || !okTo || rTo > rFrom {
			continue
		}
		if exempted(pass, e.pos, "lockorder") {
			continue
		}
		detail := e.To
		if e.via != "" {
			detail = e.To + " (via " + e.via + ")"
		}
		pass.Reportf(e.pos, "lock rank violation: acquiring %s (rank %d) while holding %s (rank %d): //crew:lockrank order must be strictly increasing (reorder the acquisitions or annotate //crew:allow lockorder <reason>)", detail, rTo, e.From, rFrom)
	}

	// Cycles: a local edge A→B closes a cycle when B already reaches A in
	// the merged graph. Reported at the local edge, once per (A,B).
	adj := map[string][]string{}
	for k := range merged {
		adj[k[0]] = append(adj[k[0]], k[1])
	}
	for from := range adj {
		sort.Strings(adj[from])
	}
	reported := map[[2]string]bool{}
	for _, e := range locals {
		k := [2]string{e.From, e.To}
		if reported[k] || e.From == e.To {
			continue
		}
		path := findPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		reported[k] = true
		if exempted(pass, e.pos, "lockorder") {
			continue
		}
		cycle := append([]string{e.From}, path...)
		legs := make([]string, 0, len(cycle))
		for i := 1; i < len(cycle); i++ {
			leg := merged[[2]string{cycle[i-1], cycle[i]}]
			legs = append(legs, cycle[i]+" ("+leg.Pos+")")
		}
		pass.Reportf(e.pos, "lock-order cycle (potential deadlock): %s → %s → back to %s; every path must acquire these locks in one global order", e.From, strings.Join(legs, " → "), e.From)
	}

	// Export the cumulative graph for importers.
	out := &LockGraph{Ranks: mergedRanks}
	keys := make([][2]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		out.Edges = append(out.Edges, merged[k])
	}
	if len(out.Edges) > 0 || len(out.Ranks) > 0 {
		pass.ExportPackageFact(out)
	}
	return nil, nil
}

// findPath returns a path from → to in adj (inclusive of to, exclusive of
// from), or nil. Deterministic: neighbors are pre-sorted.
func findPath(adj map[string][]string, from, to string) []string {
	type frame struct {
		node string
		path []string
	}
	seen := map[string]bool{from: true}
	stack := []frame{{from, []string{from}}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.node == to {
			return f.path
		}
		for _, nb := range adj[f.node] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, frame{nb, append(append([]string{}, f.path...), nb)})
			}
		}
	}
	return nil
}

// collectOrderEdges computes the acquisition edges of one function body: a
// direct acquisition inside another lock's held region, and a call inside a
// held region to a function whose summary says it may acquire locks.
// Read-read nesting of one class is not an edge (RLock is shared).
func collectOrderEdges(pass *analysis.Pass, ix *SummaryIndex, body *ast.BlockStmt) []localEdge {
	locks, _ := collectLockEvents(pass, ix, body)
	if len(locks) == 0 {
		return nil
	}
	held := heldIntervals(locks, body.End())
	var edges []localEdge
	posOf := func(p token.Pos) string {
		pp := pass.Fset.Position(p)
		return pp.Filename[strings.LastIndexByte(pp.Filename, '/')+1:] + ":" + strconv.Itoa(pp.Line)
	}
	add := func(iv lockInterval, to string, toRead bool, pos token.Pos, via string) {
		if iv.class == "" || to == "" {
			return
		}
		if iv.class == to && iv.read && toRead {
			return
		}
		edges = append(edges, localEdge{
			LockEdge: LockEdge{From: iv.class, To: to, Pos: posOf(pos)},
			pos:      pos,
			fromRead: iv.read,
			toRead:   toRead,
			via:      via,
		})
	}

	// Direct nesting: an acquisition strictly inside another's region.
	for _, ev := range locks {
		if ev.unlock {
			continue
		}
		for _, iv := range held {
			if ev.pos > iv.from && ev.pos < iv.to {
				add(iv, ev.class, ev.read, ev.pos, "")
			}
		}
	}

	// Calls under a lock to functions that acquire locks elsewhere. The
	// goCalls exclusion already happened in collectLockEvents for events;
	// here calls are re-walked with the same exclusions.
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goCalls[st.Call] = true
		case *ast.CallExpr:
			if goCalls[st] {
				return true
			}
			if _, isLock := lockEventOf(pass, st); isLock {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, st)
			if callee == nil {
				return true
			}
			ff := ix.FactsOf(callee)
			if len(ff.Locks) == 0 {
				return true
			}
			for _, iv := range held {
				if st.Pos() > iv.from && st.Pos() < iv.to {
					for _, cls := range ff.Locks {
						add(iv, cls, false, st.Pos(), funcDisplayName(callee))
					}
				}
			}
		}
		return true
	})
	return edges
}

// collectLockRanks scans the package for //crew:lockrank declarations on
// mutex fields and package-level mutex variables.
func collectLockRanks(pass *analysis.Pass) map[string]int {
	ranks := map[string]int{}
	parse := func(groups ...*ast.CommentGroup) (int, bool) {
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "crew:lockrank") {
					continue
				}
				arg := strings.TrimSpace(strings.TrimPrefix(text, "crew:lockrank"))
				n, err := strconv.Atoi(arg)
				if err != nil {
					pass.Reportf(c.Pos(), "malformed //crew:lockrank annotation: want an integer rank, got %q", arg)
					continue
				}
				return n, true
			}
		}
		return 0, false
	}
	isMutex := func(t types.Type) bool {
		return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.StructType:
				for _, field := range d.Fields.List {
					t := pass.TypesInfo.TypeOf(field.Type)
					if t == nil || !isMutex(t) {
						continue
					}
					r, ok := parse(field.Doc, field.Comment)
					if !ok {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.ObjectOf(name); obj != nil {
							if v, ok := obj.(*types.Var); ok && v.IsField() {
								if owner := fieldOwner(pass, d); owner != "" {
									ranks[owner+"."+name.Name] = r
								}
							}
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					r, ok := parse(vs.Doc, vs.Comment, d.Doc)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						obj := pass.TypesInfo.ObjectOf(name)
						if obj == nil || !isMutex(obj.Type()) {
							continue
						}
						if obj.Parent() == pass.Pkg.Scope() {
							ranks[pass.Pkg.Path()+"."+name.Name] = r
						}
					}
				}
			}
			return true
		})
	}
	return ranks
}

// fieldOwner resolves the "pkgpath.Type" prefix of a struct type's lock
// class by finding the named type whose underlying struct this is.
func fieldOwner(pass *analysis.Pass, st *ast.StructType) string {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Type != st {
					continue
				}
				return pass.Pkg.Path() + "." + ts.Name.Name
			}
		}
	}
	return ""
}
