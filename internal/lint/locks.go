package lint

// locks checks what a goroutine does while it holds a sync.Mutex or
// RWMutex, over one walk of each function body (walkBody, the walk the
// summaries are built from). A Lock() opens a lexical held region that
// closes at the next positional Unlock() of the same mutex expression and
// mode, or at the end of the function for a deferred or missing Unlock.
// Inside a held region two things are checked.
//
// Blocking. A channel operation, a select without default, a blocking root
// (time.Sleep, WaitGroup.Wait, Cond.Wait) or a call whose summary says it
// may block is reported: the itable/store shard locks and the engine/agent
// command-queue locks are leaf locks on hot paths, and anything that can
// park the goroutine while one is held turns a bounded critical section into
// a potential deadlock — the goroutine that would drain the channel (an
// actor draining its mailbox, a hub peer's pump, an Inbox feeder) may
// itself need the lock. Whether a call blocks comes from the summary fact
// layer, across package boundaries and through interface dispatch (an
// interface method annotated //crew:blocks); no per-callee table is kept
// here.
//
// Order. An acquisition inside a held region, directly or through a call
// whose summary acquires lock classes, is an edge A→B ("B was acquired while
// A was held") of a global mutex-acquisition graph. Locks are identified by
// class — "pkgpath.Type.field" for mutex fields, "pkgpath.var" for
// package-level mutexes — so every instance of a sharded table is one node.
// The paper's coordination laws are enforced by engine goroutines that take
// shard-table, transport and hub locks on behalf of many workflows at once;
// an A→B ordering in one package and B→A in another is exactly the deadlock
// class that only a whole-program view can catch. The graph crosses package
// boundaries through a cumulative package fact: each package exports its own
// edges plus everything its direct imports exported. A cycle is reported
// once, at an edge in the package that completes it. Ranks are declared
// where the mutex lives:
//
//	mu sync.Mutex //crew:lockrank 20
//
// and acquiring a mutex whose rank is not strictly greater than one already
// held is a violation even before it closes a cycle.
//
// Deliberate exceptions carry //crew:allow locks <reason> on the flagged
// line or the line above.

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

// Locks reports blocking operations under a held mutex, mutex-acquisition
// cycles across packages and //crew:lockrank violations.
var Locks = &analysis.Analyzer{
	Name:      "locks",
	Doc:       "forbid blocking while a mutex is held; report lock-order cycles and //crew:lockrank violations across packages",
	Requires:  []*analysis.Analyzer{inspect.Analyzer, Summaries},
	FactTypes: []analysis.Fact{new(LockGraph)},
	Run:       runLocks,
}

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

// lockEvent is one Lock/Unlock call inside a function.
type lockEvent struct {
	key    string // canonical mutex expression, e.g. "s.mu"
	class  string // cross-function mutex identity, e.g. "crew/internal/itable.mapShard.mu"
	read   bool   // RLock/RUnlock pairing
	unlock bool
}

// lockInterval is one lexical held region of a mutex.
type lockInterval struct {
	key      string
	class    string
	read     bool
	from, to token.Pos
}

// localEdge is an edge observed in the current package, with the report
// position still live.
type localEdge struct {
	LockEdge
	pos token.Pos
	via string // non-empty: the callee whose summary contributed To
}

func runLocks(pass *analysis.Pass) (any, error) {
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
			locals = append(locals, checkHeld(pass, ix, body)...)
		}
	})
	checkOrder(pass, locals)
	return nil, nil
}

// checkHeld reports the blocking operations inside the body's held regions
// and returns the acquisition edges those regions add. A deferred lock event
// or blocking operation runs at exit and is not checked where it is written;
// a deferred call still adds the locks it takes. Read-read nesting of one
// class is not an edge (RLock is shared).
func checkHeld(pass *analysis.Pass, ix *SummaryIndex, body *ast.BlockStmt) []localEdge {
	ops := walkBody(pass, body)
	held := heldIntervals(ops, body.End())
	if len(held) == 0 {
		return nil
	}
	pp := func(p token.Pos) string {
		pos := pass.Fset.Position(p)
		return pos.Filename[strings.LastIndexByte(pos.Filename, '/')+1:] + ":" + strconv.Itoa(pos.Line)
	}
	var edges []localEdge
	for _, op := range ops {
		var in []lockInterval
		for _, iv := range held {
			if op.pos > iv.from && op.pos < iv.to {
				in = append(in, iv)
			}
		}
		if len(in) == 0 {
			continue
		}
		blocked := func(what string) {
			if !op.deferred && !exempted(pass, op.pos, "locks") {
				pass.Reportf(op.pos, "%s while %s is locked: the goroutine that would unblock it may need the same lock (move the operation after Unlock or annotate //crew:allow locks <reason>)", what, in[0].key)
			}
		}
		var to []string
		toRead, via := false, ""
		switch op.kind {
		case opLock:
			if op.lock.unlock || op.deferred {
				continue
			}
			to, toRead = []string{op.lock.class}, op.lock.read
		case opBlock:
			blocked(op.what)
		case opCall:
			ff := ix.FactsOf(op.callee)
			to, via = ff.Locks, funcDisplayName(op.callee)
			if ff.Blocks {
				blocked(via)
			}
		}
		for _, iv := range in {
			for _, cls := range to {
				if iv.class != cls || !iv.read || !toRead {
					edges = append(edges, localEdge{LockEdge{From: iv.class, To: cls, Pos: pp(op.pos)}, op.pos, via})
				}
			}
		}
	}
	return edges
}

// heldIntervals turns a body's lock events into its lexical held regions:
// each acquisition opens a region closed by the next positional unlock of
// the same expression and mode, or by end. A deferred unlock closes nothing.
func heldIntervals(ops []bodyOp, end token.Pos) []lockInterval {
	var held []lockInterval
	for i, op := range ops {
		if op.kind != opLock || op.lock.unlock || op.deferred {
			continue
		}
		to := end
		for _, u := range ops[i+1:] {
			if u.kind == opLock && u.lock.unlock && !u.deferred && u.lock.key == op.lock.key && u.lock.read == op.lock.read {
				to = u.pos
				break
			}
		}
		held = append(held, lockInterval{key: op.lock.key, class: op.lock.class, read: op.lock.read, from: op.pos, to: to})
	}
	return held
}

// checkOrder merges this package's edges into the graph its imports
// exported, reports rank violations and the cycles this package closes, and
// exports the cumulative graph for importers.
func checkOrder(pass *analysis.Pass, locals []localEdge) {
	merged := map[[2]string]LockEdge{}
	ranks := collectLockRanks(pass)
	for _, imp := range pass.Pkg.Imports() {
		var g LockGraph
		if !pass.ImportPackageFact(imp, &g) {
			continue
		}
		for _, e := range g.Edges {
			merged[[2]string{e.From, e.To}] = e
		}
		for class, r := range g.Ranks {
			ranks[class] = r
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
		rFrom, okFrom := ranks[e.From]
		rTo, okTo := ranks[e.To]
		if !okFrom || !okTo || rTo > rFrom || exempted(pass, e.pos, "locks") {
			continue
		}
		detail := e.To
		if e.via != "" {
			detail = e.To + " (via " + e.via + ")"
		}
		pass.Reportf(e.pos, "lock rank violation: acquiring %s (rank %d) while holding %s (rank %d): //crew:lockrank order must be strictly increasing (reorder the acquisitions or annotate //crew:allow locks <reason>)", detail, rTo, e.From, rFrom)
	}

	// Cycles: a local edge A→B closes a cycle when B already reaches A in
	// the merged graph. Reported at the local edge, once per (A,B).
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
	adj := map[string][]string{}
	for _, k := range keys {
		adj[k[0]] = append(adj[k[0]], k[1])
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
		if exempted(pass, e.pos, "locks") {
			continue
		}
		legs := make([]string, 0, len(path))
		prev := e.From
		for _, next := range path {
			legs = append(legs, next+" ("+merged[[2]string{prev, next}].Pos+")")
			prev = next
		}
		pass.Reportf(e.pos, "lock-order cycle (potential deadlock): %s → %s → back to %s; every path must acquire these locks in one global order", e.From, strings.Join(legs, " → "), e.From)
	}

	// Export the cumulative graph for importers.
	out := &LockGraph{Ranks: ranks}
	for _, k := range keys {
		out.Edges = append(out.Edges, merged[k])
	}
	if len(out.Edges) > 0 || len(out.Ranks) > 0 {
		pass.ExportPackageFact(out)
	}
}

// findPath returns a path from → to in adj (inclusive of both ends), or
// nil. Deterministic: neighbors are pre-sorted.
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

// lockEventOf classifies a call as a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the canonical receiver expression
// and the cross-function lock class.
func lockEventOf(pass *analysis.Pass, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var unlock, read bool
	switch sel.Sel.Name {
	case "Lock":
	case "RLock":
		read = true
	case "Unlock":
		unlock = true
	case "RUnlock":
		unlock, read = true, true
	default:
		return lockEvent{}, false
	}
	if t := pass.TypesInfo.TypeOf(sel.X); t == nil || !isMutex(t) {
		return lockEvent{}, false
	}
	return lockEvent{key: types.ExprString(sel.X), class: lockClassOf(pass, sel.X), read: read, unlock: unlock}, true
}

func isMutex(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// lockClassOf names the cross-function identity of a mutex expression:
// "pkgpath.Type.field" for a mutex field (whatever expression reaches it),
// "pkgpath.var" for a package-level mutex, and a local fallback otherwise.
// Two acquisitions of the same class in different functions are treated as
// the same lock; generic instantiations share one class.
func lockClassOf(pass *analysis.Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if t := pass.TypesInfo.TypeOf(x.X); t != nil {
			if n := namedOrPointerTo(t); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.ObjectOf(x); obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + x.Name
			}
			return pass.Pkg.Path() + ".local." + x.Name
		}
	}
	return pass.Pkg.Path() + "." + types.ExprString(e)
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
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if t := pass.TypesInfo.TypeOf(field.Type); t == nil || !isMutex(t) {
							continue
						}
						if r, ok := parse(field.Doc, field.Comment); ok {
							for _, name := range field.Names {
								ranks[pass.Pkg.Path()+"."+s.Name.Name+"."+name.Name] = r
							}
						}
					}
				case *ast.ValueSpec:
					r, ok := parse(s.Doc, s.Comment, gd.Doc)
					if !ok {
						continue
					}
					for _, name := range s.Names {
						if obj := pass.TypesInfo.ObjectOf(name); obj != nil && isMutex(obj.Type()) && obj.Parent() == pass.Pkg.Scope() {
							ranks[pass.Pkg.Path()+"."+name.Name] = r
						}
					}
				}
			}
		}
	}
	return ranks
}
