package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// LockSend reports channel operations and blocking calls performed while a
// sync.Mutex/RWMutex is held in the same function body. The itable/store
// shard locks and the engine/agent command-queue locks are leaf locks on
// hot paths: anything that can park the goroutine while one is held (a
// channel send to a full/unbuffered channel, a receive, a select without
// default, a call that transitively reaches any of those) turns a bounded
// critical section into a potential deadlock — the goroutine that would
// drain the channel (an actor draining its mailbox, a link node's pump, an
// Inbox feeder) may itself need the lock.
//
// Whether a call blocks comes from the summary fact layer: a function that
// transitively performs a channel operation, calls a blocking root
// (time.Sleep, WaitGroup.Wait, Cond.Wait), or is annotated //crew:blocks
// carries a "may block" fact, across package boundaries and through
// interface dispatch (transport.Link.Deliver is seeded). No per-callee
// table is maintained here.
//
// The analysis is lexical and per-function: a Lock() opens a held region
// that closes at the next positional Unlock() of the same mutex expression
// (or at the end of the function for a deferred or missing Unlock).
// Cross-function lock holding is not modeled by this analyzer (lockorder
// covers cross-function acquisition ordering). Silence deliberate cases
// with //crew:allow locksend <reason>.
var LockSend = &analysis.Analyzer{
	Name:     "locksend",
	Doc:      "forbid channel ops and blocking calls while a mutex is held in the same function",
	Requires: []*analysis.Analyzer{inspect.Analyzer, Summaries},
	Run:      runLockSend,
}

// lockEvent is one Lock/Unlock call inside a function.
type lockEvent struct {
	key      string // canonical mutex expression, e.g. "s.mu"
	class    string // cross-function mutex identity, e.g. "crew/internal/itable.mapShard.mu"
	read     bool   // RLock/RUnlock pairing
	pos      token.Pos
	unlock   bool
	deferred bool
}

// blockEvent is one potentially blocking operation inside a function.
type blockEvent struct {
	pos  token.Pos
	what string
}

// lockInterval is one lexical held region of a mutex: from the acquisition
// to the next positional unlock of the same expression (or the end of the
// function for deferred/missing unlocks).
type lockInterval struct {
	key      string
	class    string
	read     bool
	from, to token.Pos
}

func runLockSend(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ix := pass.ResultOf[Summaries].(*SummaryIndex)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch f := n.(type) {
		case *ast.FuncDecl:
			body = f.Body
		case *ast.FuncLit:
			body = f.Body
		}
		if body != nil {
			checkLockRegions(pass, ix, body)
		}
	})
	return nil, nil
}

// collectLockEvents gathers the Lock/Unlock events and blocking operations
// of one function body (excluding nested function literals).
func collectLockEvents(pass *analysis.Pass, ix *SummaryIndex, body *ast.BlockStmt) (locks []lockEvent, blocks []blockEvent) {
	// nonBlocking collects the source ranges of comm clauses of selects
	// WITH a default clause: channel ops there never block.
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
			return false // nested functions get their own region check
		case *ast.GoStmt:
			// The spawned call runs on its own goroutine with its own
			// stack; it neither blocks the spawner nor holds its locks.
			goCalls[st.Call] = true
		case *ast.DeferStmt:
			if ev, ok := lockEventOf(pass, st.Call); ok && ev.unlock {
				ev.deferred = true
				locks = append(locks, ev)
			}
			return false // a deferred call runs at exit, not here
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			// Comm-clause ops are covered by the select itself: with a
			// default they never block, without one the select is reported
			// as a single event rather than once per clause.
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonBlocking = append(nonBlocking, posRange{cc.Comm.Pos(), cc.Comm.End()})
				}
			}
			if !hasDefault {
				blocks = append(blocks, blockEvent{st.Pos(), "select without default"})
			}
		case *ast.SendStmt:
			if !inNonBlockingComm(st.Pos()) {
				blocks = append(blocks, blockEvent{st.Pos(), "channel send"})
			}
		case *ast.UnaryExpr:
			if st.Op == token.ARROW && !inNonBlockingComm(st.Pos()) {
				blocks = append(blocks, blockEvent{st.Pos(), "channel receive"})
			}
		case *ast.RangeStmt:
			if _, ok := pass.TypesInfo.TypeOf(st.X).Underlying().(*types.Chan); ok {
				blocks = append(blocks, blockEvent{st.Pos(), "range over channel"})
			}
		case *ast.CallExpr:
			if goCalls[st] {
				return true
			}
			if ev, ok := lockEventOf(pass, st); ok {
				locks = append(locks, ev)
				return true
			}
			if k, ok := calleeKey(pass.TypesInfo, st); ok && blockingRoots[k] {
				what := k.name
				if k.recv != "" {
					what = k.recv + "." + what
				}
				blocks = append(blocks, blockEvent{st.Pos(), what})
				return true
			}
			if callee := calleeFunc(pass.TypesInfo, st); callee != nil {
				if ix.FactsOf(callee).Blocks {
					blocks = append(blocks, blockEvent{st.Pos(), funcDisplayName(callee)})
				}
			}
		}
		return true
	})
	return locks, blocks
}

// heldIntervals turns a lock-event list into the lexical held regions of
// the function: each acquisition opens a region closed by the next
// positional unlock of the same expression and mode, or by end.
func heldIntervals(locks []lockEvent, end token.Pos) []lockInterval {
	sort.Slice(locks, func(i, j int) bool { return locks[i].pos < locks[j].pos })
	var held []lockInterval
	for i, ev := range locks {
		if ev.unlock {
			continue
		}
		to := end
		for j := i + 1; j < len(locks); j++ {
			u := locks[j]
			if u.unlock && !u.deferred && u.key == ev.key && u.read == ev.read {
				to = u.pos
				break
			}
		}
		held = append(held, lockInterval{key: ev.key, class: ev.class, read: ev.read, from: ev.pos, to: to})
	}
	return held
}

func checkLockRegions(pass *analysis.Pass, ix *SummaryIndex, body *ast.BlockStmt) {
	locks, blocks := collectLockEvents(pass, ix, body)
	if len(locks) == 0 || len(blocks) == 0 {
		return
	}
	held := heldIntervals(locks, body.End())
	for _, b := range blocks {
		for _, iv := range held {
			if b.pos > iv.from && b.pos < iv.to {
				if !exempted(pass, b.pos, "locksend") {
					pass.Reportf(b.pos, "%s while %s is locked: the goroutine that would unblock it may need the same lock (move the operation after Unlock or annotate //crew:allow locksend <reason>)", b.what, iv.key)
				}
				break
			}
		}
	}
}

// lockEventOf classifies a call as a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning the canonical receiver expression
// and the cross-function lock class.
func lockEventOf(pass *analysis.Pass, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	name := sel.Sel.Name
	var unlock, read bool
	switch name {
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
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return lockEvent{}, false
	}
	if !isNamedType(t, "sync", "Mutex") && !isNamedType(t, "sync", "RWMutex") {
		return lockEvent{}, false
	}
	return lockEvent{
		key:    types.ExprString(sel.X),
		class:  lockClassOf(pass, sel.X),
		read:   read,
		pos:    call.Pos(),
		unlock: unlock,
	}, true
}

// lockClassOf names the cross-function identity of a mutex expression:
// "pkgpath.Type.field" for a mutex field (whatever expression reaches it),
// "pkgpath.var" for a package-level mutex, and a local fallback otherwise.
// Two acquisitions of the same class in different functions are treated as
// the same lock by lockorder; generic instantiations share one class.
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
