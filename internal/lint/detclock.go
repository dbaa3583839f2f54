package lint

import (
	"flag"
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// detDefaultPackages lists the packages whose outputs must be a pure
// function of their inputs and seeds: the workflow model and its schema
// index, the rule engine (indexed/scan parity demands identical
// firing order), the analytical tables, the sharded instance tables, and
// fault-plan construction. A package outside this list opts in by carrying
// a //crew:deterministic comment in any of its files.
var detDefaultPackages = map[string]bool{
	"crew/internal/model":    true,
	"crew/internal/rules":    true,
	"crew/internal/analysis": true,
	"crew/internal/itable":   true,
	"crew/internal/faults":   true,
}

// detClockFlags lets a driver widen the deterministic set, mainly so the
// analyzer tests can point it at a testdata package:
// -detclock.packages=pkg1,pkg2 adds to the default list.
var detClockFlags flag.FlagSet
var detExtraPackages = detClockFlags.String("packages", "", "comma-separated extra package paths treated as deterministic")

// DetClock reports wall-clock reads (time.Now, time.Since, timers) and
// unseeded math/rand use inside deterministic packages. Replay, the seeded
// fault plans, and the Tables 4-6 gates all assume these packages compute
// the same outputs for the same seeds on every run.
var DetClock = &analysis.Analyzer{
	Name:     "detclock",
	Doc:      "forbid wall-clock and unseeded randomness in deterministic packages",
	Flags:    detClockFlags,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetClock,
}

// detTimeFuncs are the time package entry points that read or arm the wall
// clock. time.Duration arithmetic and formatting stay legal.
var detTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// detRandSeeded are the math/rand constructors that take or build an
// explicit source; everything else at package level draws from the global,
// nondeterministically shared source.
var detRandSeeded = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDetClock(pass *analysis.Pass) (any, error) {
	if !detPackage(pass) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if inTestFile(pass, call.Pos()) {
			// Tests may poll deadlines; determinism binds the package's
			// production outputs, not its test harnesses.
			return
		}
		k, ok := calleeKey(pass.TypesInfo, call)
		if !ok || k.recv != "" {
			return
		}
		switch k.pkg {
		case "time":
			if detTimeFuncs[k.name] && !exempted(pass, call.Pos(), "detclock") {
				pass.Reportf(call.Pos(), "wall clock in deterministic package: time.%s (use the network's logical clock or a seeded schedule)", k.name)
			}
		case "math/rand", "math/rand/v2":
			if !detRandSeeded[k.name] && !exempted(pass, call.Pos(), "detclock") {
				pass.Reportf(call.Pos(), "unseeded randomness in deterministic package: %s.%s draws from the global source (use rand.New(rand.NewSource(seed)))", k.pkg, k.name)
			}
		}
	})
	return nil, nil
}

// detPackage reports whether the pass's package must be deterministic:
// either a member of the default list or opted in via a
// //crew:deterministic file comment.
func detPackage(pass *analysis.Pass) bool {
	if detDefaultPackages[pass.Pkg.Path()] {
		return true
	}
	for _, p := range strings.Split(*detExtraPackages, ",") {
		if p != "" && p == pass.Pkg.Path() {
			return true
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "crew:deterministic") {
					return true
				}
			}
		}
	}
	return false
}
