package nav

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crew/internal/analysis"
	"crew/internal/expr"
	"crew/internal/laws"
	"crew/internal/model"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// walkCommit is the commit condition as the full reachability walk decides
// it, with no shortcut: the reference ShouldCommit must agree with.
func walkCommit(s *model.Schema, ins *wfdb.Instance) bool {
	if ins.Status != wfdb.Running {
		return false
	}
	terms := PotentialTerminals(s, ins)
	for _, id := range terms {
		if !ins.Executed(id) {
			return false
		}
	}
	return len(terms) > 0
}

// commitSchemas gathers schemas of every shape the repository has: generated
// chains with a terminal fan-out, testdata/order.laws, the examples' LAWS
// specs (parallel branches joined), and hand-built branches, an XOR join and
// a loop.
func commitSchemas(t *testing.T) []*model.Schema {
	t.Helper()
	var out []*model.Schema
	add := func(lib *model.Library) {
		for _, name := range lib.Names() {
			out = append(out, lib.Schema(name))
		}
	}
	for _, p := range []func(*analysis.Parameters){
		func(*analysis.Parameters) {},
		func(p *analysis.Parameters) { p.S, p.F = 5, 1 },
		func(p *analysis.Parameters) { p.S, p.F = 8, 4 },
	} {
		params := analysis.Default()
		params.C = 3
		p(&params)
		w, err := workload.Generate(params, 7)
		if err != nil {
			t.Fatal(err)
		}
		add(w.Library)
	}
	sources := []string{filepath.Join("..", "..", "testdata", "order.laws")}
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	sources = append(sources, examples...)
	specs := 0
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec := string(src)
		if strings.HasSuffix(path, ".go") {
			// An example carries its schemas as a LAWS spec constant, or
			// builds them in code (not reachable from here).
			_, after, ok := strings.Cut(spec, "const spec = `")
			if !ok {
				continue
			}
			spec, _, _ = strings.Cut(after, "`")
		}
		lib, err := laws.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		add(lib)
		specs++
	}
	if specs < 3 {
		t.Fatalf("compiled %d LAWS specs, want order.laws and at least two examples", specs)
	}
	loop := model.NewSchema("Loop", "N").
		Step("A", "p", model.WithInputs("WF.N"), model.WithOutputs("O1")).
		Step("B", "p", model.WithInputs("A.O1"), model.WithOutputs("O1")).
		Step("C", "p", model.WithOutputs("O1")).
		Step("D", "p").
		Step("E", "p").
		Seq("A", "B", "C").
		LoopArc("C", "B", "C.O1 < 1").
		CondArc("C", "D", "C.O1 >= 0").
		CondArc("C", "E", "C.O1 < 0").
		MustBuild()
	return append(out, fig3(t), parallel(t), loop)
}

// randomInstance executes a random subset of the schema's steps (each done
// step's outputs random small numbers, so conditional arcs go either way),
// leaves some executing or failed, and now and then ends the instance.
func randomInstance(rng *rand.Rand, s *model.Schema, done float64) *wfdb.Instance {
	inputs := make(map[string]expr.Value, len(s.Inputs))
	for _, in := range s.Inputs {
		inputs[in] = expr.Num(float64(rng.Intn(5) - 2))
	}
	ins := wfdb.NewInstance(s.Name, 1, inputs)
	for _, id := range s.Order {
		switch r := rng.Float64(); {
		case r < done:
			outs := make(map[string]expr.Value, len(s.Steps[id].Outputs))
			for _, o := range s.Steps[id].Outputs {
				outs[o] = expr.Num(float64(rng.Intn(5) - 2))
			}
			ins.RecordDone(id, outs)
		case r < done+0.1:
			ins.RecordExecuting(id, "a1", nil)
		case r < done+0.15:
			ins.RecordFailed(id)
		}
	}
	if rng.Intn(10) == 0 {
		ins.Status = wfdb.Aborted
	}
	return ins
}

// TestShouldCommitAgreesWithWalk: the shortcut taken when no terminal has
// executed never changes the answer, on every schema shape and on random
// executed sets and branch data.
func TestShouldCommitAgreesWithWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	commits, shortcuts := 0, 0
	for _, s := range commitSchemas(t) {
		for round := 0; round < 400; round++ {
			ins := randomInstance(rng, s, []float64{0.2, 0.6, 0.95, 1}[round%4])
			got, want := ShouldCommit(s, ins), walkCommit(s, ins)
			if got != want {
				t.Fatalf("%s: ShouldCommit = %v, the walk says %v; executed %v, data %v", s.Name, got, want, ins.ExecOrder, ins.Data)
			}
			if want {
				commits++
			}
			if !anyExecuted(ins, s.TerminalSteps()) {
				shortcuts++
			}
		}
	}
	if commits == 0 || shortcuts == 0 {
		t.Errorf("%d commits and %d shortcuts: the comparison never saw both answers", commits, shortcuts)
	}
}

// TestShouldCommitAllocBudget: before any terminal step has executed the
// check walks nothing and allocates nothing.
func TestShouldCommitAllocBudget(t *testing.T) {
	w, err := workload.Generate(analysis.Default(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Library.Schema(w.Library.Names()[0])
	ins := wfdb.NewInstance(s.Name, 1, nil)
	for _, id := range s.Order {
		if strings.HasPrefix(string(id), "S") { // the chain, not the terminals
			ins.RecordDone(id, map[string]expr.Value{"O1": expr.Num(1)})
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if ShouldCommit(s, ins) {
			t.Fatal("committed with no terminal executed")
		}
	}); n != 0 {
		t.Errorf("ShouldCommit with no terminal executed: %.1f allocs, want 0", n)
	}
}
