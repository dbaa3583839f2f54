package model_test

import (
	"reflect"
	"sync"
	"testing"

	"crew/internal/model"
	"crew/internal/rules"
)

// indexed builds a validated schema with a branch, a join, a loop, a data
// dependency and a re-execution condition: every view of the index has an
// entry.
func indexed(t *testing.T) *model.Schema {
	t.Helper()
	return model.NewSchema("Idx", "I1").
		Step("A", "p", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "p", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithReexecCond("A.O1 > 1"), model.WithAgents("a2")).
		Step("C", "p", model.WithInputs("WF.I1"), model.WithAgents("a3")).
		Step("D", "p", model.WithJoin(model.JoinAny), model.WithInputs("B.O1"), model.WithAgents("a1")).
		CondArc("A", "B", "A.O1 > 0").
		CondArc("A", "C", "A.O1 <= 0").
		Arc("B", "D").
		Arc("C", "D").
		LoopArc("D", "A", "A.O1 < 3").
		MustBuild()
}

// views is everything a schema derives from its index.
type views struct {
	Starts, Terminals, Topo []model.StepID
	Succ, Loops             map[model.StepID][]model.Arc
	Preds, Ord, Src         map[model.StepID][]model.StepID
	Desc                    map[model.StepID]map[model.StepID]bool
	Producer, Done, Refs    map[string]string
	Sizes                   [3]int
	Names                   []string
	Digest                  uint64
	Rules                   int
}

func viewsOf(s *model.Schema) views {
	v := views{
		Starts: s.StartSteps(), Terminals: s.TerminalSteps(), Topo: s.TopoOrder(),
		Succ: map[model.StepID][]model.Arc{}, Loops: map[model.StepID][]model.Arc{},
		Preds: map[model.StepID][]model.StepID{}, Ord: map[model.StepID][]model.StepID{}, Src: map[model.StepID][]model.StepID{},
		Desc:     map[model.StepID]map[model.StepID]bool{},
		Producer: map[string]string{}, Done: map[string]string{}, Refs: map[string]string{},
		Names: s.Names().List(), Digest: s.Names().Digest(),
		Rules: len(rules.SchemaProgram(s).Rules()),
	}
	v.Sizes[0], v.Sizes[1], v.Sizes[2] = s.TableSizes()
	for _, id := range s.Order {
		v.Succ[id], v.Loops[id] = s.ControlSuccessors(id), s.LoopArcs(id)
		v.Preds[id], v.Ord[id], v.Src[id] = s.ControlPredecessors(id), s.OrderedDescendants(id), s.DataSourceSteps(id)
		v.Desc[id] = s.Descendants(id)
		v.Done[string(id)] = s.DoneEventOf(id) + " " + s.FailEventOf(id) + " " + s.CompEventOf(id)
		if st := s.Steps[id]; st != nil {
			for _, out := range st.Outputs {
				ref := s.OutputRef(id, out)
				v.Refs[string(id)+" "+out] = ref
				v.Producer[ref] = string(s.ProducerOf(ref))
			}
		}
	}
	return v
}

// TestNeverValidatedSchemaAnswersAsValidated: a schema whose views are read
// before any Validate gives the answers a validated copy gives, and a later
// Validate keeps the index its first read built.
func TestNeverValidatedSchemaAnswersAsValidated(t *testing.T) {
	s := indexed(t)
	fresh := s.Clone()
	got, want := viewsOf(fresh), viewsOf(s)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("never-validated schema:\n got  %+v\n want %+v", got, want)
	}
	if e, err := fresh.CondExpr("A.O1 <= 0"); err != nil || e == nil {
		t.Fatalf("CondExpr of a schema condition: %v, %v", e, err)
	}
	names, slot := fresh.Names(), fresh.TemplateCache()
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	if fresh.Names() != names || fresh.TemplateCache() != slot {
		t.Error("Validate built a second index for a schema it did not change")
	}
}

// TestMutationDropsTheIndex: AddStep and AddArc after Validate change every
// view they touch, the name table's digest and the compiled rule program.
func TestMutationDropsTheIndex(t *testing.T) {
	s := indexed(t)
	before := viewsOf(s)
	prog := rules.SchemaProgram(s)
	s.AddStep(&model.Step{ID: "Z", Program: "p", Outputs: []string{"O1"}})
	s.AddArc(model.Arc{From: "Z", To: "A", Kind: model.Control})
	after := viewsOf(s)
	if reflect.DeepEqual(after.Starts, before.Starts) || len(after.Starts) != 1 || after.Starts[0] != "Z" {
		t.Errorf("StartSteps = %v after Z->A was added (was %v)", after.Starts, before.Starts)
	}
	if succ := s.ControlSuccessors("Z"); len(succ) != 1 || succ[0].To != "A" {
		t.Errorf("ControlSuccessors(Z) = %v", succ)
	}
	if d := s.Descendants("Z"); len(d) != 4 {
		t.Errorf("Descendants(Z) = %v, want the four old steps", d)
	}
	if after.Sizes == before.Sizes {
		t.Errorf("TableSizes = %v, unchanged by a step with an output", after.Sizes)
	}
	if after.Digest == before.Digest {
		t.Error("the name table's digest did not change")
	}
	if p := rules.SchemaProgram(s); p == prog || len(p.Rules()) <= len(prog.Rules()) {
		t.Errorf("SchemaProgram after a new step: %d rules (was %d), same program %v",
			len(p.Rules()), len(prog.Rules()), p == prog)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOrderWithMissingStepReadsWithoutPanic: the index builder skips an
// order entry with no step, so every view reads before Validate, and
// Validate still rejects the schema.
func TestOrderWithMissingStepReadsWithoutPanic(t *testing.T) {
	s := &model.Schema{
		Name:  "Broken",
		Steps: map[model.StepID]*model.Step{"A": {ID: "A", Program: "p", Outputs: []string{"O1"}, Inputs: []string{"X.O1"}}},
		Order: []model.StepID{"A", "X"},
		Arcs:  []model.Arc{{From: "A", To: "X", Kind: model.Control}},
	}
	v := viewsOf(s)
	if len(v.Starts) != 1 || v.Starts[0] != "A" {
		t.Errorf("StartSteps = %v, want [A]", v.Starts)
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted an order entry with no step")
	}
}

// TestConcurrentFirstReadsAgree: goroutines making the first reads of one
// unvalidated schema at once all see the one index that was stored.
func TestConcurrentFirstReadsAgree(t *testing.T) {
	s := indexed(t).Clone()
	const n = 8
	type seen struct {
		slot any
		prog *rules.Program
		v    views
	}
	out := make([]seen, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(n)
	for i := range out {
		go func() {
			defer wg.Done()
			start.Wait()
			out[i] = seen{slot: s.TemplateCache(), prog: rules.SchemaProgram(s), v: viewsOf(s)}
		}()
	}
	start.Done()
	wg.Wait()
	for i := 1; i < n; i++ {
		if out[i].slot != out[0].slot || out[i].prog != out[0].prog {
			t.Errorf("reader %d saw another index or rule program", i)
		}
		if !reflect.DeepEqual(out[i].v, out[0].v) {
			t.Errorf("reader %d saw other views", i)
		}
	}
}

// TestViewsDoNotAllocate: every view of a validated schema reads from its
// index without allocating.
func TestViewsDoNotAllocate(t *testing.T) {
	s := indexed(t)
	rules.SchemaProgram(s)
	s.Names()
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = s.StartSteps(), s.TerminalSteps()
		_, _ = s.ControlSuccessors("A"), s.LoopArcs("D")
		_, _ = s.ControlPredecessors("D"), s.Descendants("A")
		_, _ = s.OrderedDescendants("A"), s.ProducerOf("A.O1")
		_, _ = s.TopoOrder(), s.DataSourceSteps("B")
		_, _, _ = s.TableSizes()
		_, _ = s.DoneEventOf("A"), s.FailEventOf("A")
		_, _ = s.CompEventOf("A"), s.OutputRef("A", "O1")
		_, _ = s.Names(), s.TemplateCache()
		_, _ = s.CondExpr("A.O1 > 0")
		_ = rules.SchemaProgram(s)
	})
	if allocs != 0 {
		t.Errorf("views of a validated schema: %.0f allocs per read, want 0", allocs)
	}
}
