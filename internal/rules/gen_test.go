package rules

import (
	"testing"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// fig3Schema reproduces the paper's Figure 3 workflow:
// S1 -> S2 -> (S3 -> S4 | S6) -> S5 with an XOR-join at S5.
func fig3Schema(t *testing.T) *model.Schema {
	t.Helper()
	return model.NewSchema("Fig3", "I1").
		Step("S1", "p1").
		Step("S2", "p2", model.WithOutputs("O1")).
		Step("S3", "p3").
		Step("S4", "p4").
		Step("S6", "p6").
		Step("S5", "p5", model.WithJoin(model.JoinAny)).
		Seq("S1", "S2").
		CondArc("S2", "S3", "S2.O1 > 0").
		CondArc("S2", "S6", "S2.O1 <= 0").
		Arc("S3", "S4").
		Arc("S4", "S5").
		Arc("S6", "S5").
		MustBuild()
}

func TestExecRuleID(t *testing.T) {
	if ExecRuleID("S1", 0) != "exec:S1" {
		t.Error("base rule ID wrong")
	}
	if ExecRuleID("S1", 2) != "exec:S1#2" {
		t.Error("indexed rule ID wrong")
	}
}

func TestStartStepRule(t *testing.T) {
	s := fig3Schema(t)
	rs := StepRules(s, "S1")
	if len(rs) != 1 {
		t.Fatalf("rules = %d", len(rs))
	}
	if len(rs[0].Events) != 1 || rs[0].Events[0] != event.WorkflowStartName {
		t.Errorf("start rule events = %v", rs[0].Events)
	}
	if rs[0].Step != "S1" {
		t.Errorf("start rule executes %q", rs[0].Step)
	}
}

func TestSequentialStepRule(t *testing.T) {
	s := fig3Schema(t)
	rs := StepRules(s, "S2")
	if len(rs) != 1 || len(rs[0].Events) != 1 || rs[0].Events[0] != "S1.done" {
		t.Errorf("sequential rule = %+v", rs[0])
	}
	if rs[0].Precond != nil {
		t.Error("unconditional arc should not add precondition")
	}
}

func TestBranchRulesCarryConditions(t *testing.T) {
	s := fig3Schema(t)
	r3 := StepRules(s, "S3")
	if len(r3) != 1 || r3[0].Precond == nil || r3[0].Precond.Source() != "S2.O1 > 0" {
		t.Errorf("branch rule for S3 = %+v", r3[0])
	}
	r6 := StepRules(s, "S6")
	if len(r6) != 1 || r6[0].Precond == nil || r6[0].Precond.Source() != "S2.O1 <= 0" {
		t.Errorf("branch rule for S6 = %+v", r6[0])
	}
}

func TestJoinAnyGeneratesRulePerBranch(t *testing.T) {
	s := fig3Schema(t)
	rs := StepRules(s, "S5")
	if len(rs) != 2 {
		t.Fatalf("JoinAny rules = %d, want 2", len(rs))
	}
	if rs[0].ID != "exec:S5" || rs[1].ID != "exec:S5#1" {
		t.Errorf("rule IDs = %s, %s", rs[0].ID, rs[1].ID)
	}
	evs := map[string]bool{rs[0].Events[0]: true, rs[1].Events[0]: true}
	if !evs["S4.done"] || !evs["S6.done"] {
		t.Errorf("JoinAny events = %v", evs)
	}
}

func TestJoinAllSingleConjunctiveRule(t *testing.T) {
	s := model.NewSchema("Dia").
		Step("S1", "p").
		Step("S2", "p").
		Step("S3", "p").
		Step("S4", "p", model.WithJoin(model.JoinAll)).
		Arc("S1", "S2").
		Arc("S1", "S3").
		Arc("S2", "S4").
		Arc("S3", "S4").
		MustBuild()
	rs := StepRules(s, "S4")
	if len(rs) != 1 {
		t.Fatalf("JoinAll rules = %d, want 1", len(rs))
	}
	if len(rs[0].Events) != 2 {
		t.Errorf("JoinAll events = %v", rs[0].Events)
	}
}

func TestJoinAllCombinesArcConditions(t *testing.T) {
	s := model.NewSchema("CondJoin").
		Step("A", "p", model.WithOutputs("O1")).
		Step("B", "p", model.WithOutputs("O1")).
		Step("C", "p", model.WithJoin(model.JoinAll)).
		CondArc("A", "C", "A.O1 > 0").
		CondArc("B", "C", "B.O1 > 0").
		MustBuild()
	rs := StepRules(s, "C")
	if len(rs) != 1 || rs[0].Precond == nil {
		t.Fatalf("rules = %+v", rs)
	}
	env := expr.MapEnv{"A.O1": expr.Num(1), "B.O1": expr.Num(0)}
	ok, err := rs[0].Precond.EvalBool(env)
	if err != nil || ok {
		t.Errorf("combined condition = (%v, %v), want false", ok, err)
	}
	env["B.O1"] = expr.Num(2)
	ok, _ = rs[0].Precond.EvalBool(env)
	if !ok {
		t.Error("combined condition should be true when both hold")
	}
}

func TestDataDependencyAddsEvents(t *testing.T) {
	// S3 takes data from S1 (not its control predecessor S2).
	s := model.NewSchema("DataDep").
		Step("S1", "p", model.WithOutputs("O1")).
		Step("S2", "p").
		Step("S3", "p", model.WithInputs("S1.O1")).
		Arc("S1", "S2").
		Arc("S2", "S3").
		MustBuild()
	rs := StepRules(s, "S3")
	if len(rs) != 1 {
		t.Fatalf("rules = %d", len(rs))
	}
	has := map[string]bool{}
	for _, ev := range rs[0].Events {
		has[ev] = true
	}
	if !has["S2.done"] || !has["S1.done"] {
		t.Errorf("events = %v, want control + data deps", rs[0].Events)
	}
}

func TestDataDependencyNotDuplicatedForControlPred(t *testing.T) {
	s := model.NewSchema("NoDup").
		Step("S1", "p", model.WithOutputs("O1")).
		Step("S2", "p", model.WithInputs("S1.O1")).
		Arc("S1", "S2").
		MustBuild()
	rs := StepRules(s, "S2")
	if len(rs[0].Events) != 1 {
		t.Errorf("events = %v, want exactly [S1.done]", rs[0].Events)
	}
}

func TestLoopArcGeneratesNoRule(t *testing.T) {
	s := model.NewSchema("Loop").
		Step("A", "p", model.WithOutputs("O1")).
		Step("B", "p").
		Arc("A", "B").
		LoopArc("B", "A", "A.O1 < 3").
		MustBuild()
	rs := StepRules(s, "A")
	if len(rs) != 1 || rs[0].Events[0] != event.WorkflowStartName {
		t.Errorf("loop head rules = %+v", rs)
	}
}

func TestStepRulesUnknownStep(t *testing.T) {
	s := fig3Schema(t)
	if rs := StepRules(s, "missing"); rs != nil {
		t.Errorf("rules for unknown step = %v", rs)
	}
}

func TestSchemaRulesAndInstall(t *testing.T) {
	s := fig3Schema(t)
	p := SchemaProgram(s)
	rs := p.Rules()
	// S1..S4, S6: one rule each; S5: two rules.
	if len(rs) != 7 {
		t.Fatalf("SchemaProgram = %d rules, want 7", len(rs))
	}
	// Compiled once per frozen schema; StepRules are windows of it, in
	// schema order.
	if SchemaProgram(s) != p {
		t.Error("a frozen schema's program is compiled again")
	}
	var union []*Rule
	for _, id := range s.Order {
		union = append(union, StepRules(s, id)...)
	}
	for i := range rs {
		if union[i] != rs[i] {
			t.Errorf("rule %d: StepRules gives %s, the program %s", i, union[i].ID, rs[i].ID)
		}
	}
	e := NewEngine()
	InstallSchemaRules(e, s)
	if e.Program() != p {
		t.Error("InstallSchemaRules did not load the schema's program")
	}
}

// TestEndToEndNavigationThroughRules drives the Figure 3 schema through the
// rule engine only, playing the role of the navigation layer, and checks the
// executed path for the "top branch" data.
func TestEndToEndNavigationThroughRules(t *testing.T) {
	s := fig3Schema(t)
	e := NewEngine()
	InstallSchemaRules(e, s)
	tab := event.NewTable()
	data := expr.MapEnv{}

	var executed []model.StepID
	run := func() {
		for {
			fired, err := e.Evaluate(tab, data)
			if err != nil {
				t.Fatal(err)
			}
			if len(fired) == 0 {
				return
			}
			for _, r := range fired {
				executed = append(executed, r.Step)
				// Simulate step completion.
				if r.Step == "S2" {
					data["S2.O1"] = expr.Num(5) // top branch
				}
				tab.Post(event.DoneName(string(r.Step)))
			}
		}
	}
	tab.Post(event.WorkflowStartName)
	run()

	want := []model.StepID{"S1", "S2", "S3", "S4", "S5"}
	if len(executed) != len(want) {
		t.Fatalf("executed = %v, want %v", executed, want)
	}
	for i := range want {
		if executed[i] != want[i] {
			t.Fatalf("executed = %v, want %v", executed, want)
		}
	}
}
