package model

import (
	"strings"
	"testing"
)

// linear builds S1 -> S2 -> S3.
func linear(t *testing.T) *Schema {
	t.Helper()
	return NewSchema("Lin", "I1").
		Step("S1", "p1", WithOutputs("O1"), WithCompensation("c1")).
		Step("S2", "p2", WithInputs("S1.O1"), WithOutputs("O1"), WithCompensation("c2")).
		Step("S3", "p3", WithInputs("S2.O1", "WF.I1")).
		Seq("S1", "S2", "S3").
		MustBuild()
}

// diamond builds S1 -> {S2, S3} -> S4 (parallel branch and AND-join).
func diamond(t *testing.T) *Schema {
	t.Helper()
	return NewSchema("Dia").
		Step("S1", "p1").
		Step("S2", "p2").
		Step("S3", "p3").
		Step("S4", "p4", WithJoin(JoinAll)).
		Arc("S1", "S2").
		Arc("S1", "S3").
		Arc("S2", "S4").
		Arc("S3", "S4").
		MustBuild()
}

// ifElse builds the paper's Figure 3 shape:
// S1 -> S2 -> (S3 -> S4 | S6) -> S5, where S5 is an XOR-join.
func ifElse(t *testing.T) *Schema {
	t.Helper()
	return NewSchema("Fig3", "I1").
		Step("S1", "p1").
		Step("S2", "p2", WithOutputs("O1"), WithCompensation("c2")).
		Step("S3", "p3", WithCompensation("c3")).
		Step("S4", "p4", WithCompensation("c4")).
		Step("S6", "p6", WithCompensation("c6")).
		Step("S5", "p5", WithJoin(JoinAny)).
		Seq("S1", "S2").
		CondArc("S2", "S3", "S2.O1 > 0").
		CondArc("S2", "S6", "S2.O1 <= 0").
		Arc("S3", "S4").
		Arc("S4", "S5").
		Arc("S6", "S5").
		OnFailure("S4", "S2", 3).
		MustBuild()
}

func TestStepIDRefAndWorkflowInput(t *testing.T) {
	if got := StepID("S2").Ref("O1"); got != "S2.O1" {
		t.Errorf("Ref = %q", got)
	}
	if got := WorkflowInput("I1"); got != "WF.I1" {
		t.Errorf("WorkflowInput = %q", got)
	}
}

func TestJoinPolicyAndArcKindStrings(t *testing.T) {
	if JoinAll.String() != "all" || JoinAny.String() != "any" {
		t.Error("JoinPolicy strings wrong")
	}
	if Control.String() != "control" || Data.String() != "data" {
		t.Error("ArcKind strings wrong")
	}
}

func TestBuilderProducesValidSchema(t *testing.T) {
	s := linear(t)
	if s.Name != "Lin" || len(s.Steps) != 3 || len(s.Arcs) != 2 {
		t.Errorf("unexpected schema: %v", s)
	}
	if s.Step("S2").Inputs[0] != "S1.O1" {
		t.Error("inputs not preserved")
	}
	if s.Step("missing") != nil {
		t.Error("missing step should be nil")
	}
	list := s.StepList()
	if len(list) != 3 || list[0].ID != "S1" || list[2].ID != "S3" {
		t.Errorf("StepList order wrong: %v", list)
	}
}

func TestCompensable(t *testing.T) {
	s := linear(t)
	if !s.Step("S1").Compensable() {
		t.Error("S1 should be compensable")
	}
	if s.Step("S3").Compensable() {
		t.Error("S3 should not be compensable")
	}
	nested := &Step{ID: "N", Nested: "Child"}
	if !nested.Compensable() {
		t.Error("nested steps are compensable via their children")
	}
}

func TestFailurePolicyAttempts(t *testing.T) {
	if (FailurePolicy{}).Attempts() != 3 {
		t.Error("default attempts should be 3")
	}
	if (FailurePolicy{MaxAttempts: 7}).Attempts() != 7 {
		t.Error("explicit attempts not honored")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := ifElse(t)
	s.CompSets = [][]StepID{{"S2", "S3"}}
	c := s.Clone()
	c.Steps["S1"].Program = "mutated"
	c.Steps["S1"].EligibleAgents = append(c.Steps["S1"].EligibleAgents, "aX")
	c.CompSets[0][0] = "S9"
	c.OnFailure["S4"] = FailurePolicy{RollbackTo: "S1"}
	if s.Steps["S1"].Program == "mutated" {
		t.Error("Clone shares step structs")
	}
	if s.CompSets[0][0] == "S9" {
		t.Error("Clone shares comp sets")
	}
	if s.OnFailure["S4"].RollbackTo != "S2" {
		t.Error("Clone shares failure map")
	}
	if c.Name != s.Name || len(c.Order) != len(s.Order) {
		t.Error("Clone dropped fields")
	}
}

func TestCompSetOf(t *testing.T) {
	s := linear(t)
	s.CompSets = [][]StepID{{"S1", "S2"}}
	if set := s.CompSetOf("S1"); len(set) != 2 {
		t.Errorf("CompSetOf(S1) = %v", set)
	}
	if set := s.CompSetOf("S3"); set != nil {
		t.Errorf("CompSetOf(S3) = %v, want nil", set)
	}
}

func TestSchemaString(t *testing.T) {
	s := linear(t)
	if got := s.String(); !strings.Contains(got, "Lin") || !strings.Contains(got, "3 steps") {
		t.Errorf("String() = %q", got)
	}
}

func TestLibraryBasics(t *testing.T) {
	l := NewLibrary()
	l.Add(linear(t))
	l.Add(diamond(t))
	if l.Schema("Lin") == nil || l.Schema("Dia") == nil {
		t.Fatal("schemas not retrievable")
	}
	if l.Schema("nope") != nil {
		t.Error("unknown schema should be nil")
	}
	names := l.Names()
	if len(names) != 2 || names[0] != "Lin" || names[1] != "Dia" {
		t.Errorf("Names = %v", names)
	}
	// Re-adding replaces without duplicating order.
	l.Add(linear(t))
	if len(l.Names()) != 2 {
		t.Error("re-Add duplicated name")
	}
}

func TestCoordSpecMentionsAndCoordFor(t *testing.T) {
	l := NewLibrary()
	l.Add(linear(t))
	l.Add(diamond(t))
	ro := CoordSpec{
		Kind: RelativeOrder,
		Name: "orders",
		Pairs: []ConflictPair{
			{A: StepRef{"Lin", "S1"}, B: StepRef{"Dia", "S2"}},
			{A: StepRef{"Lin", "S2"}, B: StepRef{"Dia", "S3"}},
		},
	}
	mx := CoordSpec{
		Kind:       Mutex,
		Name:       "inventory",
		MutexSteps: []StepRef{{"Lin", "S3"}, {"Dia", "S4"}},
	}
	rd := CoordSpec{
		Kind:    RollbackDep,
		Trigger: StepRef{"Lin", "S2"},
		Target:  StepRef{"Dia", "S1"},
	}
	l.AddCoord(ro)
	l.AddCoord(mx)
	l.AddCoord(rd)

	if !ro.Mentions(StepRef{"Dia", "S3"}) || ro.Mentions(StepRef{"Dia", "S4"}) {
		t.Error("RelativeOrder Mentions wrong")
	}
	if !mx.Mentions(StepRef{"Lin", "S3"}) || mx.Mentions(StepRef{"Lin", "S1"}) {
		t.Error("Mutex Mentions wrong")
	}
	if !rd.Mentions(StepRef{"Dia", "S1"}) || rd.Mentions(StepRef{"Dia", "S2"}) {
		t.Error("RollbackDep Mentions wrong")
	}

	got := l.CoordFor(StepRef{"Lin", "S2"})
	if len(got) != 2 { // relative order pair 2 and rollback trigger
		t.Errorf("CoordFor = %d specs, want 2", len(got))
	}
}

func TestCoordKindAndStepRefString(t *testing.T) {
	if Mutex.String() != "mutex" || RelativeOrder.String() != "relative-order" || RollbackDep.String() != "rollback-dependency" {
		t.Error("CoordKind strings wrong")
	}
	if CoordKind(9).String() != "CoordKind(9)" {
		t.Error("unknown CoordKind should render numerically")
	}
	if (StepRef{"WF1", "S12"}).String() != "WF1.S12" {
		t.Error("StepRef.String wrong")
	}
}

func TestSortedAgents(t *testing.T) {
	l := NewLibrary()
	s := NewSchema("A").
		Step("S1", "p", WithAgents("z", "b")).
		Step("S2", "p", WithAgents("a")).
		Seq("S1", "S2").
		MustBuild()
	l.Add(s)
	got := l.SortedAgents()
	want := []string{"a", "b", "z"}
	if len(got) != 3 {
		t.Fatalf("SortedAgents = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedAgents = %v, want %v", got, want)
		}
	}
}
