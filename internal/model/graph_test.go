package model

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestStartAndTerminalSteps(t *testing.T) {
	s := diamond(t)
	if got := s.StartSteps(); len(got) != 1 || got[0] != "S1" {
		t.Errorf("StartSteps = %v", got)
	}
	if got := s.TerminalSteps(); len(got) != 1 || got[0] != "S4" {
		t.Errorf("TerminalSteps = %v", got)
	}

	multi := NewSchema("M").
		Step("A", "p").
		Step("B", "p").
		Step("C", "p").
		Step("D", "p").
		Arc("A", "C").
		Arc("B", "D").
		MustBuild()
	if got := multi.StartSteps(); len(got) != 2 {
		t.Errorf("multi StartSteps = %v", got)
	}
	if got := multi.TerminalSteps(); len(got) != 2 {
		t.Errorf("multi TerminalSteps = %v", got)
	}
}

func TestLoopArcsDoNotAffectStartTerminal(t *testing.T) {
	s := NewSchema("L").
		Step("A", "p", WithOutputs("O1")).
		Step("B", "p").
		Arc("A", "B").
		LoopArc("B", "A", "A.O1 < 3").
		MustBuild()
	if got := s.StartSteps(); len(got) != 1 || got[0] != "A" {
		t.Errorf("StartSteps = %v", got)
	}
	if got := s.TerminalSteps(); len(got) != 1 || got[0] != "B" {
		t.Errorf("TerminalSteps = %v", got)
	}
	if got := s.LoopArcs("B"); len(got) != 1 || got[0].To != "A" {
		t.Errorf("LoopArcs = %v", got)
	}
	if got := s.LoopArcs("A"); len(got) != 0 {
		t.Errorf("LoopArcs(A) = %v", got)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	s := diamond(t)
	succ := s.ControlSuccessors("S1")
	if len(succ) != 2 || succ[0].To != "S2" || succ[1].To != "S3" {
		t.Errorf("ControlSuccessors(S1) = %v", succ)
	}
	pred := s.ControlPredecessors("S4")
	if len(pred) != 2 || pred[0] != "S2" || pred[1] != "S3" {
		t.Errorf("ControlPredecessors(S4) = %v", pred)
	}
	if got := s.ControlSuccessors("S4"); len(got) != 0 {
		t.Errorf("ControlSuccessors(S4) = %v", got)
	}
}

func TestBranchClassification(t *testing.T) {
	d := diamond(t)
	if !d.IsParallelBranch("S1") || d.IsBranching("S1") {
		t.Error("diamond S1 should be a parallel branch")
	}
	if !d.IsConfluence("S4") || d.IsConfluence("S2") {
		t.Error("diamond S4 confluence classification wrong")
	}

	ie := ifElse(t)
	if !ie.IsBranching("S2") || ie.IsParallelBranch("S2") {
		t.Error("ifElse S2 should be an if-then-else branch")
	}
	if ie.IsBranching("S1") || ie.IsParallelBranch("S1") {
		t.Error("single-successor step misclassified")
	}
	if !ie.IsConfluence("S5") {
		t.Error("S5 should be a confluence")
	}
}

func TestDescendants(t *testing.T) {
	s := ifElse(t)
	d := s.Descendants("S2")
	for _, id := range []StepID{"S3", "S4", "S5", "S6"} {
		if !d[id] {
			t.Errorf("Descendants(S2) missing %s", id)
		}
	}
	if d["S1"] || d["S2"] {
		t.Error("Descendants should exclude ancestors and self")
	}
	di := s.DescendantsInclusive("S2")
	if !di["S2"] {
		t.Error("DescendantsInclusive should include origin")
	}
}

func TestLoopBody(t *testing.T) {
	s := NewSchema("L").
		Step("A", "p").
		Step("B", "p", WithOutputs("O1")).
		Step("C", "p").
		Step("D", "p").
		Seq("A", "B", "C", "D").
		LoopArc("C", "B", "B.O1 < 3").
		MustBuild()
	body := s.LoopBody("B", "C")
	if len(body) != 2 || body[0] != "B" || body[1] != "C" {
		t.Errorf("LoopBody = %v, want [B C]", body)
	}
	// Loop body with an internal branch.
	s2 := NewSchema("L2").
		Step("A", "p").
		Step("B", "p", WithOutputs("O1")).
		Step("X", "p").
		Step("Y", "p").
		Step("C", "p", WithJoin(JoinAll)).
		Step("D", "p").
		Arc("A", "B").
		Arc("B", "X").
		Arc("B", "Y").
		Arc("X", "C").
		Arc("Y", "C").
		Arc("C", "D").
		LoopArc("C", "B", "B.O1 < 3").
		MustBuild()
	body2 := s2.LoopBody("B", "C")
	want := map[StepID]bool{"B": true, "X": true, "Y": true, "C": true}
	if len(body2) != len(want) {
		t.Fatalf("LoopBody = %v", body2)
	}
	for _, id := range body2 {
		if !want[id] {
			t.Fatalf("LoopBody contains unexpected %s", id)
		}
	}
}

func TestDataSourceStepsAndProducer(t *testing.T) {
	s := linear(t)
	src := s.DataSourceSteps("S3")
	if len(src) != 1 || src[0] != "S2" {
		t.Errorf("DataSourceSteps(S3) = %v, want [S2]", src)
	}
	if got := s.ProducerOf("S1.O1"); got != "S1" {
		t.Errorf("ProducerOf(S1.O1) = %v", got)
	}
	if got := s.ProducerOf("WF.I1"); got != "" {
		t.Errorf("ProducerOf(WF.I1) = %v, want \"\"", got)
	}
	if got := s.DataSourceSteps("missing"); got != nil {
		t.Errorf("DataSourceSteps(missing) = %v", got)
	}
}

func TestTopoOrder(t *testing.T) {
	s := diamond(t)
	order := s.TopoOrder()
	if len(order) != 4 {
		t.Fatalf("TopoOrder = %v", order)
	}
	pos := make(map[StepID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, a := range s.Arcs {
		if a.Kind == Control && !a.Loop && pos[a.From] >= pos[a.To] {
			t.Errorf("TopoOrder violates arc %s->%s: %v", a.From, a.To, order)
		}
	}
	if order[0] != "S1" {
		t.Errorf("TopoOrder should start with S1: %v", order)
	}
}

func TestPathExists(t *testing.T) {
	s := ifElse(t)
	if !s.PathExists("S1", "S5") {
		t.Error("S1 should reach S5")
	}
	if s.PathExists("S4", "S3") {
		t.Error("S4 should not reach S3")
	}
	if !s.PathExists("S3", "S3") {
		t.Error("trivial path to self")
	}
}

// Property: for random linear chains, TopoOrder equals definition order and
// Descendants of the i-th step has len n-1-i.
func TestPropertyLinearChains(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 2
		b := NewSchema("Chain")
		var ids []StepID
		for i := 0; i < n; i++ {
			id := StepID(string(rune('A' + i)))
			ids = append(ids, id)
			b.Step(id, "p")
		}
		b.Seq(ids...)
		s := b.MustBuild()
		order := s.TopoOrder()
		if len(order) != n {
			return false
		}
		for i := range ids {
			if order[i] != ids[i] {
				return false
			}
			if len(s.Descendants(ids[i])) != n-1-i {
				return false
			}
		}
		return len(s.StartSteps()) == 1 && len(s.TerminalSteps()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNameTable: a schema's name table lists, in schema order and
// each once, the step ids, the workflow inputs, each output's full and short
// name, the workflow events and each step's events. Its digest changes when
// any name changes and not otherwise.
func TestNameTable(t *testing.T) {
	build := func(in, out2, agent string) *Schema {
		return NewSchema("W", in).
			Step("S1", "p", WithOutputs("O1"), WithAgents("a1", "a2")).
			Step("S2", "p", WithOutputs("O1", out2), WithAgents("a2", agent)).
			Seq("S1", "S2").MustBuild()
	}
	s := build("I1", "O2", "a3")
	want := []string{
		"S1", "S2", "WF.I1",
		"S1.O1", "O1", "S2.O1", "S2.O2", "O2",
		"WF.start", "WF.done", "WF.abort",
		"S1.done", "S1.fail", "S1.compensated", "S2.done", "S2.fail", "S2.compensated",
		"a1", "a2", "a3", // each agent once
	}
	if got := s.Names().List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("name table:\n got  %q\n want %q", got, want)
	}
	d := s.Names().Digest()
	clone := s.Clone()
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	if d == 0 || build("I1", "O2", "a3").Names().Digest() != d || clone.Names().Digest() != d {
		t.Error("the same names gave another digest")
	}
	for what, other := range map[string]*Schema{
		"an input renamed":  build("I9", "O2", "a3"),
		"an output renamed": build("I1", "O3", "a3"),
		"an agent renamed":  build("I1", "O2", "a4"),
		"a step added":      NewSchema("W", "I1").Step("S1", "p", WithOutputs("O1"), WithAgents("a1", "a2")).Step("S2", "p", WithOutputs("O1", "O2"), WithAgents("a2", "a3")).Step("S3", "p").Seq("S1", "S2", "S3").MustBuild(),
	} {
		if other.Names().Digest() == d {
			t.Errorf("%s: the digest did not change", what)
		}
	}
	s.AddStep(&Step{ID: "S3", Program: "p"})
	if s.Names().Digest() == d {
		t.Error("a mutated schema kept its name table")
	}
}
