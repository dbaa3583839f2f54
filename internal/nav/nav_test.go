package nav

import (
	"testing"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/rules"
	"crew/internal/wfdb"
)

// fig3 builds S1 -> S2 -> (S3 -> S4 | S6) -> S5 (XOR join).
func fig3(t *testing.T) *model.Schema {
	t.Helper()
	return model.NewSchema("Fig3", "I1").
		Step("S1", "p1").
		Step("S2", "p2", model.WithOutputs("O1")).
		Step("S3", "p3", model.WithCompensation("c3")).
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

func parallel(t *testing.T) *model.Schema {
	t.Helper()
	return model.NewSchema("Par").
		Step("A", "p").
		Step("B", "p").
		Step("C", "p").
		Arc("A", "B").
		Arc("A", "C").
		MustBuild()
}

func TestPotentialTerminalsConservativeBeforeBranch(t *testing.T) {
	s := fig3(t)
	ins := wfdb.NewInstance("Fig3", 1, nil)
	terms := PotentialTerminals(s, ins)
	if len(terms) != 1 || terms[0] != "S5" {
		t.Errorf("terminals = %v, want [S5]", terms)
	}
	if ShouldCommit(s, ins) {
		t.Error("fresh instance should not commit")
	}
}

func TestPotentialTerminalsPrunesUntakenBranch(t *testing.T) {
	s := parallel(t)
	ins := wfdb.NewInstance("Par", 1, nil)
	// Both B and C are terminals; before A executes both are potential.
	if got := PotentialTerminals(s, ins); len(got) != 2 {
		t.Errorf("terminals = %v", got)
	}
	ins.RecordDone("A", nil)
	ins.RecordDone("B", nil)
	if ShouldCommit(s, ins) {
		t.Error("parallel workflow must wait for both branches")
	}
	ins.RecordDone("C", nil)
	if !ShouldCommit(s, ins) {
		t.Error("both branches done: should commit")
	}
}

func TestShouldCommitIfThenElse(t *testing.T) {
	s := fig3(t)
	ins := wfdb.NewInstance("Fig3", 1, nil)
	ins.RecordDone("S1", nil)
	ins.RecordDone("S2", map[string]expr.Value{"O1": expr.Num(5)}) // top branch
	ins.RecordDone("S3", nil)
	ins.RecordDone("S4", nil)
	if ShouldCommit(s, ins) {
		t.Error("should not commit before S5")
	}
	ins.RecordDone("S5", nil)
	if !ShouldCommit(s, ins) {
		t.Error("top branch complete: should commit (S6 unreachable)")
	}
}

func TestShouldCommitRespectsStatus(t *testing.T) {
	s := parallel(t)
	ins := wfdb.NewInstance("Par", 1, nil)
	for _, id := range []model.StepID{"A", "B", "C"} {
		ins.RecordDone(id, nil)
	}
	ins.Status = wfdb.Aborted
	if ShouldCommit(s, ins) {
		t.Error("aborted instance must not commit")
	}
}

func TestInvalidationSet(t *testing.T) {
	s := fig3(t)
	got := InvalidationSet(s, "S2")
	want := map[model.StepID]bool{"S3": true, "S4": true, "S5": true, "S6": true}
	if len(got) != len(want) {
		t.Fatalf("InvalidationSet = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected member %s", id)
		}
	}
}

func TestResetStepsAndApplyRollback(t *testing.T) {
	s := fig3(t)
	ins := wfdb.NewInstance("Fig3", 1, nil)
	eng := rules.NewEngine()
	rules.InstallSchemaRules(eng, s)

	ins.Events.Post(event.WorkflowStartName)
	ins.RecordDone("S1", nil)
	ins.RecordDone("S2", map[string]expr.Value{"O1": expr.Num(5)})
	ins.RecordDone("S3", nil)
	ins.RecordFailed("S4")

	affected, invalidated := ApplyRollback(s, ins, eng, "S2")
	if len(affected) != 4 {
		t.Errorf("affected = %v", affected)
	}
	// Invalidated: S3.done, S4.fail, S2.done => 3 events.
	if invalidated != 3 {
		t.Errorf("invalidated = %d, want 3", invalidated)
	}
	if ins.Events.Has(event.DoneName("S2")) || ins.Events.Has(event.DoneName("S3")) || ins.Events.Has(event.FailName("S4")) {
		t.Error("events not invalidated")
	}
	if ins.StepRec("S3").Status != wfdb.StepPending {
		t.Error("S3 status not reset")
	}
	// Previous execution info retained for OCR.
	if ins.StepRec("S2").Outputs == nil {
		t.Error("rollback must retain previous outputs for OCR")
	}
	// Rules re-armed: S1.done still valid so S2's rule can refire after
	// S1.done recount — simulate re-execution of S2 via re-posted event.
	ins.Events.Post(event.DoneName("S1"))
	fired, err := eng.Evaluate(ins.Events, ins.Env())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range fired {
		if r.Step == "S2" {
			found = true
		}
	}
	if !found {
		t.Errorf("S2 rule did not refire after rollback: %v", fired)
	}
}

func TestApplyLoopBack(t *testing.T) {
	s := model.NewSchema("Loop").
		Step("A", "p").
		Step("B", "p", model.WithOutputs("O1")).
		Step("C", "p").
		Seq("A", "B", "C").
		LoopArc("B", "B", "B.O1 < 3").
		MustBuild()
	ins := wfdb.NewInstance("Loop", 1, nil)
	ins.RecordDone("A", nil)
	ins.RecordDone("B", map[string]expr.Value{"O1": expr.Num(1)})
	body := ApplyLoopBack(s, ins, nil, "B", "B")
	if len(body) != 1 || body[0] != "B" {
		t.Errorf("body = %v", body)
	}
	if ins.Events.Has(event.DoneName("B")) {
		t.Error("loop body event not invalidated")
	}
	if ins.Events.Count(event.DoneName("B")) != 1 {
		t.Error("loop body count lost")
	}
	if !ins.Events.Has(event.DoneName("A")) {
		t.Error("steps outside body must keep their events")
	}
}

func TestElectAgentDeterministicAndAliveAware(t *testing.T) {
	eligible := []string{"a3", "a1", "a2"}
	got1 := ElectAgent(eligible, "WF", 7, "S1", nil)
	got2 := ElectAgent([]string{"a1", "a2", "a3"}, "WF", 7, "S1", nil)
	if got1 == "" || got1 != got2 {
		t.Errorf("election not deterministic: %q vs %q", got1, got2)
	}
	// Different step can elect a different agent; at minimum it stays valid.
	other := ElectAgent(eligible, "WF", 7, "S2", nil)
	valid := map[string]bool{"a1": true, "a2": true, "a3": true}
	if !valid[other] {
		t.Errorf("elected unknown agent %q", other)
	}
	// Dead agents are skipped.
	alive := func(a string) bool { return a != got1 }
	alt := ElectAgent(eligible, "WF", 7, "S1", alive)
	if alt == got1 || alt == "" {
		t.Errorf("election ignored alive predicate: %q", alt)
	}
	// No candidates.
	if got := ElectAgent(eligible, "WF", 7, "S1", func(string) bool { return false }); got != "" {
		t.Errorf("election with no alive agents = %q", got)
	}
	if got := ElectAgent(nil, "WF", 7, "S1", nil); got != "" {
		t.Errorf("election with no eligible agents = %q", got)
	}
}

func TestElectAgentSpreadsLoad(t *testing.T) {
	eligible := []string{"a1", "a2", "a3", "a4"}
	counts := make(map[string]int)
	for i := 0; i < 400; i++ {
		counts[ElectAgent(eligible, "WF", i, "S1", nil)]++
	}
	for _, a := range eligible {
		if counts[a] == 0 {
			t.Errorf("agent %s never elected: %v", a, counts)
		}
	}
}

func TestActiveBranchTargets(t *testing.T) {
	s := fig3(t)
	ins := wfdb.NewInstance("Fig3", 1, nil)
	ins.RecordDone("S2", map[string]expr.Value{"O1": expr.Num(5)})
	got := ActiveBranchTargets(s, ins, "S2")
	if len(got) != 1 || got[0] != "S3" {
		t.Errorf("targets = %v, want [S3]", got)
	}
	ins2 := wfdb.NewInstance("Fig3", 2, nil)
	ins2.RecordDone("S2", map[string]expr.Value{"O1": expr.Num(-1)})
	got = ActiveBranchTargets(s, ins2, "S2")
	if len(got) != 1 || got[0] != "S6" {
		t.Errorf("targets = %v, want [S6]", got)
	}
	// Unconditional arcs: all targets.
	p := parallel(t)
	insP := wfdb.NewInstance("Par", 1, nil)
	insP.RecordDone("A", nil)
	if got := ActiveBranchTargets(p, insP, "A"); len(got) != 2 {
		t.Errorf("parallel targets = %v", got)
	}
	// Unevaluable condition: branch not taken.
	insU := wfdb.NewInstance("Fig3", 3, nil)
	insU.RecordDone("S2", nil) // no O1 output: conditions compare null
	if got := ActiveBranchTargets(s, insU, "S2"); len(got) != 0 {
		t.Errorf("unevaluable condition targets = %v", got)
	}
}

func TestAbandonedBranchSteps(t *testing.T) {
	s := fig3(t)
	ins := wfdb.NewInstance("Fig3", 1, nil)
	ins.RecordDone("S1", nil)
	ins.RecordDone("S2", map[string]expr.Value{"O1": expr.Num(-1)}) // now bottom branch
	ins.RecordDone("S3", nil)                                       // executed on a previous pass
	got := AbandonedBranchSteps(s, ins, "S2", []model.StepID{"S6"})
	if len(got) != 1 || got[0] != "S3" {
		t.Errorf("abandoned = %v, want [S3]", got)
	}
	// S5 is shared via the confluence: never abandoned.
	ins.RecordDone("S5", nil)
	got = AbandonedBranchSteps(s, ins, "S2", []model.StepID{"S6"})
	for _, id := range got {
		if id == "S5" {
			t.Error("confluence step wrongly marked abandoned")
		}
	}
}
