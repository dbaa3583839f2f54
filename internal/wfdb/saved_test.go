package wfdb_test

import (
	"bytes"
	"testing"

	"crew/internal/binenc"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/wfdb"
)

// TestSavedRowMatchesFreshWalk: a saved instance keeps its step records'
// bytes between saves and walks only the records that changed. Driven
// through every Instance mutator, and through the writes to step records made
// outside wfdb (nav's reset and loop-back, a replica's status promotion on a
// merged done event, a reload's reset to pending, a clone), with a save after
// each step, every row SaveInstance writes equals a walk of the instance
// without the kept bytes, and a walk of its clone.
func TestSavedRowMatchesFreshWalk(t *testing.T) {
	saves := 0
	wfdb.CheckSaves(func(key string, saved, fresh []byte) {
		saves++
		if !bytes.Equal(saved, fresh) {
			t.Errorf("save %d of %s: the saved row differs from a fresh walk\n saved %x\n fresh %x", saves, key, saved, fresh)
		}
	})
	defer wfdb.CheckSaves(nil)

	schema := model.NewSchema("WF").
		Step("A", "p").Step("B", "p").Step("C", "p").Step("D", "p").
		Seq("A", "B", "C", "D").
		MustBuild()
	db := wfdb.NewMemory()
	var b wfdb.Batch
	in := func(v float64) map[string]expr.Value { return map[string]expr.Value{"WF.I1": expr.Num(v)} }
	out := func(v float64) map[string]expr.Value {
		return map[string]expr.Value{"O1": expr.Num(v), "O2": expr.Str("x")}
	}
	inB := in(2)

	ins := wfdb.NewInstanceOf(schema, 1, map[string]expr.Value{"I1": expr.Num(1)})
	clone := ins // replaced by a clone half way; saved alongside from then on
	steps := []struct {
		what string
		do   func()
	}{
		{"fresh instance of the schema", func() {}},
		{"start event", func() { ins.Events.Post(event.WorkflowStartName) }},
		{"data", func() {
			ins.SetData("WF.I2", expr.Bool(true))
			ins.MergeData(map[string]expr.Value{"WF.I3": expr.Null()})
		}},
		{"A executing", func() { ins.RecordExecuting("A", "agent1", in(1)) }},
		{"A done", func() { ins.RecordDone("A", out(1)) }},
		{"B executing", func() { ins.RecordExecuting("B", "agent2", in(2)) }},
		{"B failed", func() { ins.RecordFailed("B") }},
		{"B retried", func() { ins.RecordExecuting("B", "agent2", inB) }},
		{"B dispatched again: attempts alone changed", func() { ins.RecordExecuting("B", "agent2", inB) }},
		{"B moved: agent alone changed", func() { ins.StepRec("B").Agent = "agent5" }},
		{"B done", func() { ins.RecordDone("B", out(2)) }},
		{"B's result replaced: outputs alone changed", func() { ins.RecordDone("B", out(3)) }},
		{"B's inputs replaced: inputs alone changed", func() { ins.StepRec("B").Inputs = in(4) }},
		{"empty record", func() { ins.StepRec("C") }},
		{"C executing with no inputs", func() { ins.RecordExecuting("C", "agent3", nil) }},
		{"C done", func() { ins.RecordDone("C", nil) }},
		{"clone", func() { clone = ins.Clone(); clone.ID = 2 }},
		{"A compensating", func() { ins.RecordCompensating("A", model.ModePartialComp) }},
		{"A's compensation mode alone changed", func() { ins.RecordCompensating("A", model.ModeCompensate) }},
		{"A compensated", func() { ins.RecordCompensated("A") }},
		{"B's events reset", func() { ins.ResetStepEvents("B") }},
		{"nav.ResetSteps", func() { nav.ResetSteps(ins, nil, []model.StepID{"B", "C"}) }},
		{"replica promotes merged done", func() {
			if r := ins.StepRec("B"); r.Status == wfdb.StepPending || r.Status == wfdb.StepCompensated {
				r.Status = wfdb.StepDone
			}
		}},
		{"nav.ApplyLoopBack", func() { nav.ApplyLoopBack(schema, ins, nil, "A", "C") }},
		{"clone diverges", func() { clone.RecordExecuting("D", "agent4", in(5)); clone.RecordDone("A", out(6)) }},
		{"D executing", func() { ins.RecordExecuting("D", "agent4", in(7)) }},
		{"instance scalars", func() {
			ins.Aborting, ins.Epoch, ins.Coordinator, ins.NotifyTo = true, 2, "agent2", "frontend"
			ins.Parent = &wfdb.ParentRef{Workflow: "P", ID: 9, Step: "S"}
		}},
		{"record removed", func() { delete(ins.Steps, "C") }},
		{"record added outside StepRec", func() { ins.Steps["E"] = &wfdb.StepRecord{Status: wfdb.StepDone, Agent: "agent6"} }},
		{"one record removed, another added", func() {
			delete(ins.Steps, "E")
			ins.Steps["F"] = &wfdb.StepRecord{Agent: "agent7", Inputs: in(10)}
		}},
		{"record replaced by an equal copy", func() { cp := *ins.Steps["A"]; ins.Steps["A"] = &cp }},
		{"reload resets executing to pending", func() {
			loaded, ok, err := db.LoadInstance("WF", 1)
			if err != nil || !ok {
				t.Fatalf("reload: %v, %v", ok, err)
			}
			for _, rec := range loaded.Steps {
				if rec.Status == wfdb.StepExecuting {
					rec.Status = wfdb.StepPending
				}
			}
			b.SaveInstance(loaded)
			loaded.RecordExecuting("D", "agent1", in(8))
			ins = loaded
		}},
		{"committed", func() { ins.Status = wfdb.Committed }},
	}
	for _, s := range steps {
		before := saves
		s.do()
		b.SaveInstance(ins)
		if clone != ins {
			b.SaveInstance(clone)
		}
		if err := db.Commit(&b); err != nil {
			t.Fatalf("%s: %v", s.what, err)
		}
		if saves == before {
			t.Fatalf("%s: SaveInstance did not call the check", s.what)
		}
		row, ok := db.Store().Get("instance", ins.Key())
		if !ok || !bytes.Equal(row, wfdb.AppendRow(new(binenc.Walker), nil, ins.Clone())) {
			t.Fatalf("%s: the stored row differs from a walk of a clone", s.what)
		}
	}
	// The archive row takes the kept bytes of the records the last save saw
	// and walks the one changed since.
	ins.RecordDone("D", out(9))
	if err := db.Archive(ins); err != nil {
		t.Fatal(err)
	}
	archived, _, err := db.LoadArchived("WF", 1)
	if err != nil {
		t.Fatal(err)
	}
	var w binenc.Walker
	w.SetNames(schema.Names())
	if got, want := w.Append(nil, archived), w.Append(nil, ins); !bytes.Equal(got, want) {
		t.Error("the archive row differs from the instance it was taken from")
	}
}
