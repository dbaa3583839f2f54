package wfdb

import (
	"path/filepath"
	"reflect"
	"testing"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/store"
)

func sampleSchema() *model.Schema {
	return model.NewSchema("Ord", "I1").
		Step("S1", "p1", model.WithOutputs("O1"), model.WithCompensation("c1")).
		Step("S2", "p2", model.WithInputs("S1.O1"), model.WithOutputs("O1")).
		Seq("S1", "S2").
		MustBuild()
}

func TestStatusStrings(t *testing.T) {
	if Running.String() != "running" || Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Error("Status strings wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status")
	}
	for s, want := range map[StepStatus]string{
		StepPending: "pending", StepExecuting: "executing", StepDone: "done",
		StepFailed: "failed", StepCompensated: "compensated", StepStatus(7): "StepStatus(7)",
	} {
		if s.String() != want {
			t.Errorf("StepStatus(%d) = %q, want %q", int(s), s, want)
		}
	}
}

func TestInstanceKeys(t *testing.T) {
	if got := InstanceKeyOf("WF1", 4); got != "WF1.4" {
		t.Errorf("InstanceKeyOf = %q", got)
	}
	wf, id, err := ParseInstanceKey("WF1.4")
	if err != nil || wf != "WF1" || id != 4 {
		t.Errorf("ParseInstanceKey = (%q, %d, %v)", wf, id, err)
	}
	wf, id, err = ParseInstanceKey("A.B.12")
	if err != nil || wf != "A.B" || id != 12 {
		t.Errorf("ParseInstanceKey dotted = (%q, %d, %v)", wf, id, err)
	}
	if _, _, err := ParseInstanceKey("nodot"); err == nil {
		t.Error("ParseInstanceKey should reject keys without a dot")
	}
	if _, _, err := ParseInstanceKey("WF.x"); err == nil {
		t.Error("ParseInstanceKey should reject non-numeric IDs")
	}
}

func TestNewInstanceAndDataFlow(t *testing.T) {
	ins := NewInstance("Ord", 1, map[string]expr.Value{"I1": expr.Num(90)})
	if ins.Key() != "Ord.1" || ins.Status != Running {
		t.Fatalf("bad instance: %+v", ins)
	}
	if v, ok := ins.Data["WF.I1"]; !ok || !v.Equal(expr.Num(90)) {
		t.Error("workflow input not in data table under full name")
	}

	ins.RecordExecuting("S1", "a1", map[string]expr.Value{"WF.I1": expr.Num(90)})
	r := ins.StepRec("S1")
	if r.Status != StepExecuting || r.Agent != "a1" || r.Attempts != 1 {
		t.Errorf("RecordExecuting: %+v", r)
	}

	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(20)})
	if !ins.Executed("S1") {
		t.Error("S1 should be executed")
	}
	if v := ins.Data["S1.O1"]; !v.Equal(expr.Num(20)) {
		t.Error("output not copied to data table")
	}
	if !ins.Events.Has(event.DoneName("S1")) {
		t.Error("step.done not posted")
	}
	if len(ins.ExecOrder) != 1 || ins.ExecOrder[0] != "S1" {
		t.Errorf("ExecOrder = %v", ins.ExecOrder)
	}

	// Env resolves data items.
	ok, err := expr.MustCompile("S1.O1 == 20").EvalBool(ins.Env())
	if err != nil || !ok {
		t.Errorf("Env eval = (%v, %v)", ok, err)
	}

	ins.RecordFailed("S2")
	if !ins.Events.Has(event.FailName("S2")) || ins.StepRec("S2").Status != StepFailed {
		t.Error("RecordFailed incomplete")
	}

	ins.RecordCompensated("S1")
	if ins.Executed("S1") {
		t.Error("compensated step still counts as executed")
	}
	if _, ok := ins.Data["S1.O1"]; ok {
		t.Error("compensation should remove outputs from data table")
	}
	if ins.Events.Has(event.DoneName("S1")) {
		t.Error("compensation should invalidate step.done")
	}
	if !ins.Events.Has(event.CompensatedName("S1")) {
		t.Error("step.compensated not posted")
	}
}

func TestMergeData(t *testing.T) {
	ins := NewInstance("W", 1, nil)
	n := ins.MergeData(map[string]expr.Value{"A": expr.Num(1), "B": expr.Num(2)})
	if n != 2 {
		t.Errorf("MergeData = %d, want 2", n)
	}
	n = ins.MergeData(map[string]expr.Value{"A": expr.Num(1), "B": expr.Num(3)})
	if n != 1 {
		t.Errorf("MergeData with one change = %d, want 1", n)
	}
}

func TestCompletedTerminals(t *testing.T) {
	ins := NewInstance("W", 1, nil)
	ins.RecordDone("S1", nil)
	got := ins.CompletedTerminals([]model.StepID{"S1", "S2"})
	if len(got) != 1 || got[0] != "S1" {
		t.Errorf("CompletedTerminals = %v", got)
	}
}

func TestExecutedMembersInOrder(t *testing.T) {
	ins := NewInstance("W", 1, nil)
	ins.RecordDone("A", nil)
	ins.RecordDone("B", nil)
	ins.RecordDone("C", nil)
	got := ins.ExecutedMembersInOrder([]model.StepID{"C", "A"})
	if len(got) != 2 || got[0] != "A" || got[1] != "C" {
		t.Errorf("ExecutedMembersInOrder = %v, want [A C]", got)
	}
	// Re-execution moves a step later in the order.
	ins.RecordDone("A", nil)
	got = ins.ExecutedMembersInOrder([]model.StepID{"C", "A"})
	if len(got) != 2 || got[0] != "C" || got[1] != "A" {
		t.Errorf("after re-execution = %v, want [C A]", got)
	}
	// Compensated members drop out.
	ins.RecordCompensated("C")
	got = ins.ExecutedMembersInOrder([]model.StepID{"C", "A"})
	if len(got) != 1 || got[0] != "A" {
		t.Errorf("after compensation = %v, want [A]", got)
	}
}

func TestInstanceClone(t *testing.T) {
	ins := NewInstance("W", 1, map[string]expr.Value{"I1": expr.Num(1)})
	ins.RecordExecuting("S1", "a", map[string]expr.Value{"WF.I1": expr.Num(1)})
	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(2)})
	ins.Parent = &ParentRef{Workflow: "P", ID: 9, Step: "N"}
	c := ins.Clone()
	c.Data["WF.I1"] = expr.Num(99)
	c.StepRec("S1").Outputs["O1"] = expr.Num(99)
	c.Events.Invalidate(event.DoneName("S1"))
	c.ExecOrder = append(c.ExecOrder, "S2")
	c.Parent.ID = 1

	if !ins.Data["WF.I1"].Equal(expr.Num(1)) {
		t.Error("Clone shares data table")
	}
	if !ins.StepRec("S1").Outputs["O1"].Equal(expr.Num(2)) {
		t.Error("Clone shares step outputs")
	}
	if !ins.Events.Has(event.DoneName("S1")) {
		t.Error("Clone shares event table")
	}
	if len(ins.ExecOrder) != 1 {
		t.Error("Clone shares exec order")
	}
	if ins.Parent.ID != 9 {
		t.Error("Clone shares parent ref")
	}
}

func TestDBSchemaRoundTrip(t *testing.T) {
	db := NewMemory()
	s := sampleSchema()
	if err := db.SaveSchema(s); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.LoadSchema("Ord")
	if err != nil || !ok {
		t.Fatalf("LoadSchema = (%v, %v)", ok, err)
	}
	if got.Name != "Ord" || len(got.Steps) != 2 || got.Steps["S1"].Compensation != "c1" {
		t.Errorf("schema round-trip lost data: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("round-tripped schema invalid: %v", err)
	}
	if names := db.SchemaNames(); len(names) != 1 || names[0] != "Ord" {
		t.Errorf("SchemaNames = %v", names)
	}
	if _, ok, _ := db.LoadSchema("missing"); ok {
		t.Error("LoadSchema(missing) = ok")
	}
}

func TestDBInstanceRoundTrip(t *testing.T) {
	db := NewMemory()
	ins := NewInstance("Ord", 4, map[string]expr.Value{"I1": expr.Num(90), "I2": expr.Str("Blower")})
	ins.RecordExecuting("S1", "a1", map[string]expr.Value{"WF.I1": expr.Num(90)})
	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(20), "O2": expr.Str("Gasket")})
	ins.RecordFailed("S2")
	ins.Events.Post(event.ExternalName("WF3", 15, "S3.done"))
	ins.Events.Invalidate(event.FailName("S2"))
	ins.Parent = &ParentRef{Workflow: "Parent", ID: 1, Step: "N1"}

	if err := db.SaveInstance(ins); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.LoadInstance("Ord", 4)
	if err != nil || !ok {
		t.Fatalf("LoadInstance = (%v, %v)", ok, err)
	}
	if got.Workflow != "Ord" || got.ID != 4 || got.Status != Running {
		t.Errorf("identity lost: %+v", got)
	}
	if !got.Data["S1.O2"].Equal(expr.Str("Gasket")) || !got.Data["WF.I1"].Equal(expr.Num(90)) {
		t.Error("data table lost")
	}
	if !got.Events.Has(event.DoneName("S1")) {
		t.Error("event table lost valid event")
	}
	if got.Events.Has(event.FailName("S2")) {
		t.Error("invalidated event resurrected")
	}
	if got.Events.Count(event.FailName("S2")) != 1 {
		t.Error("event counts lost")
	}
	if got.StepRec("S1").Attempts != 1 || got.StepRec("S1").Agent != "a1" {
		t.Error("step record lost")
	}
	if got.Parent == nil || got.Parent.Step != "N1" {
		t.Error("parent ref lost")
	}
	if len(got.ExecOrder) != 1 || got.ExecOrder[0] != "S1" {
		t.Error("exec order lost")
	}

	keys := db.InstanceKeys()
	if len(keys) != 1 || keys[0] != "Ord.4" {
		t.Errorf("InstanceKeys = %v", keys)
	}
	if err := db.DeleteInstance("Ord", 4); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.LoadInstance("Ord", 4); ok {
		t.Error("instance survived delete")
	}
}

func TestDBArchive(t *testing.T) {
	db := NewMemory()
	ins := NewInstance("Ord", 7, nil)
	ins.Status = Committed
	if err := db.SaveInstance(ins); err != nil {
		t.Fatal(err)
	}
	if err := db.Archive(ins); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.LoadInstance("Ord", 7); ok {
		t.Error("archived instance still in live table")
	}
	got, ok, err := db.LoadArchived("Ord", 7)
	if err != nil || !ok || got.Status != Committed {
		t.Errorf("LoadArchived = (%+v, %v, %v)", got, ok, err)
	}
	if _, ok, _ := db.LoadArchived("Ord", 8); ok {
		t.Error("LoadArchived of missing instance = ok")
	}
}

func TestDBSummary(t *testing.T) {
	db := NewMemory()
	if err := db.SaveSummary("Ord", 1, Running); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSummary("Ord", 1, Committed); err != nil {
		t.Fatal(err)
	}
	st, ok, err := db.LoadSummary("Ord", 1)
	if err != nil || !ok || st != Committed {
		t.Errorf("LoadSummary = (%v, %v, %v)", st, ok, err)
	}
	if _, ok, _ := db.LoadSummary("Ord", 2); ok {
		t.Error("missing summary = ok")
	}
	if keys := db.SummaryKeys(); len(keys) != 1 || keys[0] != "Ord.1" {
		t.Errorf("SummaryKeys = %v", keys)
	}
}

func TestDBPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wfdb.wal")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db := New(st)
	ins := NewInstance("Ord", 2, map[string]expr.Value{"I1": expr.Num(5)})
	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(10)})
	if err := db.SaveInstance(ins); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSchema(sampleSchema()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db2 := New(st2)
	got, ok, err := db2.LoadInstance("Ord", 2)
	if err != nil || !ok {
		t.Fatalf("recovery failed: (%v, %v)", ok, err)
	}
	if !got.Data["S1.O1"].Equal(expr.Num(10)) {
		t.Error("recovered instance lost data")
	}
	if _, ok, _ := db2.LoadSchema("Ord"); !ok {
		t.Error("recovered db lost schema")
	}
	if db2.Store() == nil {
		t.Error("Store() accessor nil")
	}
}

// TestReserveSizesOnlyFreshInstances: a fresh instance's tables are sized
// from the schema and keep its inputs; an instance that has run is left as
// it is.
func TestReserveSizesOnlyFreshInstances(t *testing.T) {
	s := sampleSchema()
	steps, data, events := s.TableSizes()
	if steps != 2 || data != 3 || events != 3 {
		t.Fatalf("TableSizes = %d, %d, %d; want 2 steps, 3 data items (WF.I1, S1.O1, S2.O1), 3 events", steps, data, events)
	}
	fresh := NewInstance("Ord", 1, map[string]expr.Value{"I1": expr.Num(90)})
	fresh.Reserve(steps, data, events)
	if v, ok := fresh.Data["WF.I1"]; !ok || !v.Equal(expr.Num(90)) {
		t.Error("Reserve lost a workflow input")
	}
	if cap(fresh.ExecOrder) != steps {
		t.Errorf("fresh ExecOrder capacity %d, want %d", cap(fresh.ExecOrder), steps)
	}

	ran := NewInstance("Ord", 2, nil)
	ran.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(1)})
	order, stepTab, dataTab := ran.ExecOrder, ran.Steps, ran.Data
	ran.Reserve(steps, data, events)
	if &ran.ExecOrder[0] != &order[0] || !sameMap(ran.Steps, stepTab) || !sameMap(ran.Data, dataTab) {
		t.Error("Reserve replaced the tables of an instance that has run")
	}
}

func sameMap[K comparable, V any](a, b map[K]V) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}
