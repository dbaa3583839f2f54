package wfdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crew/internal/binenc"
	"crew/internal/cerrors"
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

// TestUnreadableArchiveRowIsAFormatError: an archived row the log no longer
// holds in full (the log cut under a spilled row) loads as a row that is
// there and cannot be read, with CodeStoreFormat, not as a missing one.
func TestUnreadableArchiveRowIsAFormatError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wfdb.wal")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db := New(st)
	if err := db.SpillArchive(); err != nil {
		t.Fatal(err)
	}
	ins := sixStepInstance(3)
	ins.Status = Committed
	if err := db.Archive(ins); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := db.LoadArchived("WF01", 3); !ok || err != nil {
		t.Fatalf("LoadArchived before the cut = (%v, %v)", ok, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.LoadArchived("WF01", 3)
	if got != nil || !ok || cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
		t.Errorf("LoadArchived after the cut = (%v, %v, %v), want code %s", got, ok, err, cerrors.CodeStoreFormat)
	}
}

// TestArchivedStatus: a finished instance's status is its archive row's,
// resident or spilled; a live or unknown instance has no archived status, and
// an archive row that names another instance, or whose leading fields are
// cut, is a format error.
func TestArchivedStatus(t *testing.T) {
	for _, spill := range []bool{false, true} {
		db := NewMemory()
		if spill {
			if err := db.SpillArchive(); err != nil {
				t.Fatal(err)
			}
		}
		done, live := sixStepInstanceOf(1), sixStepInstanceOf(2)
		done.Status = Aborted
		if err := db.SaveInstance(live); err != nil {
			t.Fatal(err)
		}
		if err := db.SaveInstance(done); err != nil {
			t.Fatal(err)
		}
		if err := db.Archive(done); err != nil {
			t.Fatal(err)
		}
		if st, ok, err := db.ArchivedStatus("WF01", 1); st != Aborted || !ok || err != nil {
			t.Errorf("spill=%v: ArchivedStatus of the archived instance = (%v, %v, %v)", spill, st, ok, err)
		}
		for _, id := range []int{2, 3} {
			if _, ok, err := db.ArchivedStatus("WF01", id); ok || err != nil {
				t.Errorf("spill=%v: WF01.%d has an archived status (%v, %v)", spill, id, ok, err)
			}
		}
		if keys := db.ArchiveKeys(); len(keys) != 1 || keys[0] != "WF01.1" {
			t.Errorf("spill=%v: ArchiveKeys = %v", spill, keys)
		}
		row, _ := db.Store().Get(tableArchive, "WF01.1")
		if err := db.Store().Put(tableArchive, "WF01.9", row); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := db.ArchivedStatus("WF01", 9); !ok || cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
			t.Errorf("spill=%v: the row of WF01.1 under WF01.9 = (%v, %v), want code %s", spill, ok, err, cerrors.CodeStoreFormat)
		}
		// The head is the version, the digest, "WF01", 1 and the status.
		for cut := 0; cut < headerLen+len("WF01")+3; cut++ {
			if _, err := rowStatus(row[:cut], "WF01", 1); cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
				t.Fatalf("spill=%v: status of a row cut at %d: %v, want code %s", spill, cut, err, cerrors.CodeStoreFormat)
			}
		}
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

// TestNewInstanceOfSizesTables: an instance made from a schema has its
// tables sized from the schema, keeps its inputs, has the schema attached,
// and hands its step records out of one block.
func TestNewInstanceOfSizesTables(t *testing.T) {
	s := sampleSchema()
	steps, data, events := s.TableSizes()
	if steps != 2 || data != 3 || events != 3 {
		t.Fatalf("TableSizes = %d, %d, %d; want 2 steps, 3 data items (WF.I1, S1.O1, S2.O1), 3 events", steps, data, events)
	}
	ins := NewInstanceOf(s, 1, map[string]expr.Value{"I1": expr.Num(90)})
	if ins.Workflow != "Ord" || ins.ID != 1 || ins.Status != Running {
		t.Errorf("NewInstanceOf = %s.%d %v", ins.Workflow, ins.ID, ins.Status)
	}
	if v, ok := ins.Data["WF.I1"]; !ok || !v.Equal(expr.Num(90)) {
		t.Error("NewInstanceOf lost a workflow input")
	}
	if cap(ins.ExecOrder) != steps || cap(ins.recs) != steps {
		t.Errorf("ExecOrder capacity %d, record block %d, want %d", cap(ins.ExecOrder), cap(ins.recs), steps)
	}
	if ins.schema != s || ins.doneName("S1") != s.DoneEventOf("S1") {
		t.Error("the schema is not attached")
	}
	if s1, s2 := ins.StepRec("S1"), ins.StepRec("S2"); s1 != &ins.recs[0] || s2 != &ins.recs[1] {
		t.Error("the step records do not come out of the instance's block")
	}
	// Past the block, a new one: the records handed out stay where they are.
	s1 := ins.StepRec("S1")
	if extra := ins.StepRec("X"); extra == s1 || ins.StepRec("S1") != s1 || ins.Steps["S1"] != s1 {
		t.Error("a record past the block moved or reused an earlier one")
	}
}

// TestReuseIsNewInstanceOf: an instance that ran, failed, was saved and
// carries every scalar, emptied by Reuse, is NewInstanceOf's instance of the
// same schema and id, row for row, and keeps its tables and record block.
func TestReuseIsNewInstanceOf(t *testing.T) {
	s := sampleSchema()
	ins := NewInstanceOf(s, 1, map[string]expr.Value{"I1": expr.Num(90)})
	ins.RecordExecuting("S1", "a1", map[string]expr.Value{"WF.I1": expr.Num(90)})
	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(1)})
	ins.RecordFailed("S2")
	ins.Events.Invalidate(s.DoneEventOf("S1"))
	ins.StepRec("X") // past the block
	ins.Status, ins.Aborting, ins.Epoch, ins.Coordinator, ins.NotifyTo = Aborted, true, 3, "a1", "fe"
	ins.Parent = &ParentRef{Workflow: "P", ID: 7, Step: "N"}
	var b Batch
	b.SaveInstance(ins)
	data, steps, events, rec := ins.Data, ins.Steps, ins.Events, &ins.recs[0]

	ins.Reuse(s, 2)
	fresh := NewInstanceOf(s, 2, nil)
	if !reflect.DeepEqual(ins, fresh) {
		t.Errorf("reused instance %+v, want %+v", ins, fresh)
	}
	if got, want := new(binenc.Walker).Append(nil, ins), new(binenc.Walker).Append(nil, fresh); !bytes.Equal(got, want) {
		t.Errorf("reused instance's row %x, want %x", got, want)
	}
	same := func(a, b any) bool { return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer() }
	if !same(ins.Data, data) || !same(ins.Steps, steps) || ins.Events != events || ins.StepRec("S1") != rec {
		t.Error("Reuse did not keep the instance's tables and record block")
	}
}

// TestFreshInstanceAllocBudget: an instance of a validated ten-step schema,
// with a record for every step, costs its struct, its tables, its execution
// order, its record block and the name of its input; the records cost
// nothing more.
func TestFreshInstanceAllocBudget(t *testing.T) {
	sb := model.NewSchema("WF01", "I1")
	ids := make([]model.StepID, 10)
	for i := range ids {
		ids[i] = model.StepID(fmt.Sprintf("S%d", i+1))
		sb.Step(ids[i], "p", model.WithOutputs("O1"))
	}
	s := sb.Seq(ids...).MustBuild()
	inputs := map[string]expr.Value{"I1": expr.Num(90)}
	const budget = 17
	if got := testing.AllocsPerRun(200, func() {
		ins := NewInstanceOf(s, 1, inputs)
		for _, id := range ids {
			ins.StepRec(id)
		}
	}); got > budget {
		t.Errorf("NewInstanceOf and a record per step: %.0f allocs, budget %d", got, budget)
	}
}
