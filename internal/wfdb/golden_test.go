package wfdb

import (
	"encoding/hex"
	"testing"

	"crew/internal/cerrors"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// TestRowGoldenBytes pins the bytes of an instance row (a parent, data items
// of every kind, an event table with an invalidated entry, step records with
// and without results, the execution order) and of a summary row, as the
// store receives them. The hex changes only together with rowVersion; a
// refactor of the row codec must leave it as it is.
func TestRowGoldenBytes(t *testing.T) {
	if rowVersion != 2 {
		t.Fatalf("rowVersion %d: the golden bytes below are version 2's", rowVersion)
	}
	ins := NewInstance("WF01", 42, map[string]expr.Value{"I1": expr.Num(2.5), "I2": expr.Str("order-17")})
	ins.Status, ins.Aborting, ins.Epoch = Aborted, true, 3
	ins.Coordinator, ins.NotifyTo = "agent03", "frontend"
	ins.Parent = &ParentRef{Workflow: "WF00", ID: 7, Step: "S9"}
	ins.Data["flag"] = expr.Bool(true)
	ins.Data["none"] = expr.Null()
	ins.Events.Post(event.WorkflowStartName)
	ins.RecordExecuting("S1", "agent01", map[string]expr.Value{"WF.I1": expr.Num(2.5)})
	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Str("x"), "O2": expr.Num(-1)})
	ins.RecordExecuting("S2", "agent02", nil)
	ins.RecordFailed("S2")
	ins.Events.Invalidate(model.StepID("S2").Ref("fail"))
	ins.RecordCompensating("S1", model.ModePartialComp)

	db := NewMemory()
	if err := db.SaveInstance(ins); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSummary("WF01", 42, Committed); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, table, key, want string }{
		{"instance row", tableInstance, ins.Key(), goldenInstanceRow},
		{"summary row", tableSummary, InstanceKeyOf("WF01", 42), goldenSummaryRow},
	} {
		row, ok := db.Store().Get(c.table, c.key)
		if !ok {
			t.Fatalf("%s not stored", c.what)
		}
		if got := hex.EncodeToString(row); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.what, got, c.want)
		}
	}
}

// TestVersion1RowIsRefused: the instance row above as rowVersion 1 wrote it,
// every number in 8 bytes, stored under an archive key, loads as a row this
// build cannot decode, not as a missing one.
func TestVersion1RowIsRefused(t *testing.T) {
	row, err := hex.DecodeString(goldenV1InstanceRow)
	if err != nil {
		t.Fatal(err)
	}
	db := NewMemory()
	if err := db.Store().Put(tableArchive, InstanceKeyOf("WF01", 42), row); err != nil {
		t.Fatal(err)
	}
	ins, ok, err := db.LoadArchived("WF01", 42)
	if ins != nil || !ok || cerrors.CodeOf(err) != cerrors.CodeStoreFormat || cerrors.PhaseOf(err) != cerrors.PhaseDecode {
		t.Errorf("LoadArchived of a version-1 row = (%v, %v, %v), want a %s error in phase %s",
			ins, ok, err, cerrors.CodeStoreFormat, cerrors.PhaseDecode)
	}
}

// What the row encoder wrote at rowVersion 2: the bytes of version 1, less
// seven bytes for each whole number (O2's -1, in the data table and in S1's
// outputs).
const (
	goldenInstanceRow = "02045746303154040306076167656e7430330866726f6e74656e6404574630300e025339060553312e4f310201780553312e4f3204010557462e49310100000000000004400557462e493202086f726465722d313704666c61670301046e6f6e6500030753312e646f6e6502010753322e6661696c02000857462e73746172740201020253310a076167656e743031020106010557462e493101000000000000044002024f31020178024f32040102533206076167656e743032020000000001025331"
	goldenSummaryRow  = "0202"
)

// What the row encoder wrote for the same instance at rowVersion 1.
const goldenV1InstanceRow = "01045746303154040306076167656e7430330866726f6e74656e6404574630300e025339060553312e4f310201780553312e4f3201000000000000f0bf0557462e49310100000000000004400557462e493202086f726465722d313704666c61670301046e6f6e6500030753312e646f6e6502010753322e6661696c02000857462e73746172740201020253310a076167656e743031020106010557462e493101000000000000044002024f31020178024f3201000000000000f0bf02533206076167656e743032020000000001025331"
