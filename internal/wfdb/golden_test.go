package wfdb

import (
	"encoding/hex"
	"testing"

	"crew/internal/cerrors"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// goldenSchema declares most of the names goldenState gives an instance:
// all but two data items, the parent ref and S2's agent.
func goldenSchema() *model.Schema {
	return model.NewSchema("WF01", "I1", "I2").
		Step("S1", "p", model.WithOutputs("O1", "O2"), model.WithAgents("agent01")).
		Step("S2", "p").
		Seq("S1", "S2").MustBuild()
}

// goldenState gives ins a parent, data items of every kind (two that no
// schema declares), an event table with an invalidated entry and an external
// event, step records with and without results, and the execution order.
func goldenState(ins *Instance) {
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
}

var goldenInputs = map[string]expr.Value{"I1": expr.Num(2.5), "I2": expr.Str("order-17")}

// TestRowGoldenBytes pins the bytes of an instance row with no schema, where
// every name is a literal, of the same instance attached to a schema, where
// the names the schema declares are indexes, and of that schema's name-table
// row, as the store receives them. The hex changes only
// together with rowVersion; a refactor of the row codec must leave it as it
// is.
func TestRowGoldenBytes(t *testing.T) {
	if rowVersion != 5 {
		t.Fatalf("rowVersion %d: the golden bytes below are version 5's", rowVersion)
	}
	literal := NewInstance("WF01", 42, goldenInputs)
	goldenState(literal)
	schema := goldenSchema()
	attached := NewInstanceOf(schema, 43, goldenInputs)
	goldenState(attached)
	attached.Events.Post("ext:WF00.7:S9.done")

	db := NewMemory()
	var b Batch
	b.SaveInstance(literal)
	b.SaveInstance(attached)
	if err := db.Commit(&b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, table, key, want string }{
		{"literal instance row", tableInstance, literal.Key(), goldenInstanceRow},
		{"attached instance row", tableInstance, attached.Key(), goldenAttachedRow},
		{"name-table row", tableNames, namesKey(schema.Names().Digest()), goldenNamesRow},
	} {
		row, ok := db.Store().Get(c.table, c.key)
		if !ok {
			t.Fatalf("%s not stored", c.what)
		}
		if got := hex.EncodeToString(row); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.what, got, c.want)
		}
	}
	if n := db.Store().Len(tableNames); n != 1 {
		t.Errorf("%d name tables stored, want the schema's alone", n)
	}
}

// TestVersion2RowIsRefused: the literal instance row above as rowVersion 2
// wrote it, every name a string and no digest, stored under an archive key,
// loads as a row this build cannot decode, not as a missing one.
func TestVersion2RowIsRefused(t *testing.T) { testOldRowIsRefused(t, goldenV2InstanceRow) }

// TestVersion3RowIsRefused: the same for rowVersion 3's literal row, whose
// header has this version's layout but whose data table comes before its
// step table.
func TestVersion3RowIsRefused(t *testing.T) { testOldRowIsRefused(t, goldenV3InstanceRow) }

// TestVersion4RowIsRefused: the same for rowVersion 4's literal row, whose
// header and table order are this version's but whose step records and
// event entries write each scalar on its own.
func TestVersion4RowIsRefused(t *testing.T) { testOldRowIsRefused(t, goldenV4InstanceRow) }

func testOldRowIsRefused(t *testing.T, golden string) {
	row, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	db := NewMemory()
	if err := db.Store().Put(tableArchive, InstanceKeyOf("WF01", 42), row); err != nil {
		t.Fatal(err)
	}
	ins, ok, err := db.LoadArchived("WF01", 42)
	if ins != nil || !ok || cerrors.CodeOf(err) != cerrors.CodeStoreFormat || cerrors.PhaseOf(err) != cerrors.PhaseDecode {
		t.Errorf("LoadArchived of an old row = (%v, %v, %v), want a %s error in phase %s",
			ins, ok, err, cerrors.CodeStoreFormat, cerrors.PhaseDecode)
	}
}

// What the row encoder writes at rowVersion 5. The literal row writes every
// name as 0 then the string; the attached row writes each name its schema
// declares, S1's agent among them, as one byte, and its undeclared data
// items, parent, S2's agent and external event as literals. In both, S1.O1
// and S1.O2 are tag 1, a reference to S1's outputs, and the other data
// items tag 0 and their value. S1's scalars are the one byte 7d (one
// attempt, a partial compensation, a result, compensating), S2's 43 (one
// attempt, failed); S1.done is 03 (once, valid) and S2.fail 02 (once,
// invalidated).
const (
	goldenInstanceRow = "050000000000000000045746303154040306076167656e7430330866726f6e74656e6404574630300e02533902000253317d00076167656e74303101000557462e49310100000000000004400200024f3102017800024f320401000253324300076167656e743032000006000553312e4f3101000553312e4f3201000557462e493100010000000000000440000557462e49320002086f726465722d31370004666c616700030100046e6f6e65000003000753312e646f6e6503000753322e6661696c02000857462e7374617274030100025331"
	goldenAttachedRow = "057586e9bc414af8f5045746303156040306076167656e7430330866726f6e74656e6404574630300e02533902017d1201030100000000000004400206020178080401024300076167656e7430320000060300010000000000000440040002086f726465722d3137050107010004666c616700030100046e6f6e6500000409030c03100200126578743a574630302e373a53392e646f6e65030101"
	goldenNamesRow    = "05120253310253320557462e49310557462e49320553312e4f31024f310553312e4f32024f320857462e73746172740757462e646f6e650857462e61626f72740753312e646f6e650753312e6661696c0e53312e636f6d70656e73617465640753322e646f6e650753322e6661696c0e53322e636f6d70656e7361746564076167656e743031"
)

// What the row encoder wrote for the literal instance at rowVersion 4, 3 and
// 2.
const (
	goldenV4InstanceRow = "040000000000000000045746303154040306076167656e7430330866726f6e74656e6404574630300e02533902000253310a00076167656e74303102010601000557462e49310100000000000004400200024f3102017800024f320401000253320600076167656e743032020000000006000553312e4f3101000553312e4f3201000557462e493100010000000000000440000557462e49320002086f726465722d31370004666c616700030100046e6f6e65000003000753312e646f6e650201000753322e6661696c0200000857462e737461727402010100025331"
	goldenV3InstanceRow = "030000000000000000045746303154040306076167656e7430330866726f6e74656e6404574630300e02533906000553312e4f31020178000553312e4f320401000557462e4931010000000000000440000557462e493202086f726465722d31370004666c6167030100046e6f6e650003000753312e646f6e650201000753322e6661696c0200000857462e7374617274020102000253310a076167656e74303102010601000557462e49310100000000000004400200024f3102017800024f3204010002533206076167656e74303202000000000100025331"
	goldenV2InstanceRow = "02045746303154040306076167656e7430330866726f6e74656e6404574630300e025339060553312e4f310201780553312e4f3204010557462e49310100000000000004400557462e493202086f726465722d313704666c61670301046e6f6e6500030753312e646f6e6502010753322e6661696c02000857462e73746172740201020253310a076167656e743031020106010557462e493101000000000000044002024f31020178024f32040102533206076167656e743032020000000001025331"
)
