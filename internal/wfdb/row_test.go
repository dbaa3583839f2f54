package wfdb

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/store"
)

// sixStepInstance is an instance that ran every step of a six-step sequence
// once: what the centralized engine rewrites on every turn of the benchmark's
// failure-free workloads. It has no schema, so its rows write every name as
// a literal; sixStepInstanceOf's instance is attached to sixStepSchema and
// writes them as indexes.
func sixStepInstance(id int) *Instance {
	return sixStepRun(NewInstance("WF01", id, map[string]expr.Value{"I1": expr.Num(float64(id))}))
}

func sixStepInstanceOf(id int) *Instance {
	return sixStepRun(NewInstanceOf(sixStepSchema, id, map[string]expr.Value{"I1": expr.Num(float64(id))}))
}

var sixStepSchema = func() *model.Schema {
	b := model.NewSchema("WF01", "I1")
	prev := "WF.I1"
	for _, sid := range []model.StepID{"S1", "S2", "S3", "S4", "S5", "S6"} {
		b.Step(sid, "p", model.WithInputs(prev), model.WithOutputs("O1"), model.WithAgents("agent01"))
		prev = sid.Ref("O1")
	}
	return b.Seq("S1", "S2", "S3", "S4", "S5", "S6").MustBuild()
}()

func sixStepRun(ins *Instance) *Instance {
	id := ins.ID
	ins.Events.Post(event.WorkflowStartName)
	prev := "WF.I1"
	for _, sid := range []model.StepID{"S1", "S2", "S3", "S4", "S5", "S6"} {
		ins.RecordExecuting(sid, "agent01", map[string]expr.Value{prev: ins.Data[prev]})
		ins.RecordDone(sid, map[string]expr.Value{"O1": expr.Num(float64(id + len(ins.ExecOrder)))})
		prev = sid.Ref("O1")
	}
	return ins
}

// encodeRow appends ins's instance row to dst, as a Batch writes it, and
// decodeRow reads one back, as the DB does, from rowDB, which holds the name
// tables of the test schemas (holdNames).
func encodeRow(w *binenc.Walker, dst []byte, ins *Instance) []byte {
	return appendRow(w, dst, ins)
}

func decodeRow(row []byte) (*Instance, error) { return rowDB.readInstance(row, "instance row") }

var rowDB = NewMemory()

// holdNames stores s's name table in db, as the first commit of a row of s
// does.
func holdNames(t testing.TB, db *DB, s *model.Schema) {
	t.Helper()
	if err := db.Store().Put(tableNames, namesKey(s.Names().Digest()), nameRow(s.Names())); err != nil {
		t.Fatal(err)
	}
}

// TestRowEncodeAllocBudget guards the row encoder: a steady-state encode of
// a six-step instance into a reused buffer allocates nothing, with every name
// a literal or with the names its schema declares as indexes.
func TestRowEncodeAllocBudget(t *testing.T) {
	for _, ins := range []*Instance{sixStepInstance(1), sixStepInstanceOf(1)} {
		var w binenc.Walker
		buf := encodeRow(&w, nil, ins)
		if len(buf) >= 1000 {
			t.Errorf("six-step row is %d bytes, budget < 1000", len(buf))
		}
		if n := testing.AllocsPerRun(200, func() { buf = encodeRow(&w, buf[:0], ins) }); n != 0 {
			t.Errorf("schema %v: steady-state row encode allocates %.0f times, budget 0", ins.schema != nil, n)
		}
	}
	if l, a := len(encodeRow(new(binenc.Walker), nil, sixStepInstance(1))), len(encodeRow(new(binenc.Walker), nil, sixStepInstanceOf(1))); a >= l*2/3 {
		t.Errorf("an attached six-step row is %d bytes, its literal form %d: indexes save less than a third", a, l)
	}
}

// TestResaveAllocBudget: a warm save and commit of an instance allocates
// nothing, whether its records are as the last save saw them or one of them
// changed: the instance keeps its key and its records' bytes, and the store
// rewrites the row's resident buffer. An attached instance's table is
// written by the first commit alone.
func TestResaveAllocBudget(t *testing.T) {
	for _, ins := range []*Instance{sixStepInstance(1), sixStepInstanceOf(1)} {
		db := NewMemory()
		var b Batch
		save := func() { b.SaveInstance(ins); db.Commit(&b) }
		save()
		if n := testing.AllocsPerRun(200, save); n != 0 {
			t.Errorf("schema %v: warm re-save of an unchanged instance allocates %.0f times, budget 0", ins.schema != nil, n)
		}
		rec := ins.Steps["S3"]
		if n := testing.AllocsPerRun(200, func() { rec.Attempts++; save() }); n != 0 {
			t.Errorf("schema %v: warm re-save with one changed record allocates %.0f times, budget 0", ins.schema != nil, n)
		}
		if ins.saved == nil || len(ins.saved.recs) != len(ins.Steps) {
			t.Fatal("a saved instance keeps no bytes for its records")
		}
		b.Archive(ins)
		if ins.saved != nil {
			t.Error("Archive left the instance its kept bytes")
		}
		if ins.Clone().saved != nil {
			t.Error("a clone shares the kept bytes")
		}
	}
}

// TestRowEncodingIsDeterministic: equal instances built in different map
// insertion orders encode to equal bytes, run after run.
func TestRowEncodingIsDeterministic(t *testing.T) {
	var w binenc.Walker
	want := encodeRow(&w, nil, sixStepInstance(3))
	for i := 0; i < 20; i++ {
		if got := encodeRow(&w, nil, sixStepInstance(3).Clone()); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestDecodeRejectsBadRows(t *testing.T) {
	row := encodeRow(new(binenc.Walker), nil, sixStepInstance(1))
	bad := sixStepInstance(1)
	bad.Steps["S1"].Status = StepCompensating + 1
	cases := map[string][]byte{
		"empty":          nil,
		"newer version":  append([]byte{rowVersion + 1}, row[1:]...),
		"trailing byte":  append(append([]byte(nil), row...), 0),
		"parent JSON":    []byte(`{"workflow":"WF01","id":1}`),
		"unknown status": encodeRow(new(binenc.Walker), nil, bad),
	}
	for name, b := range cases {
		if _, err := decodeRow(b); cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
			t.Errorf("%s: error %v, want code %q", name, err, cerrors.CodeStoreFormat)
		}
	}
	for cut := 1; cut < len(row); cut++ {
		if _, err := decodeRow(row[:cut]); cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
			t.Fatalf("row cut at %d of %d: error %v, want code %q", cut, len(row), err, cerrors.CodeStoreFormat)
		}
	}
	if err := readRow([]byte{rowVersion + 1, 0}, "name table", new(nameList)); cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
		t.Errorf("name table with newer version: %v", err)
	}
	if err := readRow([]byte{rowVersion}, "name table", new(nameList)); cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
		t.Errorf("truncated name table: %v", err)
	}
}

// FuzzInstanceRowDecode: arbitrary bytes never panic the row decoder and
// never make it allocate from a count the input cannot hold (a 30-byte row
// declaring 2^60 steps must fail, not reserve memory); whatever decodes
// re-encodes to a row that decodes to the same bytes again.
func FuzzInstanceRowDecode(f *testing.F) {
	var w binenc.Walker
	f.Add(encodeRow(&w, nil, sixStepInstance(1)))
	full := sixStepInstance(2)
	full.Parent = &ParentRef{Workflow: "Parent", ID: 9, Step: "N"}
	full.Aborting, full.Epoch, full.Coordinator, full.NotifyTo = true, 3, "agent02", "frontend"
	full.RecordCompensating("S2", model.ModePartialComp)
	full.Events.Invalidate(event.DoneName("S3"))
	full.Data["s"], full.Data["b"], full.Data["n"] = expr.Str("héllo"), expr.Bool(true), expr.Null()
	f.Add(encodeRow(&w, nil, full))
	f.Add([]byte{rowVersion, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	// Numbers at the edges of the varint form, in the data table and a step's
	// outputs, whole and cut short.
	edges := sixStepInstance(3)
	for i, x := range []float64{0, math.Copysign(0, -1), -1, 900000, 1 << 53, -1 << 53, 1<<53 + 2, 0.5, math.NaN()} {
		edges.Data[fmt.Sprintf("n%d", i)] = expr.Num(x)
	}
	edges.RecordDone("S6", map[string]expr.Value{"O1": expr.Num(-1 << 53), "O2": expr.Num(1 << 53)})
	row := encodeRow(&w, nil, edges)
	f.Add(row)
	f.Add(row[:len(row)-3])
	// Rows by index: an attached instance, one with literals among its
	// names, and one whose last index runs past the table.
	holdNames(f, rowDB, sixStepSchema)
	f.Add(encodeRow(&w, nil, sixStepInstanceOf(1)))
	mixed := sixStepInstanceOf(2)
	mixed.Parent = &ParentRef{Workflow: "Parent", ID: 9, Step: "N"}
	mixed.Events.Post("ext:Parent.9:N.done")
	mixed.Data["undeclared"] = expr.Str("x")
	f.Add(encodeRow(&w, nil, mixed))
	past := encodeRow(&w, nil, sixStepInstanceOf(3))
	past[len(past)-1] = byte(len(sixStepSchema.Names().List()) + 1)
	f.Add(past)
	// Data items by reference (tag 1) beside values (tag 0) for outputs that
	// differ from their record's, and a reference with no record.
	refs := sixStepInstanceOf(4)
	refs.SetData("S2.O1", expr.Num(math.Copysign(0, -1)))
	refs.MergeData(map[string]expr.Value{"S3.O1": expr.Str("merged")})
	refs.RecordDone("A.B", map[string]expr.Value{"O1": expr.Num(1)})
	f.Add(encodeRow(&w, nil, refs))
	_, noRecord, _ := danglingRows()
	f.Add(noRecord)
	// Version 5's packed words: a step status the enum lacks, and an event
	// posted 64 times, whose count and validity take two bytes.
	bad := sixStepInstance(5)
	bad.Steps["S1"].Status = StepCompensating + 1
	f.Add(encodeRow(&w, nil, bad))
	busy := sixStepInstance(6)
	for range 64 {
		busy.Events.Post(event.DoneName("S1"))
	}
	f.Add(encodeRow(&w, nil, busy))
	f.Fuzz(func(t *testing.T, b []byte) {
		ins, err := decodeRow(b)
		if err != nil {
			return
		}
		var w binenc.Walker
		again := encodeRow(&w, nil, ins)
		ins2, err := decodeRow(again)
		if err != nil {
			t.Fatalf("re-encoded row does not decode: %v", err)
		}
		if final := encodeRow(&w, nil, ins2); !bytes.Equal(final, again) {
			t.Fatal("decode(encode(x)) encodes differently from x")
		}
	})
}

// TestRetireIsCrashAtomic is the regression test for retirement. With the
// archive row and the instance delete logged as two records (the layout
// before group records), a log cut between them reopens with the instance in
// both tables, and recovery would resurrect a published instance. Logged as
// one group, every cut leaves it in exactly one.
func TestRetireIsCrashAtomic(t *testing.T) {
	dir := t.TempDir()
	ins := sixStepInstance(1)
	row := encodeRow(new(binenc.Walker), nil, ins)

	tablesAfterCut := func(t *testing.T, retire func(st *store.Store)) (both, neither int) {
		path := filepath.Join(dir, "full.db")
		os.Remove(path)
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := New(st).SaveInstance(ins); err != nil {
			t.Fatal(err)
		}
		retire(st)
		st.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(data); cut++ {
			cutPath := filepath.Join(dir, "cut.db")
			if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(cutPath)
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			db := New(st)
			_, live, _ := db.LoadInstance(ins.Workflow, ins.ID)
			_, archived, _ := db.LoadArchived(ins.Workflow, ins.ID)
			st.Close()
			switch {
			case live && archived:
				both++
			case !live && !archived && cut == len(data):
				neither++
			}
		}
		return both, neither
	}

	both, _ := tablesAfterCut(t, func(st *store.Store) {
		st.Put(tableArchive, ins.Key(), row)
		st.Delete(tableInstance, ins.Key())
	})
	if both == 0 {
		t.Fatal("two-record retirement shows no cut with the instance both live and archived: the test lost its subject")
	}
	both, neither := tablesAfterCut(t, func(st *store.Store) {
		if err := New(st).Archive(ins); err != nil {
			t.Fatal(err)
		}
	})
	if both != 0 || neither != 0 {
		t.Errorf("group retirement: %d cuts leave the instance live and archived, %d leave it in neither table", both, neither)
	}
}

// TestBatchCommitsOneGroupInOrder: the rows of a batch reach the store as one
// group, later rows of a key superseding earlier ones, and the batch is
// empty and reusable afterwards.
func TestBatchCommitsOneGroupInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wfdb.db")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db := New(st)
	size := func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	a, b := sixStepInstance(1), sixStepInstance(2)
	var batch Batch
	batch.SaveInstance(a)
	a.Status = Committed // after the row was taken: must not leak into it
	batch.SaveInstance(b)
	batch.Archive(b)
	batch.DeleteInstance(b.Workflow, b.ID)
	before, writes := size(), st.Writes()
	if err := db.Commit(&batch); err != nil {
		t.Fatal(err)
	}
	if st.Writes()-writes != 4 {
		t.Errorf("store saw %d mutations, want 4", st.Writes()-writes)
	}
	// One group: its framing is 8 bytes however many rows it carries.
	var w binenc.Walker
	rows := 2*len(encodeRow(&w, nil, b)) + len(encodeRow(&w, nil, sixStepInstance(1)))
	if grew := size() - before; grew < int64(rows) || grew > int64(rows)+200 {
		t.Errorf("log grew %d bytes for %d bytes of rows: not one group", grew, rows)
	}
	if got, ok, _ := db.LoadInstance("WF01", 1); !ok || got.Status != Running {
		t.Errorf("instance 1 = (%+v, %v), want the row as it was when added", got, ok)
	}
	if _, ok, _ := db.LoadInstance("WF01", 2); ok {
		t.Error("archived instance still live")
	}
	if _, ok, _ := db.LoadArchived("WF01", 2); !ok {
		t.Error("archived instance missing")
	}
	if err := db.Commit(&batch); err != nil || st.Writes()-writes != 4 {
		t.Error("committing an empty batch wrote something")
	}
	batch.DeleteInstance("WF01", 1)
	if err := db.Commit(&batch); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.LoadInstance("WF01", 1); ok {
		t.Error("instance row survived the batch's delete")
	}
}

func BenchmarkRowEncode(b *testing.B) {
	ins := sixStepInstance(1)
	var w binenc.Walker
	buf := encodeRow(&w, nil, ins)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeRow(&w, buf[:0], ins)
	}
}

// BenchmarkInstanceSaves runs one ten-step instance from start to
// retirement and saves it once per turn, as an engine does: the instance
// sized from its schema, a turn per dispatch and per result, each committed
// to a memory store. Unlike BenchmarkRowEncode, a cold encode, each save
// here follows the previous one.
func BenchmarkInstanceSaves(b *testing.B) {
	sb := model.NewSchema("WF01", "I1")
	var ids [10]model.StepID
	inputs, outputs := make([]map[string]expr.Value, len(ids)), make([]map[string]expr.Value, len(ids))
	for i := range ids {
		ids[i] = model.StepID(fmt.Sprintf("S%d", i+1))
		sb.Step(ids[i], "p", model.WithOutputs("O1"))
		inputs[i] = map[string]expr.Value{"WF.I1": expr.Num(float64(i))}
		outputs[i] = map[string]expr.Value{"O1": expr.Num(float64(i))}
	}
	schema := sb.Seq(ids[:]...).MustBuild()
	db := NewMemory()
	var batch Batch
	turn := func(ins *Instance) {
		batch.SaveInstance(ins)
		if err := db.Commit(&batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins := NewInstanceOf(schema, 1, map[string]expr.Value{"I1": expr.Num(1)})
		ins.Events.Post(event.WorkflowStartName)
		for j, id := range ids {
			ins.RecordExecuting(id, "agent01", inputs[j])
			turn(ins)
			ins.RecordDone(id, outputs[j])
			turn(ins)
		}
		batch.DeleteInstance(ins.Workflow, ins.ID)
		db.Commit(&batch)
	}
}

func BenchmarkRowDecode(b *testing.B) {
	row := encodeRow(new(binenc.Walker), nil, sixStepInstance(1))
	b.SetBytes(int64(len(row)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRow(row); err != nil {
			b.Fatal(err)
		}
	}
}
