package wfdb

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/store"
)

// attachedGolden is goldenState on an instance of goldenSchema, with an
// external event: names of every kind, declared and not.
func attachedGolden(id int) *Instance {
	ins := NewInstanceOf(goldenSchema(), id, goldenInputs)
	goldenState(ins)
	ins.Events.Post("ext:WF00.7:S9.done")
	return ins
}

// sameRow reports whether a and b walk to the same bytes with the same
// table in the slot.
func sameRow(names *binenc.Names, a, b *Instance) bool {
	var w binenc.Walker
	w.SetNames(names)
	return bytes.Equal(w.Append(nil, a), w.Append(nil, b))
}

// TestAttachedRowRoundTrip: an instance row written by index decodes to the
// instance it was taken from, its external event, undeclared data items,
// parent ref and S2's agent (literals) included, and each name its schema
// declares, S1's agent among them, decodes as the table's own string.
func TestAttachedRowRoundTrip(t *testing.T) {
	db := NewMemory()
	ins := attachedGolden(1)
	if err := db.Archive(ins); err != nil {
		t.Fatal(err)
	}
	got, ok, err := db.LoadArchived("WF01", 1)
	if err != nil || !ok {
		t.Fatalf("LoadArchived = (%v, %v)", ok, err)
	}
	names := ins.schema.Names()
	if !sameRow(names, got, ins) {
		t.Error("the decoded instance differs from the archived one")
	}
	if !got.Events.Has("ext:WF00.7:S9.done") || !got.Data["flag"].Equal(expr.Bool(true)) ||
		got.Parent == nil || *got.Parent != *ins.Parent {
		t.Errorf("a literal was lost: events %v, data %v, parent %+v", got.Events, got.Data, got.Parent)
	}
	interned := map[*byte]bool{}
	for _, n := range names.List() {
		interned[unsafe.StringData(n)] = true
	}
	for id := range got.Steps {
		if !interned[unsafe.StringData(string(id))] {
			t.Errorf("step id %s decoded as a copy, not as the table's string", id)
		}
	}
	for _, id := range got.ExecOrder {
		if !interned[unsafe.StringData(string(id))] {
			t.Errorf("execution order entry %s decoded as a copy", id)
		}
	}
	if a := got.Steps["S1"].Agent; !interned[unsafe.StringData(a)] {
		t.Errorf("agent %s decoded as a copy", a)
	}
	if a := got.Steps["S2"].Agent; a != "agent02" {
		t.Errorf("S2's agent, which the table lacks, decoded as %q", a)
	}
}

// TestNameTableFormatErrors: an instance row loads as a row this build
// cannot decode, not as a missing one, when its table is missing, when an
// index runs past the table, and when the table's row will not decode or
// holds another table's names.
func TestNameTableFormatErrors(t *testing.T) {
	ins := attachedGolden(1)
	names := ins.schema.Names()
	key := namesKey(names.Digest())
	row := appendRow(new(binenc.Walker), nil, ins)
	pastTable := append([]byte(nil), row...)
	pastTable[len(pastTable)-1] = byte(len(names.List()) + 1) // the execution order's last step
	otherNames := nameRow(binenc.NewNames([]string{"S1", "S2"}))
	for what, c := range map[string]struct {
		row   []byte
		table []byte // the names row stored under the row's digest, nil for none
	}{
		"missing table":             {row, nil},
		"index beyond the table":    {pastTable, nameRow(names)},
		"table row cut short":       {row, nameRow(names)[:20]},
		"table row of another name": {row, otherNames},
		"table row of version 2":    {row, append([]byte{2}, nameRow(names)[1:]...)},
	} {
		db := NewMemory()
		if c.table != nil {
			db.Store().Put(tableNames, key, c.table)
		}
		db.Store().Put(tableArchive, ins.Key(), c.row)
		got, ok, err := db.LoadArchived("WF01", 1)
		if got != nil || !ok || cerrors.CodeOf(err) != cerrors.CodeStoreFormat || cerrors.PhaseOf(err) != cerrors.PhaseDecode {
			t.Errorf("%s: LoadArchived = (%v, %v, %v), want a %s error in phase %s",
				what, got, ok, err, cerrors.CodeStoreFormat, cerrors.PhaseDecode)
		}
	}
	// The same row with its table loads.
	db := NewMemory()
	db.Store().Put(tableNames, key, nameRow(names))
	db.Store().Put(tableArchive, ins.Key(), row)
	if _, ok, err := db.LoadArchived("WF01", 1); !ok || err != nil {
		t.Fatalf("the row with its table: (%v, %v)", ok, err)
	}
}

// TestCommitRefusesAnotherTable: a commit whose rows use a table the store
// holds other names under, or holds unreadably, fails and writes nothing.
func TestCommitRefusesAnotherTable(t *testing.T) {
	ins := attachedGolden(1)
	digest := ins.schema.Names().Digest()

	db := NewMemory()
	db.known = map[uint64]*binenc.Names{digest: binenc.NewNames([]string{"S1"})} // as if the store held another table under the digest
	if err := db.SaveInstance(ins); cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
		t.Errorf("commit over another table under the digest: %v, want code %s", err, cerrors.CodeStoreFormat)
	}
	if w := db.Store().Writes(); w != 0 {
		t.Errorf("the refused commit wrote %d mutations", w)
	}

	db = NewMemory()
	db.Store().Put(tableNames, namesKey(digest), []byte{rowVersion, 9})
	if err := db.SaveInstance(ins); cerrors.CodeOf(err) != cerrors.CodeStoreFormat {
		t.Errorf("commit over an unreadable table: %v, want code %s", err, cerrors.CodeStoreFormat)
	}
	if _, ok := db.Store().Get(tableInstance, ins.Key()); ok {
		t.Error("the refused commit wrote its row")
	}
}

// TestFirstTableGroupSurvivesCutAnywhere: the first group whose rows use a
// table carries the table's row too, so a log cut at any byte keeps both
// rows or neither, and every instance row that survives loads. The next
// group of the same schema does not write the table again, and neither does
// a DB reopened over the store.
func TestFirstTableGroupSurvivesCutAnywhere(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.db")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db := New(st)
	if err := db.SaveInstance(NewInstance("WF00", 1, nil)); err != nil { // a group before, with no table
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	before := fi.Size()
	ins := attachedGolden(1)
	if err := db.SaveInstance(ins); err != nil {
		t.Fatal(err)
	}
	writes := st.Writes()
	if err := db.SaveInstance(attachedGolden(2)); err != nil || st.Writes()-writes != 1 {
		t.Fatalf("a second group of the schema logged %d mutations (%v), want its row alone", st.Writes()-writes, err)
	}
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int(before); cut <= len(data); cut++ {
		cutPath := filepath.Join(dir, "cut.db")
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(cutPath)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		db := New(st)
		_, hasTable := st.Get(tableNames, namesKey(ins.schema.Names().Digest()))
		got, live, err := db.LoadInstance("WF01", 1)
		if err != nil || live != hasTable {
			t.Fatalf("cut=%d: table stored %v, instance row (%v, %v)", cut, hasTable, live, err)
		}
		if live && !sameRow(ins.schema.Names(), got, ins) {
			t.Fatalf("cut=%d: the instance loads changed", cut)
		}
		if live {
			w := st.Writes()
			if err := db.SaveInstance(attachedGolden(3)); err != nil || st.Writes()-w != 1 {
				t.Fatalf("cut=%d: a reopened DB logged %d mutations for one row (%v): it wrote the table again", cut, st.Writes()-w, err)
			}
		}
		st.Close()
	}
}

// TestNamesSurviveCompactAndReopen: Compact keeps the names table, so a
// spilled archive row of an attached instance loads after a compaction and
// a reopen.
func TestNamesSurviveCompactAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wfdb.wal")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db := New(st)
	if err := db.SpillArchive(); err != nil {
		t.Fatal(err)
	}
	ins := attachedGolden(1)
	if err := db.Archive(ins); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = store.Open(path); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, ok, err := New(st).LoadArchived("WF01", 1)
	if err != nil || !ok || !sameRow(ins.schema.Names(), got, ins) {
		t.Fatalf("after Compact and reopen: (%v, %v), same row %v", ok, err, got != nil && sameRow(ins.schema.Names(), got, ins))
	}
}

// TestAttachedDecodeAllocatesNoName: decoding an archived row allocates the
// instance's maps, records and values, and no name its schema declares. The
// same instance with no schema allocates one string more per name; the
// budget is the attached decode's count, and the difference is the names.
func TestAttachedDecodeAllocatesNoName(t *testing.T) {
	attached := sixStepInstanceOf(1)
	literal := sixStepInstance(1)
	holdNames(t, rowDB, attached.schema)
	decodes := func(ins *Instance) float64 {
		row := encodeRow(new(binenc.Walker), nil, ins)
		return testing.AllocsPerRun(100, func() {
			if _, err := decodeRow(row); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The instance, its event table and three maps, the execution order, six
	// records and their twelve maps, as Go 1.24 allocates them; no name, the
	// records' agents included.
	const budget = 40
	if n := decodes(attached); n > budget {
		t.Errorf("decoding an attached six-step row allocates %.0f times, budget %d", n, budget)
	}
	// Data 7, events 7, steps 6 and each one's agent, input and output,
	// order 6.
	names := 7 + 7 + 6*4 + 6
	if a, l := decodes(attached), decodes(literal); l-a != float64(names) {
		t.Errorf("a literal row allocates %.0f times more than an attached one, want %d, one per name", l-a, names)
	}
}

// TestConcurrentLoadsReadTheTable: archive loads from several goroutines, as
// Snapshot makes them, and commits on another, share the DB's table cache
// (run under -race).
func TestConcurrentLoadsReadTheTable(t *testing.T) {
	st := store.OpenMemory()
	for id := 1; id <= 8; id++ {
		if err := New(st).Archive(attachedGolden(id)); err != nil {
			t.Fatal(err)
		}
	}
	db := New(st) // its cache starts empty
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 1; id <= 8; id++ {
				if _, ok, err := db.LoadArchived("WF01", id); !ok || err != nil {
					t.Errorf("goroutine %d: LoadArchived(%d) = (%v, %v)", g, id, ok, err)
				}
			}
		}()
	}
	for id := 9; id <= 16; id++ {
		if err := db.SaveInstance(attachedGolden(id)); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}
