package wfdb

import (
	"bytes"
	"math"
	"testing"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/model"
)

// walkFunc makes a walk function Walkable.
type walkFunc func(w *binenc.Walker)

func (f walkFunc) Walk(w *binenc.Walker) { f(w) }

// dataTags walks ins's data table alone and returns each item's tag byte.
func dataTags(t *testing.T, ins *Instance) map[string]byte {
	t.Helper()
	var w binenc.Walker
	b := w.Append(nil, walkFunc(ins.walkData))
	w.Decode(b)
	r := w.Reader()
	tags := make(map[string]byte)
	for n := r.Uvarint(); n > 0; n-- {
		k := r.Str()
		tags[k] = r.Byte()
		if tags[k] == tagValue {
			var v expr.Value
			v.Walk(&w)
		}
	}
	if err := w.Done(); err != nil {
		t.Fatalf("data table %x: %v", b, err)
	}
	return tags
}

// sameBits reports whether a and b are one value with the same bits, NaN
// included.
func sameBits(a, b expr.Value) bool {
	x, xnum := a.AsNum()
	y, ynum := b.AsNum()
	if xnum && ynum {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return a.Same(b)
}

// TestDataItemReferences: a data item is written as a reference to its
// producer's output (tag 1) exactly when the record of the step its name
// starts with, up to the first '.', holds that output with the same bits,
// whether or not the instance has a schema; and every instance below loads
// with each data item and each output as it was, bits included, and walks
// with its table to the bytes it loaded from.
func TestDataItemReferences(t *testing.T) {
	negZero := math.Copysign(0, -1)
	done := func(ins *Instance, id model.StepID, out string, v expr.Value) {
		ins.RecordExecuting(id, "agent01", map[string]expr.Value{"WF.I1": ins.Data["WF.I1"]})
		ins.RecordDone(id, map[string]expr.Value{out: v})
	}
	for _, c := range []struct {
		what  string
		build func(ins *Instance)
		tags  map[string]byte // the tag of each data item but the inputs'
	}{
		{"outputs as produced", func(ins *Instance) {
			done(ins, "S1", "O1", expr.Num(5))
			done(ins, "S2", "O1", expr.Str("x"))
		}, map[string]byte{"S1.O1": tagOutput, "S2.O1": tagOutput}},
		{"an output merged over from a packet", func(ins *Instance) {
			done(ins, "S1", "O1", expr.Num(5))
			ins.MergeData(map[string]expr.Value{"S1.O1": expr.Num(6)})
		}, map[string]byte{"S1.O1": tagValue}},
		{"a step re-executed after a rollback", func(ins *Instance) {
			done(ins, "S1", "O1", expr.Num(5))
			ins.RecordExecuting("S1", "agent02", nil)
			ins.StepRec("S1").Outputs = map[string]expr.Value{"O1": expr.Num(7)}
		}, map[string]byte{"S1.O1": tagValue}},
		{"-0 against 0", func(ins *Instance) {
			done(ins, "S1", "O1", expr.Num(0))
			ins.SetData("S1.O1", expr.Num(negZero))
			done(ins, "S2", "O1", expr.Num(negZero))
			done(ins, "S3", "O1", expr.Num(negZero))
			ins.SetData("S3.O1", expr.Num(0))
		}, map[string]byte{"S1.O1": tagValue, "S2.O1": tagOutput, "S3.O1": tagValue}},
		{"NaN", func(ins *Instance) {
			done(ins, "S1", "O1", expr.Num(math.NaN()))
		}, map[string]byte{"S1.O1": tagValue}},
		{"an undeclared x.y whose prefix is no step", func(ins *Instance) {
			done(ins, "S1", "O1", expr.Num(5))
			ins.SetData("x.O1", expr.Num(5))
			ins.SetData("S1", expr.Num(5))
		}, map[string]byte{"S1.O1": tagOutput, "x.O1": tagValue, "S1": tagValue}},
		{"a step id with a dot", func(ins *Instance) {
			done(ins, "A.B", "O1", expr.Num(5))
		}, map[string]byte{"A.B.O1": tagValue}},
		{"a step id with a dot and a step of its prefix", func(ins *Instance) {
			done(ins, "A", "B.O1", expr.Num(5))
			done(ins, "A.B", "O1", expr.Num(5))
		}, map[string]byte{"A.B.O1": tagOutput}},
	} {
		for _, ins := range []*Instance{
			NewInstance("WF01", 1, goldenInputs),
			NewInstanceOf(goldenSchema(), 1, goldenInputs),
		} {
			c.build(ins)
			want := map[string]byte{"WF.I1": tagValue, "WF.I2": tagValue}
			for k, tag := range c.tags {
				want[k] = tag
			}
			if got := dataTags(t, ins); len(got) != len(want) {
				t.Errorf("%s (schema %v): tags %v, want %v", c.what, ins.schema != nil, got, want)
			} else {
				for k, tag := range want {
					if got[k] != tag {
						t.Errorf("%s (schema %v): %s has tag %d, want %d", c.what, ins.schema != nil, k, got[k], tag)
					}
				}
			}

			db := NewMemory()
			names := ins.names()
			if err := db.Archive(ins); err != nil {
				t.Fatal(err)
			}
			got, ok, err := db.LoadArchived("WF01", 1)
			if err != nil || !ok {
				t.Fatalf("%s: LoadArchived = (%v, %v)", c.what, ok, err)
			}
			for k, v := range ins.Data {
				if !sameBits(got.Data[k], v) {
					t.Errorf("%s: data item %s loads as %v, was %v", c.what, k, got.Data[k], v)
				}
			}
			for id, r := range ins.Steps {
				for k, v := range r.Outputs {
					if !sameBits(got.Steps[id].Outputs[k], v) {
						t.Errorf("%s: %s's output %s loads as %v, was %v", c.what, id, k, got.Steps[id].Outputs[k], v)
					}
				}
			}
			if !sameRow(names, got, ins) {
				t.Errorf("%s (schema %v): the loaded instance encodes to other bytes", c.what, ins.schema != nil)
			}
		}
	}
}

// danglingRows returns a row whose data item S1.O1 refers to S1's output
// O1, and that row with the step table's S1 renamed S7 and with S1's output
// renamed O9: each leaves the reference nothing to point at.
func danglingRows() (row, noRecord, noOutput []byte) {
	ins := NewInstance("WF01", 1, nil)
	ins.RecordExecuting("S1", "agent01", nil)
	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(5)})
	row = appendRow(new(binenc.Walker), nil, ins)
	// The step table comes first after the scalars, and S1's inputs are
	// empty: the first S1 is the record's id, the first O1 its output's.
	noRecord = bytes.Replace(row, []byte("\x00\x02S1"), []byte("\x00\x02S7"), 1)
	noOutput = bytes.Replace(row, []byte("\x00\x02O1"), []byte("\x00\x02O9"), 1)
	return row, noRecord, noOutput
}

// TestDanglingReferenceIsAFormatError: a data item that refers to a step
// with no record, or to an output its record does not hold, loads as a row
// this build cannot decode, not as a missing one; the row it was cut from
// loads.
func TestDanglingReferenceIsAFormatError(t *testing.T) {
	row, noRecord, noOutput := danglingRows()
	for what, c := range map[string]struct {
		row  []byte
		fail bool
	}{
		"the reference's row":    {row, false},
		"a reference, no record": {noRecord, true},
		"a reference, no output": {noOutput, true},
	} {
		if !c.fail && (bytes.Equal(c.row, noRecord) || bytes.Equal(c.row, noOutput)) {
			t.Fatal("the renames changed nothing")
		}
		db := NewMemory()
		db.Store().Put(tableArchive, InstanceKeyOf("WF01", 1), c.row)
		got, ok, err := db.LoadArchived("WF01", 1)
		switch {
		case !c.fail && (err != nil || !ok):
			t.Errorf("%s: LoadArchived = (%v, %v)", what, ok, err)
		case c.fail && (got != nil || !ok || cerrors.CodeOf(err) != cerrors.CodeStoreFormat || cerrors.PhaseOf(err) != cerrors.PhaseDecode):
			t.Errorf("%s: LoadArchived = (%v, %v, %v), want a %s error in phase %s",
				what, got, ok, err, cerrors.CodeStoreFormat, cerrors.PhaseDecode)
		}
	}
}
