package wfdb

import (
	"sync"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// rowVersion leads every instance, archive and summary row. A build reads
// exactly one version; anything else fails with CodeStoreFormat.
const rowVersion = 1

// Instance-row flag bits.
const (
	flagAborting = 1 << iota
	flagParent
)

// A row is the version byte, then a walk: an instance's (the instance and
// archive tables share it) or a summary's, which is the status alone.
// Integers, strings and counts are those of package binenc, and maps are
// written in sorted key order (binenc.Map), so equal instances encode to
// equal bytes and the WAL does not depend on Go's map order.

// beginRow starts a row at the end of the batch's buffer and returns its
// offset; the caller walks the row's value on b.w and ends it with endRow.
func (b *Batch) beginRow() int {
	off := len(b.buf)
	b.w.Encode(append(b.buf, rowVersion))
	return off
}

func (b *Batch) endRow(table, key string, off int) {
	b.buf = b.w.Bytes()
	b.put(table, key, off)
}

// readRow decodes a row into v. Arbitrary bytes yield an error, never a
// panic, and no allocation is sized by a count the input cannot hold.
func readRow(row []byte, what string, v binenc.Walkable) error {
	if len(row) < 1 || row[0] != rowVersion {
		return errRow(nil, what+": unknown version")
	}
	w := readers.Get().(*binenc.Walker)
	err := w.Read(row[1:], v)
	w.Decode(nil) // hold no row
	readers.Put(w)
	if err != nil {
		return errRow(err, what)
	}
	return nil
}

// readers backs readRow, which any goroutine may call: a walker escapes to
// the heap (a walk hands it on), so reads reuse them.
var readers = sync.Pool{New: func() any { return new(binenc.Walker) }}

// errRow classifies an undecodable row.
func errRow(err error, what string) error {
	return cerrors.E(cerrors.CodeStoreFormat, cerrors.PhaseDecode, cerrors.ErrStore, err, "wfdb: %s", what)
}

// Walk is the instance row after its version byte:
//
//	workflow, id, status, flags, epoch, coordinator, notifyTo
//	[parent workflow, id, step]               when flagParent is set
//	data table:  count, then name + value     sorted by name
//	event table: event.Table.Walk
//	step table:  count, then id + record      sorted by id
//	execution order: count, then step ids
//
//crew:hotpath
func (ins *Instance) Walk(w *binenc.Walker) {
	w.String(&ins.Workflow)
	w.Int(&ins.ID)
	ins.Status.Walk(w)
	var flags byte
	if ins.Aborting {
		flags |= flagAborting
	}
	if ins.Parent != nil {
		flags |= flagParent
	}
	w.Byte(&flags)
	w.Int(&ins.Epoch)
	w.String(&ins.Coordinator)
	w.String(&ins.NotifyTo)
	if w.Decoding() {
		ins.Aborting = flags&flagAborting != 0
		if flags&flagParent != 0 {
			//crew:allow hotalloc decoding allocates what it returns
			ins.Parent = new(ParentRef)
		}
		//crew:allow hotalloc decoding allocates what it returns
		ins.Events = new(event.Table)
	}
	if p := ins.Parent; p != nil {
		w.String(&p.Workflow)
		w.Int(&p.ID)
		p.Step.Walk(w)
	}
	expr.WalkValues(w, &ins.Data)
	ins.Events.Walk(w)
	binenc.Map(w, &ins.Steps, 8, walkStepRecord) // id length, five scalars, two counts
	binenc.Strings(w, &ins.ExecOrder)
	if w.Decoding() {
		if ins.Data == nil {
			//crew:allow hotalloc decoding allocates what it returns
			ins.Data = make(map[string]expr.Value)
		}
		if ins.Steps == nil {
			//crew:allow hotalloc decoding allocates what it returns
			ins.Steps = make(map[model.StepID]*StepRecord)
		}
	}
}

// walkStepRecord walks a step record: status, agent, attempts, hasResult
// byte, compMode, inputs, outputs (the two maps encoded like the data table).
//
//crew:hotpath
func walkStepRecord(w *binenc.Walker, r *StepRecord) *StepRecord {
	if w.Decoding() {
		//crew:allow hotalloc decoding allocates what it returns
		r = new(StepRecord)
	}
	w.Int((*int)(&r.Status))
	w.String(&r.Agent)
	w.Int(&r.Attempts)
	w.Bool(&r.HasResult)
	r.CompMode.Walk(w)
	expr.WalkValues(w, &r.Inputs)
	expr.WalkValues(w, &r.Outputs)
	return r
}

// Walk is a status's form in rows and payloads: an integer. A summary row is
// the version byte and the status.
func (s *Status) Walk(w *binenc.Walker) { w.Int((*int)(s)) }
