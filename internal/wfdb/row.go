package wfdb

import (
	"cmp"
	"slices"
	"sync"
	"unsafe"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// rowVersion leads every instance, archive and summary row. A build reads
// exactly one version; anything else fails with CodeStoreFormat. Version 2
// writes a whole number as a varint (expr.Value.Walk) where 1 wrote every
// number in 8 bytes.
const rowVersion = 2

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

// Walk is the instance row after its version byte (walkRow with fill
// false):
//
//	workflow, id, status, flags, epoch, coordinator, notifyTo
//	[parent workflow, id, step]               when flagParent is set
//	data table:  count, then name + value     sorted by name
//	event table: event.Table.Walk
//	step table:  count, then id + record      sorted by id
//	execution order: count, then step ids
//
//crew:hotpath
func (ins *Instance) Walk(w *binenc.Walker) { ins.walkRow(w, false) }

// walkRow walks the row; fill, encoding only, has the step table refresh the
// bytes the instance keeps of it (walkSteps).
//
//crew:hotpath
func (ins *Instance) walkRow(w *binenc.Walker, fill bool) {
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
	ins.walkSteps(w, fill)
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

// The step table of a saved instance. Batch.SaveInstance keeps, per step
// record, the record's entry bytes (its id, then the record) and a copy of
// the record they were walked from; the next save walks only the records
// that differ from their copy and takes the others' bytes as they are. A
// record's bytes are a function of its scalars and of the contents of its
// Inputs and Outputs maps, and those maps are replaced, never changed in
// place (StepRecord), so a record with the same scalars and the same two maps
// as its copy encodes to the bytes kept for it. The copy holds the maps, so
// their addresses are not reused while it is kept. A record StepRec creates
// takes its place among the entries at once; a table whose ids changed any
// other way is walked whole at its next save.

// savedSteps is what an instance keeps between saves.
type savedSteps struct {
	// key is the instance's key, built for workflow and id.
	key      string
	workflow string
	id       int
	recs     []savedRecord // in id order
	buf      []byte        // the entries' bytes, in id order
}

// savedRecord is one step-table entry as last saved: its bytes are
// buf[off:end], walked from rec; end == off for an entry not walked yet.
type savedRecord struct {
	id       model.StepID
	rec      StepRecord
	off, end int
}

// saveState returns what the instance keeps between saves, made at its
// first save with room for an entry per step of its schema.
func (ins *Instance) saveState() *savedSteps {
	c := ins.saved
	if c == nil {
		//crew:allow hotalloc once per instance, at its first save
		c = new(savedSteps)
		if ins.schema != nil {
			steps, _, _ := ins.schema.TableSizes()
			//crew:allow hotalloc once per instance, at its first save
			c.recs = make([]savedRecord, 0, steps)
		}
		ins.saved = c
	}
	if c.key == "" || c.id != ins.ID || c.workflow != ins.Workflow {
		//crew:allow hotalloc once per instance, at its first save
		c.key, c.workflow, c.id = ins.Key(), ins.Workflow, ins.ID
	}
	return c
}

// walkSteps walks the step table. An encode takes unchanged entries from the
// bytes the instance kept at its last save, if any; with fill it also makes
// those bytes the current ones. Only Batch.SaveInstance fills, and a walk
// that does not fill only reads them, so several may share an instance.
//
//crew:hotpath
func (ins *Instance) walkSteps(w *binenc.Walker, fill bool) {
	c := ins.saved
	switch {
	case c == nil || w.Decoding():
	case c.walk(w, ins.Steps, fill):
		return
	case fill:
		//crew:allow hotalloc a step table changed other than through StepRec
		c.rekey(ins.Steps)
		c.walk(w, ins.Steps, true)
		return
	}
	binenc.Map(w, &ins.Steps, 8, walkStepRecord) // id length, five scalars, two counts
}

// walk encodes steps, as binenc.Map would, if its ids are those of c.recs,
// and reports whether they were; otherwise it leaves the output as it was.
//
//crew:hotpath
func (c *savedSteps) walk(w *binenc.Walker, steps map[model.StepID]*StepRecord, fill bool) bool {
	if len(steps) != len(c.recs) {
		return false
	}
	mark := len(w.Bytes())
	w.Len(len(steps), 8)
	start := len(w.Bytes())
	for i := range c.recs {
		e := &c.recs[i]
		r := steps[e.id]
		if r == nil {
			w.Encode(w.Bytes()[:mark])
			return false
		}
		off := len(w.Bytes()) - start
		if e.end > e.off && e.rec.same(r) {
			w.Raw(c.buf[e.off:e.end])
		} else {
			w.String((*string)(&e.id))
			walkStepRecord(w, r)
			if fill {
				e.rec = *r
			}
		}
		if fill {
			e.off, e.end = off, len(w.Bytes())-start
		}
	}
	if fill {
		c.buf = append(c.buf[:0], w.Bytes()[start:]...)
	}
	return true
}

// add enters a step id new to the table at its place in c.recs, not yet
// walked, so the next save finds the ids as they are (StepRec).
func (c *savedSteps) add(id model.StepID) {
	i, found := slices.BinarySearchFunc(c.recs, id, func(e savedRecord, id model.StepID) int { return cmp.Compare(e.id, id) })
	if !found {
		c.recs = slices.Insert(c.recs, i, savedRecord{id: id})
	}
}

// rekey makes c.recs the ids of steps, in order, none walked: the fallback
// for a step table whose ids changed other than through StepRec.
func (c *savedSteps) rekey(steps map[model.StepID]*StepRecord) {
	clear(c.recs) // drop the kept maps
	c.recs = c.recs[:0]
	for id := range steps {
		c.recs = append(c.recs, savedRecord{id: id})
	}
	slices.SortFunc(c.recs, func(a, b savedRecord) int { return cmp.Compare(a.id, b.id) })
}

// same reports whether r encodes as s did: the same scalars and the same
// Inputs and Outputs maps, not merely equal ones.
func (s *StepRecord) same(r *StepRecord) bool {
	return s.Status == r.Status && s.Agent == r.Agent && s.Attempts == r.Attempts &&
		s.HasResult == r.HasResult && s.CompMode == r.CompMode &&
		sameMap(s.Inputs, r.Inputs) && sameMap(s.Outputs, r.Outputs)
}

// sameMap reports whether a and b are one map. A map value is a pointer to
// the runtime's map; Go compares maps only with nil.
func sameMap[K comparable, V any](a, b map[K]V) bool {
	return *(*unsafe.Pointer)(unsafe.Pointer(&a)) == *(*unsafe.Pointer)(unsafe.Pointer(&b))
}
