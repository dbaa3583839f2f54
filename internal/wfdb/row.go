package wfdb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/store"
)

// rowVersion leads every instance, archive and name-table row. A build reads
// exactly one version; anything else fails with CodeStoreFormat. Version 5
// packs a step record's four scalars into one uvarint and an event entry's
// count and validity into another; 4 wrote the step table before the data
// table, an agent by index and a data item its producer's record holds as a
// reference to it; 3 wrote step, data and event names as indexes into the
// name table of the instance's schema; 2 wrote each as a string.
const rowVersion = 5

// Instance-row flag bits.
const (
	flagAborting = 1 << iota
	flagParent
)

// A row is the version byte, then a walk: an instance's (the instance and
// archive tables share it) or a name table's. Integers, strings and counts
// are those of package binenc, and maps are written in a fixed key order
// (binenc.Map), so equal instances encode to equal bytes and the WAL does
// not depend on Go's map order.
//
// An instance row puts the 8-byte little-endian digest of its name table
// (model.Schema.Names) between the version byte and the walk, and walks with
// that table in the walker's name slot: a step id, data name or event name
// the table holds is written as its index. The names table holds each table
// once, under its digest in hex, so decoding needs only the store. An
// instance with no schema (NewInstance) has the empty table, digest 0, which
// is never stored: every name in its rows is a literal.

// headerLen is the length of an instance row's version byte and digest.
const headerLen = 9

// emptyNames is the name table of an instance with no schema.
var emptyNames = binenc.NewNames(nil)

// names returns the table ins's rows write names into.
func (ins *Instance) names() *binenc.Names {
	if ins.schema != nil {
		return ins.schema.Names()
	}
	return emptyNames
}

// beginInstanceRow starts ins's instance or archive row and notes its table
// for Commit.
func (b *Batch) beginInstanceRow(ins *Instance) int {
	off, n := len(b.buf), ins.names()
	startRow(&b.w, b.buf, n)
	if n.Digest() != 0 && !slices.Contains(b.names, n) {
		b.names = append(b.names, n)
	}
	return off
}

func (b *Batch) endRow(table, key string, off int) {
	b.buf = b.w.Bytes()
	b.put(table, key, off)
}

// startRow puts w in encode mode after dst and an instance row's header,
// with the row's table n in its slot.
func startRow(w *binenc.Walker, dst []byte, n *binenc.Names) {
	w.Encode(binary.LittleEndian.AppendUint64(append(dst, rowVersion), n.Digest()))
	w.SetNames(n)
}

// appendRow appends ins's instance row to dst, as a Batch writes it.
func appendRow(w *binenc.Walker, dst []byte, ins *Instance) []byte {
	startRow(w, dst, ins.names())
	ins.Walk(w)
	return w.Bytes()
}

// readRow decodes a row into v. Arbitrary bytes yield an error, never a
// panic, and no allocation is sized by a count the input cannot hold.
func readRow(row []byte, what string, v binenc.Walkable) error {
	if len(row) < 1 || row[0] != rowVersion {
		return errRow(nil, what+": unknown version")
	}
	return readWalk(row[1:], what, nil, v)
}

// readWalk decodes all of b into v, with names in the walker's slot.
func readWalk(b []byte, what string, names *binenc.Names, v binenc.Walkable) error {
	w := readers.Get().(*binenc.Walker)
	w.SetNames(names)
	err := w.Read(b, v)
	w.Decode(nil) // hold no row
	w.SetNames(nil)
	readers.Put(w)
	if err != nil {
		return errRow(err, what)
	}
	return nil
}

// readInstance decodes an instance or archive row, taking its name table
// from the store: a row whose table is missing or will not decode, or whose
// indexes run past the table, is a format error.
func (db *DB) readInstance(row []byte, what string) (*Instance, error) {
	if len(row) < headerLen || row[0] != rowVersion {
		return nil, errRow(nil, what+": unknown version")
	}
	digest := binary.LittleEndian.Uint64(row[1:headerLen])
	names, ok, err := db.namesOf(digest)
	if err == nil && !ok {
		err = fmt.Errorf("no name table %016x", digest)
	}
	if err != nil {
		return nil, errRow(err, what)
	}
	ins := new(Instance)
	if err := readWalk(row[headerLen:], what, names, ins); err != nil {
		return nil, err
	}
	return ins, nil
}

// readers backs readRow and rowStatus, which any goroutine may call: a
// walker escapes to the heap (a walk hands it on), so reads reuse them.
var readers = sync.Pool{New: func() any { return new(binenc.Walker) }}

// errRow classifies an undecodable row.
func errRow(err error, what string) error {
	return cerrors.E(cerrors.CodeStoreFormat, cerrors.PhaseDecode, cerrors.ErrStore, err, "wfdb: %s", what)
}

// The names table.

// namesKey is a name table's key in the names table.
func namesKey(digest uint64) string { return fmt.Sprintf("%016x", digest) }

// nameList is a name table's row after its version byte: the names.
type nameList []string

func (l *nameList) Walk(w *binenc.Walker) { binenc.Strings(w, (*[]string)(l)) }

// table returns the name table db knows to be in its store under digest,
// or nil.
func (db *DB) table(digest uint64) *binenc.Names {
	db.knownMu.RLock()
	defer db.knownMu.RUnlock()
	return db.known[digest]
}

// know records n as the store's table under its digest.
func (db *DB) know(n *binenc.Names) {
	db.knownMu.Lock()
	defer db.knownMu.Unlock()
	if db.known == nil {
		db.known = make(map[uint64]*binenc.Names)
	}
	db.known[n.Digest()] = n
}

// namesOf returns the name table stored under digest, reading it from the
// store the first time, and whether the store holds one. A stored table that
// will not decode, or whose names do not give its digest, is an error.
func (db *DB) namesOf(digest uint64) (*binenc.Names, bool, error) {
	if digest == 0 {
		return emptyNames, true, nil
	}
	if n := db.table(digest); n != nil {
		return n, true, nil
	}
	key := namesKey(digest)
	row, ok, err := db.st.Load(tableNames, key)
	if err != nil || !ok {
		return nil, false, err
	}
	var list nameList
	if err := readRow(row, "name table "+key, &list); err != nil {
		return nil, true, err
	}
	n := binenc.NewNames(list)
	if n.Digest() != digest || len(n.List()) != len(list) {
		return nil, true, errRow(nil, fmt.Sprintf("name table %s holds the names of table %016x", key, n.Digest()))
	}
	db.know(n)
	return n, true, nil
}

// addNames adds to b's ops the row of each table b's instance rows use that
// the store does not hold yet, and returns those tables, to be known once
// the group is written. It fails if the store holds another table under the
// same digest, or one it cannot read.
func (db *DB) addNames(b *Batch) (fresh []*binenc.Names, err error) {
	for _, n := range b.names {
		known := db.table(n.Digest())
		if known == n {
			continue
		}
		if known == nil {
			var stored bool
			if known, stored, err = db.namesOf(n.Digest()); err != nil {
				return nil, err
			}
			if !stored {
				b.ops = append(b.ops, store.Op{Table: tableNames, Key: namesKey(n.Digest()), Value: nameRow(n)})
				fresh = append(fresh, n)
				continue
			}
		}
		if !slices.Equal(known.List(), n.List()) {
			return nil, cerrors.E(cerrors.CodeStoreFormat, cerrors.PhaseEncode, cerrors.ErrStore, nil,
				"wfdb: the store holds another name table under digest %016x", n.Digest())
		}
		db.know(n) // the schema's own table from now on: one pointer compare
	}
	return fresh, nil
}

// nameRow is n's row in the names table.
func nameRow(n *binenc.Names) []byte {
	list := nameList(n.List())
	return new(binenc.Walker).Append([]byte{rowVersion}, &list)
}

// Walk is the instance row after its header (walkRow with fill false); the
// names below go through the walker's name slot, the strings do not:
//
//	workflow, id, status, flags, epoch, coordinator, notifyTo (strings)
//	[parent workflow, id, step (strings)]     when flagParent is set
//	step table:  count, then id + record      in binenc.Map's order
//	data table:  count, then name + item      in binenc.Map's order
//	event table: event.Table.Walk
//	execution order: count, then step ids
//
// A data item is a tag byte: tagValue and the value, or tagOutput, which
// says the record of step k[:i] holds the item's value under k[i+1:], where
// k is the item's name and i its first '.'. The encoder writes tagOutput
// when that record and output exist and the output is the item's value with
// the same bits (expr.Value.Same), judging from the instance alone, so a
// decoded instance, which has no schema, encodes to the same bytes. The
// references sit in the data table, which every save walks whole; a step
// record's kept bytes (savedSteps) never refer to the data table, whose
// items change without their producer's record (a merged packet).
func (ins *Instance) Walk(w *binenc.Walker) { ins.walkRow(w, false) }

// walkRow walks the row; fill, encoding only, has the step table refresh the
// bytes the instance keeps of it (walkSteps).
func (ins *Instance) walkRow(w *binenc.Walker, fill bool) {
	ins.walkHead(w)
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
			ins.Parent = new(ParentRef)
		}
		ins.Events = new(event.Table)
	}
	if p := ins.Parent; p != nil {
		w.String(&p.Workflow)
		w.Int(&p.ID)
		p.Step.Walk(w)
	}
	ins.walkSteps(w, fill)
	ins.walkData(w)
	ins.Events.Walk(w)
	binenc.Strings(w, &ins.ExecOrder)
	if w.Decoding() {
		if ins.Data == nil {
			ins.Data = make(map[string]expr.Value)
		}
		if ins.Steps == nil {
			ins.Steps = make(map[model.StepID]*StepRecord)
		}
	}
}

// walkHead walks the row's leading fields, which name the instance and give
// its status.
func (ins *Instance) walkHead(w *binenc.Walker) {
	w.String(&ins.Workflow)
	w.Int(&ins.ID)
	ins.Status.Walk(w)
}

// rowStatus reads the status of workflow.id's instance or archive row from
// the row's leading fields (walkHead) and leaves the rest undecoded. A row
// that is not of this version, whose head will not decode or names another
// instance, is a format error.
func rowStatus(row []byte, workflow string, id int) (Status, error) {
	if len(row) < headerLen || row[0] != rowVersion {
		return 0, errRow(nil, "status: unknown version")
	}
	var head Instance
	w := readers.Get().(*binenc.Walker)
	w.Decode(row[headerLen:])
	head.walkHead(w)
	err := w.Reader().Err()
	w.Decode(nil) // hold no row
	readers.Put(w)
	if err == nil && (head.Workflow != workflow || head.ID != id) {
		err = fmt.Errorf("row of %s", head.Key())
	}
	if err != nil {
		return 0, errRow(err, "status of "+InstanceKeyOf(workflow, id))
	}
	return head.Status, nil
}

// Data-item tags.
const (
	tagValue  = 0 // the value follows
	tagOutput = 1 // the producer's record holds the value
)

// walkData walks the data table; decoding, the step table is already read.
// An item is its name, a tag and, for tagValue, the value (Walk).
func (ins *Instance) walkData(w *binenc.Walker) {
	binenc.MapKeyed(w, &ins.Data, 2, func(w *binenc.Walker, k string, v expr.Value) expr.Value {
		out, held := ins.output(k)
		tag := byte(tagValue)
		if held && !w.Decoding() && out.Same(v) {
			tag = tagOutput
		}
		w.Byte(&tag)
		switch {
		case tag == tagValue:
			v.Walk(w)
		case tag == tagOutput && held:
			v = out
		default:
			w.Fail()
		}
		return v
	})
}

// output returns the output the record of step k[:i] holds under k[i+1:],
// where i is the first '.' in k, and whether there is one.
func (ins *Instance) output(k string) (expr.Value, bool) {
	i := strings.IndexByte(k, '.')
	if i < 0 {
		return expr.Value{}, false
	}
	r := ins.Steps[model.StepID(k[:i])]
	if r == nil {
		return expr.Value{}, false
	}
	v, ok := r.Outputs[k[i+1:]]
	return v, ok
}

// walkStepRecord walks a step record: its scalars (stepWord), agent (a
// name), inputs, outputs (the two maps encoded by expr.WalkValues).
func walkStepRecord(w *binenc.Walker, r *StepRecord) *StepRecord {
	if w.Decoding() {
		r = new(StepRecord)
	}
	x := r.stepWord()
	w.Uint(&x)
	if w.Decoding() {
		r.Status, r.HasResult = StepStatus(x&7), x&8 != 0
		r.CompMode, r.Attempts = model.ExecMode(x>>4&3), int(x>>6)
		if r.Status > StepCompensating {
			w.Fail()
		}
	}
	w.Name(&r.Agent)
	expr.WalkValues(w, &r.Inputs)
	expr.WalkValues(w, &r.Outputs)
	return r
}

// stepWord packs a record's scalars into one word, written as a uvarint:
// attempts<<6 | compMode<<4 | hasResult<<3 | status. A status takes three
// bits and a mode two; attempts are never negative.
func (r *StepRecord) stepWord() uint64 {
	x := uint64(r.Attempts)<<6 | uint64(r.CompMode&3)<<4 | uint64(r.Status&7)
	if r.HasResult {
		x |= 8
	}
	return x
}

// Walk is a status's form in rows and payloads: an integer.
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
	names    *binenc.Names // the table the entries were walked with
	recs     []savedRecord // in binenc.Map's order under names
	buf      []byte        // the entries' bytes, in that order
}

// savedRecord is one step-table entry as last saved: its bytes are
// buf[off:end], walked from rec; end == off for an entry not walked yet.
// rank is the id's binenc.Names.Rank.
type savedRecord struct {
	id       model.StepID
	rank     uint64
	rec      StepRecord
	off, end int
}

// saveState returns what the instance keeps between saves, made at its
// first save with room for an entry per step of its schema.
func (ins *Instance) saveState() *savedSteps {
	c := ins.saved
	if c == nil {
		c = new(savedSteps)
		if ins.schema != nil {
			steps, _, _ := ins.schema.TableSizes()
			c.recs = make([]savedRecord, 0, steps)
		}
		ins.saved = c
	}
	if c.key == "" || c.id != ins.ID || c.workflow != ins.Workflow {
		c.key, c.workflow, c.id = ins.Key(), ins.Workflow, ins.ID
	}
	if n := ins.names(); c.names != n {
		// Entries walked with another table: the next save walks them all.
		clear(c.recs)
		c.names, c.recs = n, c.recs[:0]
	}
	return c
}

// walkSteps walks the step table. An encode takes unchanged entries from the
// bytes the instance kept at its last save, if any; with fill it also makes
// those bytes the current ones. Only Batch.SaveInstance fills, and a walk
// that does not fill only reads them, so several may share an instance.
func (ins *Instance) walkSteps(w *binenc.Walker, fill bool) {
	c := ins.saved
	switch {
	case c == nil || w.Decoding():
	case c.walk(w, ins.Steps, fill):
		return
	case fill:
		c.rekey(ins.Steps)
		c.walk(w, ins.Steps, true)
		return
	}
	binenc.Map(w, &ins.Steps, 5, walkStepRecord) // id, scalars, agent, two counts
}

// walk encodes steps, as binenc.Map would, if its ids are those of c.recs,
// and reports whether they were; otherwise it leaves the output as it was.
func (c *savedSteps) walk(w *binenc.Walker, steps map[model.StepID]*StepRecord, fill bool) bool {
	if len(steps) != len(c.recs) || w.Names() != c.names {
		return false
	}
	mark := len(w.Bytes())
	w.Len(len(steps), 5)
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
			w.Name((*string)(&e.id))
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
	e := savedRecord{id: id, rank: c.names.Rank(string(id))}
	if i, found := slices.BinarySearchFunc(c.recs, e, savedRecord.compare); !found {
		c.recs = slices.Insert(c.recs, i, e)
	}
}

// rekey makes c.recs the ids of steps, in order, none walked: the fallback
// for a step table whose ids changed other than through StepRec.
func (c *savedSteps) rekey(steps map[model.StepID]*StepRecord) {
	clear(c.recs) // drop the kept maps
	c.recs = c.recs[:0]
	for id := range steps {
		c.recs = append(c.recs, savedRecord{id: id, rank: c.names.Rank(string(id))})
	}
	slices.SortFunc(c.recs, savedRecord.compare)
}

// compare orders entries as binenc.Map writes their ids.
func (e savedRecord) compare(o savedRecord) int {
	if c := cmp.Compare(e.rank, o.rank); c != 0 {
		return c
	}
	return cmp.Compare(e.id, o.id)
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
