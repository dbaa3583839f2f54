// Package wfdb implements the workflow database: the instance state a
// workflow engine (centralized/parallel control) or an agent (distributed
// control) maintains, and its persistence on the embedded store.
//
// The paper's data organization is kept: a workflow class table holds
// definitions, a workflow instance table holds per-instance state (data
// table, event table, step table, execution order). Finished instances are
// archived, and an instance's status is read from its one row: the instance
// row while it runs, the archive row once it has finished.
package wfdb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"crew/internal/binenc"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/store"
)

// Status is the life-cycle state of a workflow instance.
type Status int

const (
	// Running means the instance is executing (or recovering).
	Running Status = iota
	// Committed means every active path completed; effects are permanent.
	Committed
	// Aborted means the instance was aborted and compensated.
	Aborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// StepStatus is the per-step execution state within an instance.
type StepStatus int

const (
	// StepPending means the step has not been scheduled.
	StepPending StepStatus = iota
	// StepExecuting means the step's program is running.
	StepExecuting
	// StepDone means the step completed successfully.
	StepDone
	// StepFailed means the last execution failed logically.
	StepFailed
	// StepCompensated means the step's effects were compensated.
	StepCompensated
	// StepCompensating means a compensation of the step's previous results
	// is dispatched to an agent. It is written ahead of the dispatch so a
	// crashed engine can tell, on restart, that a compensation result is
	// still owed and must not be re-requested (compensation runs once).
	StepCompensating
)

// String names the step status.
func (s StepStatus) String() string {
	switch s {
	case StepPending:
		return "pending"
	case StepExecuting:
		return "executing"
	case StepDone:
		return "done"
	case StepFailed:
		return "failed"
	case StepCompensated:
		return "compensated"
	case StepCompensating:
		return "compensating"
	default:
		return fmt.Sprintf("StepStatus(%d)", int(s))
	}
}

// StepRecord is the step-table entry for one step of one instance.
//
// While its owner may still save the instance, a record's Inputs and Outputs
// maps are replaced, never changed in place: a save takes the bytes it kept
// for a record whose scalars and two maps are those it last saw (row.go).
// Handing an instance to a waiter and the model.Program contract, which
// gives programs these maps to read, assume the same.
type StepRecord struct {
	Status StepStatus
	// Agent names the agent that executed (or is executing) the step.
	Agent string
	// Attempts counts executions (1-based after the first execution).
	Attempts int
	// Inputs and Outputs capture the latest execution, supporting the OCR
	// strategy's comparison against previous inputs and result reuse.
	Inputs  map[string]expr.Value
	Outputs map[string]expr.Value
	// HasResult records that a successful execution's results are on file
	// and not yet compensated. It survives the status reset a rollback
	// performs, which is exactly what lets the OCR strategy reuse or
	// incrementally rebuild the previous results on re-execution.
	HasResult bool
	// CompMode records, while Status is StepCompensating, whether the
	// in-flight compensation is complete (ModeCompensate) or partial
	// (ModePartialComp, to be followed by an incremental re-execution);
	// restart recovery rebuilds the pending compensation task from it.
	CompMode model.ExecMode
}

// Prev packages the record's previous execution for a program context.
func (r *StepRecord) Prev() *model.PrevExecution {
	if r == nil || !r.HasResult {
		return nil
	}
	return &model.PrevExecution{Inputs: r.Inputs, Outputs: r.Outputs}
}

// Instance is the complete state of one workflow instance. In centralized
// control the engine owns the whole Instance; in distributed control each
// agent holds a partial replica assembled from workflow packets.
type Instance struct {
	Workflow string
	ID       int
	Status   Status
	// Data is the data table: full item name -> value.
	Data map[string]expr.Value
	// Events is the event table.
	Events *event.Table
	// Steps is the step table.
	Steps map[model.StepID]*StepRecord
	// ExecOrder lists step completions in order (repeats possible across
	// re-executions); compensation dependent sets use it to compensate in
	// reverse execution order.
	ExecOrder []model.StepID
	// Aborting records that the instance entered an abort (user abort or
	// exhausted failure handling) and its compensation chain may be
	// incomplete. Persisted so a restarted engine rebuilds and finishes the
	// chain instead of resuming forward execution.
	Aborting bool
	// Parent links a nested workflow instance to its parent step.
	Parent *ParentRef
	// Epoch and Coordinator checkpoint the owning replica's rollback epoch
	// and coordination-agent election, so an agent restarted from its AGDB
	// (multi-process recovery) resumes with the same epoch discipline and
	// routing instead of rediscovering them from traffic.
	Epoch       int
	Coordinator string
	// NotifyTo names the front-end node to notify when the instance reaches a
	// terminal status. Only set on the coordination replica of deployments
	// whose front end lives across a process boundary; empty means completion
	// is published through the shared in-process terminal registry alone.
	NotifyTo string

	// schema, when attached, serves interned event-name and data-name strings
	// so record-keeping does not rebuild them on every post. Optional (nil
	// falls back to direct construction) and not persisted: owners re-attach
	// after load or import.
	schema *model.Schema
	// saved is what Batch.SaveInstance keeps between saves (row.go): nil
	// until the first, and again after Archive and in a Clone.
	saved *savedSteps
	// recs is the block StepRec hands new records out of.
	recs []StepRecord
}

// AttachSchema installs the instance's schema as a name-interning source.
// The schema is only read.
func (ins *Instance) AttachSchema(s *model.Schema) { ins.schema = s }

func (ins *Instance) doneName(id model.StepID) string {
	if ins.schema != nil {
		return ins.schema.DoneEventOf(id)
	}
	return event.DoneName(string(id))
}

func (ins *Instance) failName(id model.StepID) string {
	if ins.schema != nil {
		return ins.schema.FailEventOf(id)
	}
	return event.FailName(string(id))
}

func (ins *Instance) compName(id model.StepID) string {
	if ins.schema != nil {
		return ins.schema.CompEventOf(id)
	}
	return event.CompensatedName(string(id))
}

func (ins *Instance) outputRef(id model.StepID, short string) string {
	if ins.schema != nil {
		return ins.schema.OutputRef(id, short)
	}
	return id.Ref(short)
}

// ParentRef identifies the parent step awaiting a nested workflow.
type ParentRef struct {
	Workflow string
	ID       int
	Step     model.StepID
}

// NewInstance creates a running instance with the given workflow inputs
// (keyed by short input name, e.g. "I1").
func NewInstance(workflow string, id int, inputs map[string]expr.Value) *Instance {
	return newInstance(workflow, id, inputs, 0, 0, 0)
}

// NewInstanceOf creates a running instance of a schema, attached to it, with
// its step, data and event tables sized from the schema's TableSizes so they
// do not grow while it runs.
func NewInstanceOf(s *model.Schema, id int, inputs map[string]expr.Value) *Instance {
	steps, data, events := s.TableSizes()
	ins := newInstance(s.Name, id, inputs, steps, data, events)
	ins.schema = s
	return ins
}

func newInstance(workflow string, id int, inputs map[string]expr.Value, steps, data, events int) *Instance {
	ins := &Instance{
		Workflow: workflow,
		ID:       id,
		Status:   Running,
		Data:     make(map[string]expr.Value, max(data, len(inputs))),
		Events:   event.NewTableSize(events),
		Steps:    make(map[model.StepID]*StepRecord, steps),
		recs:     make([]StepRecord, 0, steps),
	}
	if steps > 0 { // a bare instance's order stays nil
		ins.ExecOrder = make([]model.StepID, 0, steps)
	}
	for name, v := range inputs {
		ins.Data[model.WorkflowInput(name)] = v
	}
	return ins
}

// Reuse empties ins in place and makes it what NewInstanceOf(s, id, nil)
// returns, keeping the storage of its data, step and event tables and of its
// record block; the event table keeps its observer. Only the sole holder of
// ins and of everything it hands out (its records, its tables) may call it.
func (ins *Instance) Reuse(s *model.Schema, id int) {
	clear(ins.Data)
	clear(ins.Steps)
	clear(ins.recs)
	ins.Events.Reset()
	*ins = Instance{
		Workflow:  s.Name,
		ID:        id,
		Status:    Running,
		Data:      ins.Data,
		Events:    ins.Events,
		Steps:     ins.Steps,
		ExecOrder: ins.ExecOrder[:0],
		schema:    s,
		recs:      ins.recs[:0],
	}
}

// Key returns the instance's database key.
func (ins *Instance) Key() string { return InstanceKeyOf(ins.Workflow, ins.ID) }

// InstanceKeyOf builds the canonical instance key.
func InstanceKeyOf(workflow string, id int) string {
	return workflow + "." + strconv.Itoa(id)
}

// ParseInstanceKey splits a canonical instance key.
func ParseInstanceKey(key string) (workflow string, id int, err error) {
	i := strings.LastIndexByte(key, '.')
	if i < 0 {
		return "", 0, fmt.Errorf("wfdb: malformed instance key %q", key)
	}
	id, err = strconv.Atoi(key[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("wfdb: malformed instance key %q: %w", key, err)
	}
	return key[:i], id, nil
}

// Env exposes the data table as an expression environment.
func (ins *Instance) Env() expr.Env { return expr.MapEnv(ins.Data) }

// StepRec returns (creating if needed) the step record for id. A record it
// creates in a saved instance gets its place among the kept entries at once.
// New records come out of the instance's block (recs); a full block is
// replaced by a larger one, and the records handed out stay where they are.
func (ins *Instance) StepRec(id model.StepID) *StepRecord {
	r := ins.Steps[id]
	if r == nil {
		ins.recs = append(ins.recs, StepRecord{})
		r = &ins.recs[len(ins.recs)-1]
		ins.Steps[id] = r
		if c := ins.saved; c != nil {
			c.add(id)
		}
	}
	return r
}

// SetData writes one data item.
func (ins *Instance) SetData(name string, v expr.Value) {
	ins.Data[name] = v
}

// MergeData copies the given items into the data table and reports how many
// changed. Incoming workflow packets merge their data sections this way.
func (ins *Instance) MergeData(items map[string]expr.Value) int {
	n := 0
	for k, v := range items {
		if old, ok := ins.Data[k]; !ok || !old.Equal(v) {
			ins.Data[k] = v
			n++
		}
	}
	return n
}

// RecordExecuting marks a step as dispatched to an agent.
func (ins *Instance) RecordExecuting(id model.StepID, agent string, inputs map[string]expr.Value) {
	r := ins.StepRec(id)
	r.Status = StepExecuting
	r.Agent = agent
	r.Attempts++
	r.Inputs = inputs
}

// RecordDone marks a step complete: stores outputs in the step record, copies
// them into the data table under full names, appends to the execution order
// and posts step.done.
func (ins *Instance) RecordDone(id model.StepID, outputs map[string]expr.Value) {
	r := ins.StepRec(id)
	r.Status = StepDone
	r.Outputs = outputs
	r.HasResult = true
	for short, v := range outputs {
		ins.Data[ins.outputRef(id, short)] = v
	}
	ins.ExecOrder = append(ins.ExecOrder, id)
	ins.Events.Post(ins.doneName(id))
}

// RecordFailed marks a step failed and posts step.fail.
func (ins *Instance) RecordFailed(id model.StepID) {
	ins.StepRec(id).Status = StepFailed
	ins.Events.Post(ins.failName(id))
}

// RecordCompensating marks a compensation of the step as dispatched to an
// agent in the given mode (ModeCompensate or ModePartialComp). Persisting the
// instance after this call and before the dispatch is the write-ahead record
// that makes compensation exactly-once across an engine crash.
func (ins *Instance) RecordCompensating(id model.StepID, mode model.ExecMode) {
	r := ins.StepRec(id)
	r.Status = StepCompensating
	r.CompMode = mode
}

// RecordCompensated marks a step compensated: its done event is invalidated,
// its outputs are removed from the data table, and step.compensated posts.
func (ins *Instance) RecordCompensated(id model.StepID) {
	r := ins.StepRec(id)
	r.Status = StepCompensated
	r.HasResult = false
	r.CompMode = 0
	for short := range r.Outputs {
		delete(ins.Data, ins.outputRef(id, short))
	}
	ins.Events.Invalidate(ins.doneName(id))
	ins.Events.Post(ins.compName(id))
}

// ResetStepEvents invalidates the step's done and fail events and returns
// how many were valid (the paper's v parameter counts these invalidations).
func (ins *Instance) ResetStepEvents(id model.StepID) int {
	n := 0
	if ins.Events.Invalidate(ins.doneName(id)) {
		n++
	}
	if ins.Events.Invalidate(ins.failName(id)) {
		n++
	}
	return n
}

// Executed reports whether the step currently counts as executed (done and
// not compensated since).
func (ins *Instance) Executed(id model.StepID) bool {
	r := ins.Steps[id]
	return r != nil && r.Status == StepDone
}

// CompletedTerminals returns which of the given terminal steps are done.
func (ins *Instance) CompletedTerminals(terminals []model.StepID) []model.StepID {
	var out []model.StepID
	for _, id := range terminals {
		if ins.Executed(id) {
			out = append(out, id)
		}
	}
	return out
}

// ExecutedMembersInOrder returns the members of set that are currently
// executed, in execution order (latest execution wins for repeats).
func (ins *Instance) ExecutedMembersInOrder(set []model.StepID) []model.StepID {
	return ins.membersInOrder(set, func(r *StepRecord) bool { return r.Status == StepDone })
}

// ResultMembersInOrder returns the members of set whose previous results are
// still on file (HasResult), in execution order. A rollback resets statuses
// to pending but keeps results, and it is these steps a compensation
// dependent set must unwind in reverse execution order.
func (ins *Instance) ResultMembersInOrder(set []model.StepID) []model.StepID {
	return ins.membersInOrder(set, func(r *StepRecord) bool { return r.HasResult })
}

func (ins *Instance) membersInOrder(set []model.StepID, pred func(*StepRecord) bool) []model.StepID {
	inSet := make(map[model.StepID]bool, len(set))
	for _, id := range set {
		inSet[id] = true
	}
	lastPos := make(map[model.StepID]int)
	for i, id := range ins.ExecOrder {
		if inSet[id] {
			lastPos[id] = i
		}
	}
	var out []model.StepID
	for id := range lastPos {
		if r := ins.Steps[id]; r != nil && pred(r) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lastPos[out[i]] < lastPos[out[j]] })
	return out
}

// Clone deep-copies the instance.
func (ins *Instance) Clone() *Instance {
	c := &Instance{
		Workflow:  ins.Workflow,
		ID:        ins.ID,
		Status:    ins.Status,
		Data:      make(map[string]expr.Value, len(ins.Data)),
		Events:    ins.Events.Clone(),
		Steps:     make(map[model.StepID]*StepRecord, len(ins.Steps)),
		ExecOrder: append([]model.StepID(nil), ins.ExecOrder...),
		Aborting:  ins.Aborting,
	}
	c.Epoch = ins.Epoch
	c.Coordinator = ins.Coordinator
	c.NotifyTo = ins.NotifyTo
	for k, v := range ins.Data {
		c.Data[k] = v
	}
	for id, r := range ins.Steps {
		cp := *r
		cp.Inputs = copyValues(r.Inputs)
		cp.Outputs = copyValues(r.Outputs)
		c.Steps[id] = &cp
	}
	if ins.Parent != nil {
		p := *ins.Parent
		c.Parent = &p
	}
	c.schema = ins.schema // read-only interning source; safe to share
	return c
}

func copyValues(m map[string]expr.Value) map[string]expr.Value {
	if m == nil {
		return nil
	}
	out := make(map[string]expr.Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// DB

// Table names inside the store.
const (
	tableClass    = "class"
	tableInstance = "instance"
	tableArchive  = "archive"
	tableNames    = "names"
)

// DB wraps a store as a workflow (or agent) database.
type DB struct {
	st *store.Store
	// known holds, by digest, the name tables the store is known to hold:
	// written by this DB or read from it.
	knownMu sync.RWMutex
	known   map[uint64]*binenc.Names
}

// New wraps the given store.
func New(st *store.Store) *DB { return &DB{st: st} }

// NewMemory returns a DB over a fresh in-memory store.
func NewMemory() *DB { return New(store.OpenMemory()) }

// Store exposes the underlying store (e.g. for write-count metrics).
func (db *DB) Store() *store.Store { return db.st }

// Batch collects the rows of one engine turn and commits them as one store
// group: a single WAL write, replayed all or nothing. Rows are encoded into
// the batch's own buffer as they are added, so an instance may keep changing
// after it was added (add it again to supersede the earlier row on replay).
// The zero Batch is ready; Commit empties it for reuse, keeping its buffers,
// so a warm batch encodes without allocating. Not safe for concurrent use.
type Batch struct {
	w     binenc.Walker // encodes the rows into buf
	buf   []byte        // encoded rows, back to back
	rows  []batchRow
	names []*binenc.Names // the tables of the instance rows, each once
	ops   []store.Op      // rebuilt from rows at Commit
}

// batchRow is one pending mutation; its value is buf[off:end] (buf may move
// while the batch grows, so the slice is cut only at Commit).
type batchRow struct {
	table, key string
	off, end   int
	del        bool
}

func (b *Batch) put(table, key string, off int) {
	b.rows = append(b.rows, batchRow{table: table, key: key, off: off, end: len(b.buf)})
}

// SaveInstance adds ins's full state as its instance-table row. The
// instance keeps its step records' bytes for the next save, which walks only
// the records changed since (row.go).
func (b *Batch) SaveInstance(ins *Instance) {
	c := ins.saveState()
	off := b.beginInstanceRow(ins)
	ins.walkRow(&b.w, true)
	b.endRow(tableInstance, c.key, off)
	if f := saveCheck.Load(); f != nil {
		(*f)(c.key, b.buf[off:], freshRow(ins))
	}
}

// saveCheck is CheckSaves's function.
var saveCheck atomic.Pointer[func(key string, saved, fresh []byte)]

// CheckSaves, for tests, has every later Batch.SaveInstance call f with the
// row it wrote and the row a walk of the instance without its kept bytes
// writes; the two differ only if a step record changed in a way the save
// did not see. nil stops the calls.
func CheckSaves(f func(key string, saved, fresh []byte)) {
	if f == nil {
		saveCheck.Store(nil)
		return
	}
	saveCheck.Store(&f)
}

// freshRow is ins's instance row walked without the bytes it kept.
func freshRow(ins *Instance) []byte {
	saved := ins.saved
	ins.saved = nil
	row := appendRow(new(binenc.Walker), nil, ins)
	ins.saved = saved
	return row
}

// Archive adds a finished instance's archive row. A committer that holds
// instance rows adds the instance's DeleteInstance to the same batch, so a
// crash leaves the instance in exactly one of the two tables; one that never
// wrote the row adds nothing more. The row takes the bytes the instance kept
// at its last save, and the instance then drops them.
func (b *Batch) Archive(ins *Instance) {
	off := b.beginInstanceRow(ins)
	ins.Walk(&b.w)
	b.endRow(tableArchive, ins.Key(), off)
	ins.saved = nil
}

// DeleteInstance adds the removal of an instance row (a retired instance's,
// or a bystander dropping its replica of a finished instance).
func (b *Batch) DeleteInstance(workflow string, id int) {
	b.rows = append(b.rows, batchRow{table: tableInstance, key: InstanceKeyOf(workflow, id), del: true})
}

// Reset empties the batch without writing it, keeping its buffers.
func (b *Batch) Reset() {
	clear(b.ops) // drop the key strings and buffer references
	clear(b.names)
	b.buf, b.rows, b.names, b.ops = b.buf[:0], b.rows[:0], b.names[:0], b.ops[:0]
}

// Len returns the number of mutations waiting for Commit.
func (b *Batch) Len() int { return len(b.rows) }

// Commit writes the batch's mutations as one store group and empties the
// batch (also on error: the caller logs and carries on with current state).
// The group leads with the row of each name table its instance rows use
// that the store does not hold yet, so a cut keeps a row's table whenever it
// keeps the row. A store holding another table under one of their digests
// fails the commit, and nothing is written.
func (db *DB) Commit(b *Batch) error {
	if len(b.rows) == 0 {
		return nil
	}
	defer b.Reset()
	fresh, err := db.addNames(b)
	if err != nil {
		return err
	}
	for _, r := range b.rows {
		b.ops = append(b.ops, store.Op{Table: r.table, Key: r.key, Value: b.buf[r.off:r.end], Delete: r.del})
	}
	if err := db.st.Apply(b.ops); err != nil {
		return err
	}
	for _, n := range fresh {
		db.know(n)
	}
	return nil
}

// batchPool backs the single-row calls below, which may come from any
// goroutine.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// SaveSchema persists a workflow class definition. The class table is
// written at set-up only and keeps its schema as JSON.
func (db *DB) SaveSchema(s *model.Schema) error {
	buf, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("wfdb: encode class %s: %w", s.Name, err)
	}
	return db.st.Put(tableClass, s.Name, buf)
}

// LoadSchema retrieves a workflow class definition.
func (db *DB) LoadSchema(name string) (*model.Schema, bool, error) {
	buf, ok := db.st.Get(tableClass, name)
	if !ok {
		return nil, false, nil
	}
	var s model.Schema
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, true, fmt.Errorf("wfdb: decode class %s: %w", name, err)
	}
	return &s, true, nil
}

// SchemaNames lists stored class names.
func (db *DB) SchemaNames() []string { return db.st.Keys(tableClass) }

// SaveInstance persists an instance's full state.
func (db *DB) SaveInstance(ins *Instance) error {
	b := batchPool.Get().(*Batch)
	defer batchPool.Put(b)
	b.SaveInstance(ins)
	return db.Commit(b)
}

func (db *DB) loadInstance(table, workflow string, id int) (*Instance, bool, error) {
	buf, ok, err := db.st.Load(table, InstanceKeyOf(workflow, id))
	if err != nil {
		return nil, true, errRow(err, "instance row unreadable")
	}
	if !ok {
		return nil, false, nil
	}
	ins, err := db.readInstance(buf, "instance row")
	if err != nil {
		return nil, true, err
	}
	return ins, true, nil
}

// LoadInstance retrieves an instance.
func (db *DB) LoadInstance(workflow string, id int) (*Instance, bool, error) {
	return db.loadInstance(tableInstance, workflow, id)
}

// DeleteInstance removes an instance record.
func (db *DB) DeleteInstance(workflow string, id int) error {
	return db.st.Delete(tableInstance, InstanceKeyOf(workflow, id))
}

// InstanceKeys lists keys of live instances.
func (db *DB) InstanceKeys() []string { return db.st.Keys(tableInstance) }

// Archive moves a finished instance to the archive table, atomically.
func (db *DB) Archive(ins *Instance) error {
	b := batchPool.Get().(*Batch)
	defer batchPool.Put(b)
	b.Archive(ins)
	b.DeleteInstance(ins.Workflow, ins.ID)
	return db.Commit(b)
}

// LoadArchived retrieves an archived instance.
func (db *DB) LoadArchived(workflow string, id int) (*Instance, bool, error) {
	return db.loadInstance(tableArchive, workflow, id)
}

// ArchivedStatus returns the status of an archived instance: a finished
// instance's one status, read from its archive row's leading fields
// (rowStatus) without decoding the rest.
func (db *DB) ArchivedStatus(workflow string, id int) (Status, bool, error) {
	row, ok, err := db.st.Load(tableArchive, InstanceKeyOf(workflow, id))
	if err != nil {
		return 0, true, errRow(err, "archive row unreadable")
	}
	if !ok {
		return 0, false, nil
	}
	st, err := rowStatus(row, workflow, id)
	return st, true, err
}

// ArchiveKeys lists keys of archived instances.
func (db *DB) ArchiveKeys() []string { return db.st.Keys(tableArchive) }

// SpillArchive keeps only a one-word reference to where each archive row
// lies in the store's log, its file or its memory log (store.Spill), so an
// unbounded stream of retired instances costs its rows' bytes and a word
// each, and a file store's resident memory stays flat.
func (db *DB) SpillArchive() error { return db.st.Spill(tableArchive) }
