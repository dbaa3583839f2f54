// Package wfdb implements the workflow database: the instance state a
// workflow engine (centralized/parallel control) or an agent (distributed
// control) maintains, and its persistence on the embedded store.
//
// The paper's data organization is kept: a workflow class table holds
// definitions, a workflow instance table holds per-instance state (data
// table, event table, step table, execution order), and a coordination
// instance summary table at coordination agents tracks instance status for
// the front-end database. Committed instances are archived.
package wfdb

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

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
	ins := &Instance{
		Workflow: workflow,
		ID:       id,
		Status:   Running,
		Data:     make(map[string]expr.Value, len(inputs)),
		Events:   event.NewTable(),
		Steps:    make(map[model.StepID]*StepRecord),
	}
	for name, v := range inputs {
		ins.Data[model.WorkflowInput(name)] = v
	}
	return ins
}

// Reserve sizes a fresh instance's tables — no step recorded, no event
// posted — for the given numbers of step records, data items and events, so
// they do not grow while the instance runs. A reloaded or running instance
// is left as it is.
func (ins *Instance) Reserve(steps, data, events int) {
	if len(ins.Steps) != 0 || ins.Events.Seq() != 0 {
		return
	}
	ins.Steps = make(map[model.StepID]*StepRecord, steps)
	if len(ins.Data) < data {
		d := make(map[string]expr.Value, data)
		for k, v := range ins.Data {
			d[k] = v
		}
		ins.Data = d
	}
	ins.Events.Reserve(events)
	ins.ExecOrder = make([]model.StepID, 0, steps)
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

// StepRec returns (creating if needed) the step record for id.
func (ins *Instance) StepRec(id model.StepID) *StepRecord {
	r := ins.Steps[id]
	if r == nil {
		r = &StepRecord{}
		ins.Steps[id] = r
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
	tableSummary  = "summary"
)

// DB wraps a store as a workflow (or agent) database.
type DB struct {
	st *store.Store
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
	enc  rowEncoder
	buf  []byte // encoded rows, back to back
	rows []batchRow
	ops  []store.Op // rebuilt from rows at Commit
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

// SaveInstance adds ins's full state as its instance-table row.
func (b *Batch) SaveInstance(ins *Instance) {
	off := len(b.buf)
	b.buf = b.enc.appendInstance(b.buf, ins)
	b.put(tableInstance, ins.Key(), off)
}

// SaveSummary adds a coordination instance summary row.
func (b *Batch) SaveSummary(workflow string, id int, status Status) {
	off := len(b.buf)
	b.buf = appendSummary(b.buf, status)
	b.put(tableSummary, InstanceKeyOf(workflow, id), off)
}

// Archive adds the move of a finished instance to the archive table: its
// archive row and the deletion of its instance row. Committed in one group,
// a crash leaves the instance in exactly one of the two tables.
func (b *Batch) Archive(ins *Instance) {
	off, key := len(b.buf), ins.Key()
	b.buf = b.enc.appendInstance(b.buf, ins)
	b.put(tableArchive, key, off)
	b.rows = append(b.rows, batchRow{table: tableInstance, key: key, del: true})
}

// DeleteInstance adds the removal of an instance row (a purge broadcast).
func (b *Batch) DeleteInstance(workflow string, id int) {
	b.rows = append(b.rows, batchRow{table: tableInstance, key: InstanceKeyOf(workflow, id), del: true})
}

// Reset empties the batch without writing it, keeping its buffers.
func (b *Batch) Reset() { b.buf, b.rows = b.buf[:0], b.rows[:0] }

// Len returns the number of mutations waiting for Commit.
func (b *Batch) Len() int { return len(b.rows) }

// Commit writes the batch's mutations as one store group and empties the
// batch (also on error: the caller logs and carries on with current state).
func (db *DB) Commit(b *Batch) error {
	if len(b.rows) == 0 {
		return nil
	}
	for _, r := range b.rows {
		b.ops = append(b.ops, store.Op{Table: r.table, Key: r.key, Value: b.buf[r.off:r.end], Delete: r.del})
	}
	err := db.st.Apply(b.ops)
	clear(b.ops) // drop the key strings and buffer references
	b.buf, b.rows, b.ops = b.buf[:0], b.rows[:0], b.ops[:0]
	return err
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
	buf, ok := db.st.Get(table, InstanceKeyOf(workflow, id))
	if !ok {
		return nil, false, nil
	}
	ins, err := decodeInstance(buf)
	return ins, true, err
}

// LoadInstance retrieves an instance.
func (db *DB) LoadInstance(workflow string, id int) (*Instance, bool, error) {
	return db.loadInstance(tableInstance, workflow, id)
}

// DeleteInstance removes an instance record (e.g. after a purge broadcast).
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
	return db.Commit(b)
}

// LoadArchived retrieves an archived instance.
func (db *DB) LoadArchived(workflow string, id int) (*Instance, bool, error) {
	return db.loadInstance(tableArchive, workflow, id)
}

// SpillArchive moves the archive table's resident values to the store's
// spill file (file-backed stores only; a documented no-op in memory), so an
// unbounded stream of retired instances does not grow resident memory.
func (db *DB) SpillArchive() error { return db.st.Spill(tableArchive) }

// SaveSummary updates the coordination instance summary table.
func (db *DB) SaveSummary(workflow string, id int, status Status) error {
	b := batchPool.Get().(*Batch)
	defer batchPool.Put(b)
	b.SaveSummary(workflow, id, status)
	return db.Commit(b)
}

// LoadSummary reads an instance's summary status.
func (db *DB) LoadSummary(workflow string, id int) (Status, bool, error) {
	buf, ok := db.st.Get(tableSummary, InstanceKeyOf(workflow, id))
	if !ok {
		return 0, false, nil
	}
	st, err := decodeSummary(buf)
	return st, true, err
}

// SummaryKeys lists all summarized instances.
func (db *DB) SummaryKeys() []string { return db.st.Keys(tableSummary) }
