// Package event defines the event vocabulary of the rule-based workflow
// run-time (workflow.start, step.done, step.fail, step.compensated,
// workflow.done, workflow.abort, and externally injected coordination
// events), and the per-instance event table with the invalidation semantics
// the paper requires: when a workflow is rolled back, step.done events of
// steps that are successors of the rollback origin are invalidated so that
// stale rules cannot fire, which is also how race conditions between parallel
// threads are avoided.
package event

import (
	"fmt"
	"sort"
	"strings"

	"crew/internal/binenc"
)

// Kind classifies events.
type Kind int

const (
	// WorkflowStart is generated when an instance is created.
	WorkflowStart Kind = iota
	// StepDone is generated when a step completes successfully.
	StepDone
	// StepFail is generated when a step fails logically.
	StepFail
	// StepCompensated is generated when a step's compensation completes.
	StepCompensated
	// WorkflowDone is generated when the workflow commits.
	WorkflowDone
	// WorkflowAbort is generated when the workflow aborts.
	WorkflowAbort
	// External marks coordination events injected by AddEvent from other
	// workflow instances (e.g. relative-ordering notifications).
	External
)

// String names the kind using the paper's dotted notation.
func (k Kind) String() string {
	switch k {
	case WorkflowStart:
		return "workflow.start"
	case StepDone:
		return "step.done"
	case StepFail:
		return "step.fail"
	case StepCompensated:
		return "step.compensated"
	case WorkflowDone:
		return "workflow.done"
	case WorkflowAbort:
		return "workflow.abort"
	case External:
		return "external"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Canonical event-name constructors. Rules wait on these names.

// WorkflowStartName is the event posted when an instance starts.
const WorkflowStartName = "WF.start"

// WorkflowDoneName is the event posted when an instance commits.
const WorkflowDoneName = "WF.done"

// WorkflowAbortName is the event posted when an instance aborts.
const WorkflowAbortName = "WF.abort"

// DoneName returns the step.done event name for a step.
func DoneName(step string) string { return step + ".done" }

// FailName returns the step.fail event name for a step.
func FailName(step string) string { return step + ".fail" }

// CompensatedName returns the step.compensated event name for a step.
func CompensatedName(step string) string { return step + ".compensated" }

// ExternalName returns the canonical name for a coordination event injected
// from another workflow instance, e.g. ext:WF1.3:S12.done — the form carried
// in the "Events" section of a workflow packet (paper Figure 7 shows entries
// such as WF1.S and S1.D; we keep instance qualification to disambiguate
// concurrent instances).
func ExternalName(workflow string, instance int, suffix string) string {
	return fmt.Sprintf("ext:%s.%d:%s", workflow, instance, suffix)
}

// IsExternalName reports whether name denotes an injected coordination event.
func IsExternalName(name string) bool { return strings.HasPrefix(name, "ext:") }

// StepOfDone extracts the step ID from a step.done event name, or "" if the
// name is not a step.done event.
func StepOfDone(name string) string {
	if s, ok := strings.CutSuffix(name, ".done"); ok && !IsExternalName(name) && s != "WF" {
		return s
	}
	return ""
}

// entry records an event occurrence. count counts total occurrences (loops
// re-post step.done on every iteration); valid marks whether the latest
// occurrence is still valid or has been invalidated by a rollback.
type entry struct {
	count int
	valid bool
}

// Observer receives every table mutation: posted is true for Post (the
// event's occurrence count grew), false for an invalidation; wasValid and
// nowValid frame the validity transition. Observers must not mutate the
// table from the callback. An interface, so a rule engine binds without
// allocating a method value.
type Observer interface {
	Observe(name string, posted, wasValid, nowValid bool)
}

// Table is the per-instance event table. It is not safe for concurrent use;
// each owner (engine or agent goroutine) serializes access.
type Table struct {
	entries map[string]entry
	seq     int // bumps on every mutation; used to detect staleness cheaply
	obs     Observer
}

// NewTable returns an empty event table.
func NewTable() *Table { return NewTableSize(0) }

// NewTableSize returns an empty event table with room for n events, so a
// fresh instance's table does not grow while it runs.
func NewTableSize(n int) *Table {
	return &Table{entries: make(map[string]entry, n)}
}

// Reset empties the table in place, keeping its storage and its observer,
// which is not told: an engine bound to the table recounts when it loads its
// rules again (rules.Engine.Load).
func (t *Table) Reset() {
	clear(t.entries)
	t.seq = 0
}

// SetObserver installs the mutation observer (nil removes it). A table has
// at most one observer — the rule engine bound to it — which is how bound
// engines track rule satisfaction incrementally. Clones and imported tables
// start with no observer.
func (t *Table) SetObserver(o Observer) { t.obs = o }

// Post records an occurrence of the named event and returns true if this
// changed the table (the event was previously absent or invalidated).
func (t *Table) Post(name string) bool {
	e := t.entries[name]
	changed := !e.valid
	e.count++
	e.valid = true
	t.entries[name] = e
	t.seq++
	if t.obs != nil {
		t.obs.Observe(name, true, !changed, true)
	}
	return changed
}

// Has reports whether the named event has a valid occurrence.
func (t *Table) Has(name string) bool {
	return t.entries[name].valid
}

// Count returns the total number of times the event has been posted,
// including occurrences that were later invalidated.
func (t *Table) Count(name string) int {
	return t.entries[name].count
}

// Invalidate marks the named event invalid and returns whether it was valid.
func (t *Table) Invalidate(name string) bool {
	e, ok := t.entries[name]
	if !ok || !e.valid {
		return false
	}
	e.valid = false
	t.entries[name] = e
	t.seq++
	if t.obs != nil {
		t.obs.Observe(name, false, true, false)
	}
	return true
}

// InvalidateWhere invalidates every valid event whose name satisfies pred and
// returns how many were invalidated.
func (t *Table) InvalidateWhere(pred func(name string) bool) int {
	n := 0
	for name, e := range t.entries {
		if e.valid && pred(name) {
			e.valid = false
			t.entries[name] = e
			n++
			if t.obs != nil {
				t.obs.Observe(name, false, true, false)
			}
		}
	}
	if n > 0 {
		t.seq++
	}
	return n
}

// RangeValid calls fn for every valid event, in unspecified order, without
// allocating. Callers needing deterministic order use ValidNames. fn must not
// mutate the table.
func (t *Table) RangeValid(fn func(name string)) {
	for name, e := range t.entries {
		if e.valid {
			fn(name)
		}
	}
}

// ValidNames returns the sorted names of all valid events. This is the event
// section carried inside a workflow packet.
func (t *Table) ValidNames() []string {
	names := make([]string, 0, len(t.entries))
	for name, e := range t.entries {
		if e.valid {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Seq returns a counter that changes on every table mutation.
func (t *Table) Seq() int { return t.seq }

// Len returns the number of valid events.
func (t *Table) Len() int {
	n := 0
	for _, e := range t.entries {
		if e.valid {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := NewTable()
	for name, e := range t.entries {
		c.entries[name] = e
	}
	c.seq = t.seq
	return c
}

// String renders the valid events, comma separated, for logs and packets.
func (t *Table) String() string {
	return strings.Join(t.ValidNames(), " ")
}

// Exported is one event-table entry as Export reports it.
type Exported struct {
	Name  string
	Count int
	Valid bool
}

// Export returns all entries (including invalidated ones) sorted by name,
// for inspection and as the reference the binary form is tested against.
func (t *Table) Export() []Exported {
	out := make([]Exported, 0, len(t.entries))
	for name, e := range t.entries {
		out = append(out, Exported{Name: name, Count: e.count, Valid: e.valid})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Walk is the table's binary form — the event section of a WFDB row: every
// entry (invalidated ones included, with their counts) as its name and one
// uvarint, count<<1 | valid, in binenc.Map's order. A decoded table has no
// observer.
func (t *Table) Walk(w *binenc.Walker) {
	binenc.Map(w, &t.entries, 2, walkEntry) // name, the count and validity
	if w.Decoding() {
		if t.entries == nil {
			t.entries = make(map[string]entry)
		}
		t.seq = len(t.entries)
	}
}

func walkEntry(w *binenc.Walker, e entry) entry {
	x := uint64(e.count) << 1
	if e.valid {
		x |= 1
	}
	w.Uint(&x)
	if w.Decoding() {
		e.count, e.valid = int(x>>1), x&1 != 0
	}
	return e
}
