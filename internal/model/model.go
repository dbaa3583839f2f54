// Package model defines workflow schemas as the paper describes them: a
// workflow schema is a directed graph whose nodes are steps and whose arcs
// are control arcs (optionally conditioned, yielding if-then-else branching)
// and data arcs. It also carries the failure-handling specification (rollback
// targets, compensation dependent sets, OCR conditions) and the coordinated
// execution specifications (mutual exclusion, relative ordering, rollback
// dependency) that span schemas.
//
// Steps are black boxes to the WFMS: the model only knows a step's program
// name, its compensation program, whether it updates or merely queries
// resources, which agents are eligible to run it, and its declared inputs and
// outputs. Data items use the paper's Figure 7 naming: workflow inputs are
// WF.I1, WF.I2, ...; the outputs of step S2 are S2.O1, S2.O2, ...
package model

import (
	"fmt"
	"sort"
	"strings"

	"crew/internal/binenc"
)

// StepID identifies a step within one schema.
type StepID string

// Ref returns the full data-item name for an output of this step.
func (id StepID) Ref(output string) string { return string(id) + "." + output }

// Walk is the id's wire and row form, a string.
func (id *StepID) Walk(w *binenc.Walker) { w.String((*string)(id)) }

// WorkflowInput returns the full data-item name of a workflow input.
func WorkflowInput(name string) string { return "WF." + name }

// JoinPolicy determines when a confluence step becomes eligible.
type JoinPolicy int

const (
	// JoinAll fires when control flow along every incoming branch has
	// reached the step (AND-join after a parallel branch).
	JoinAll JoinPolicy = iota
	// JoinAny fires when control flow along any one incoming branch reaches
	// the step (XOR-join after an if-then-else branch).
	JoinAny
)

// String names the join policy.
func (j JoinPolicy) String() string {
	if j == JoinAny {
		return "any"
	}
	return "all"
}

// Step describes one node of a workflow schema.
type Step struct {
	// ID is the step identifier, unique within the schema (e.g. "S1").
	ID StepID
	// Name is an optional human-readable label.
	Name string
	// Program names the black-box program executed to perform the step.
	Program string
	// Compensation names the program that undoes the step; empty means the
	// step is not compensable (its effects need no undoing).
	Compensation string
	// Update marks a step whose program updates shared resources. The
	// distinction matters for predecessor-agent failure: an update step must
	// wait for the failed agent, while a query step may be re-run elsewhere.
	Update bool
	// EligibleAgents lists the agents eligible to execute this step in a
	// distributed architecture; the scheduler picks one at run time.
	EligibleAgents []string
	// Outputs lists the short names of data items the step produces; the
	// full name of output O1 of step S2 is "S2.O1".
	Outputs []string
	// Inputs lists the full data-item names the step consumes
	// (e.g. "WF.I1", "S1.O2"). They define the step's data dependencies.
	Inputs []string
	// Join is the confluence policy when the step has several incoming
	// control arcs.
	Join JoinPolicy
	// ReexecCond is the OCR compensation-and-re-execution condition: when a
	// rolled-back workflow revisits this already-executed step, the step is
	// compensated and re-executed only if the condition evaluates to true.
	// Names prefixed "prev." resolve against the previous execution's
	// inputs/outputs. Empty means "always re-execute" (the conservative
	// Saga-like default).
	ReexecCond string
	// Incremental marks that the step supports partial compensation and
	// incremental re-execution (the cheap arm of the OCR strategy).
	Incremental bool
	// Nested names a child workflow schema executed by this step; Program
	// is ignored for nested steps.
	Nested string
}

// Compensable reports whether the step has a compensation program or is a
// nested workflow (whose children are compensated recursively).
func (s *Step) Compensable() bool { return s.Compensation != "" || s.Nested != "" }

// ArcKind distinguishes control from data arcs.
type ArcKind int

const (
	// Control arcs specify ordering between steps, optionally conditioned.
	Control ArcKind = iota
	// Data arcs denote the flow of data between steps.
	Data
)

// String names the arc kind.
func (k ArcKind) String() string {
	if k == Data {
		return "data"
	}
	return "control"
}

// Arc connects two steps.
type Arc struct {
	From, To StepID
	Kind     ArcKind
	// Cond is a condition on a control arc: the succeeding step is executed
	// only if the condition evaluates to true. Two or more conditioned
	// control arcs out of the same step form an if-then-else branch.
	Cond string
	// Loop marks a back arc: after From completes, if Cond evaluates to
	// true, control flows back to To (re-entering the loop body).
	Loop bool
}

// FailurePolicy is the failure-handling specification for a step.
type FailurePolicy struct {
	// RollbackTo is the step the workflow partially rolls back to when this
	// step fails; re-execution proceeds forward from there.
	RollbackTo StepID
	// MaxAttempts bounds how many times the rollback/re-execute cycle may be
	// applied for this step before the workflow aborts. Zero means 3.
	MaxAttempts int
}

// Attempts returns the effective attempt bound.
func (p FailurePolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// Schema is a workflow definition: the template from which instances are
// created.
type Schema struct {
	// Name is the workflow class name.
	Name string
	// Inputs lists the workflow input item short names (I1, I2, ...).
	Inputs []string
	// Steps maps step IDs to their definitions.
	Steps map[StepID]*Step
	// Order lists step IDs in definition order, for deterministic iteration.
	Order []StepID
	// Arcs lists all control and data arcs.
	Arcs []Arc
	// CompSets lists the compensation dependent sets: each set must be
	// compensated in the reverse of its execution order.
	CompSets [][]StepID
	// OnFailure maps a step to its failure-handling policy. A failing step
	// with no policy aborts the workflow.
	OnFailure map[StepID]FailurePolicy
	// AbortCompensate lists the steps to compensate when the workflow is
	// aborted by the user (the paper's w parameter); if nil, every executed
	// compensable step is compensated.
	AbortCompensate []StepID

	// idx holds the derived graph views and compiled conditions, built by
	// Validate or at the first read and dropped by AddStep and AddArc (see
	// index.go). Once a view has been read, change the schema only through
	// those two.
	idx idxHolder
}

// Step returns the step with the given ID, or nil.
func (s *Schema) Step(id StepID) *Step {
	return s.Steps[id]
}

// StepList returns the steps in definition order.
func (s *Schema) StepList() []*Step {
	out := make([]*Step, 0, len(s.Order))
	for _, id := range s.Order {
		out = append(out, s.Steps[id])
	}
	return out
}

// AddStep inserts a step, replacing any same-ID predecessor definition.
func (s *Schema) AddStep(st *Step) {
	if s.Steps == nil {
		s.Steps = make(map[StepID]*Step)
	}
	if _, exists := s.Steps[st.ID]; !exists {
		s.Order = append(s.Order, st.ID)
	}
	s.Steps[st.ID] = st
	s.invalidateIndex()
}

// AddArc appends an arc.
func (s *Schema) AddArc(a Arc) {
	s.Arcs = append(s.Arcs, a)
	s.invalidateIndex()
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		Name:   s.Name,
		Inputs: append([]string(nil), s.Inputs...),
		Steps:  make(map[StepID]*Step, len(s.Steps)),
		Order:  append([]StepID(nil), s.Order...),
		Arcs:   append([]Arc(nil), s.Arcs...),
	}
	for id, st := range s.Steps {
		cp := *st
		cp.EligibleAgents = append([]string(nil), st.EligibleAgents...)
		cp.Inputs = append([]string(nil), st.Inputs...)
		cp.Outputs = append([]string(nil), st.Outputs...)
		c.Steps[id] = &cp
	}
	for _, set := range s.CompSets {
		c.CompSets = append(c.CompSets, append([]StepID(nil), set...))
	}
	if s.OnFailure != nil {
		c.OnFailure = make(map[StepID]FailurePolicy, len(s.OnFailure))
		for k, v := range s.OnFailure {
			c.OnFailure[k] = v
		}
	}
	c.AbortCompensate = append([]StepID(nil), s.AbortCompensate...)
	return c
}

// CompSetOf returns the compensation dependent set containing the step, or
// nil if the step belongs to none. A step belongs to at most one set
// (validated).
func (s *Schema) CompSetOf(id StepID) []StepID {
	for _, set := range s.CompSets {
		for _, member := range set {
			if member == id {
				return set
			}
		}
	}
	return nil
}

// String summarizes the schema.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %s (%d steps, %d arcs)", s.Name, len(s.Steps), len(s.Arcs))
	return b.String()
}

// ---------------------------------------------------------------------------
// Cross-schema coordination specifications

// StepRef qualifies a step with its workflow class.
type StepRef struct {
	Workflow string
	Step     StepID
}

// String renders the reference in WF.Step form.
func (r StepRef) String() string { return r.Workflow + "." + string(r.Step) }

// Walk is the reference's wire form.
func (r *StepRef) Walk(w *binenc.Walker) {
	w.String(&r.Workflow)
	r.Step.Walk(w)
}

// CoordKind classifies coordinated-execution requirements.
type CoordKind int

const (
	// Mutex requires that the listed step regions from concurrent workflows
	// execute mutually exclusively.
	Mutex CoordKind = iota
	// RelativeOrder requires conflicting step pairs from two workflow
	// classes to execute in the same relative order: whichever instance
	// executes the first conflicting pair member first becomes the leading
	// workflow, and every later pair must preserve that order.
	RelativeOrder
	// RollbackDep requires that rolling one workflow back past a step also
	// rolls a dependent workflow back to a designated step.
	RollbackDep
)

// String names the coordination kind.
func (k CoordKind) String() string {
	switch k {
	case Mutex:
		return "mutex"
	case RelativeOrder:
		return "relative-order"
	case RollbackDep:
		return "rollback-dependency"
	default:
		return fmt.Sprintf("CoordKind(%d)", int(k))
	}
}

// ConflictPair is one pair of conflicting steps in a relative-order spec:
// A belongs to one workflow class and B to the other.
type ConflictPair struct {
	A, B StepRef
}

// CoordSpec is a coordinated-execution requirement spanning workflow classes.
type CoordSpec struct {
	Kind CoordKind
	// Name identifies the spec (e.g. the conflicting resource).
	Name string
	// Mutex: the steps that exclude one another.
	MutexSteps []StepRef
	// RelativeOrder: the ordered list of conflicting pairs; Pairs[0]
	// establishes leading/lagging.
	Pairs []ConflictPair
	// RollbackDep: when a workflow rolls back past Trigger, the instance of
	// the dependent workflow rolls back to Target.
	Trigger StepRef
	Target  StepRef
}

// Library is a set of schemas plus the coordination specs across them — what
// the paper calls the compiled workflow definitions stored in the workflow
// database and replicated to agents.
type Library struct {
	schemas map[string]*Schema
	order   []string
	Coord   []CoordSpec
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{schemas: make(map[string]*Schema)}
}

// Add registers a schema, replacing any previous definition of the same name.
func (l *Library) Add(s *Schema) {
	if _, ok := l.schemas[s.Name]; !ok {
		l.order = append(l.order, s.Name)
	}
	l.schemas[s.Name] = s
}

// Schema returns the named schema, or nil.
func (l *Library) Schema(name string) *Schema { return l.schemas[name] }

// Names returns schema names in registration order.
func (l *Library) Names() []string { return append([]string(nil), l.order...) }

// AddCoord registers a coordination spec.
func (l *Library) AddCoord(c CoordSpec) { l.Coord = append(l.Coord, c) }

// CoordFor returns the coordination specs that mention the given step.
func (l *Library) CoordFor(ref StepRef) []CoordSpec {
	var out []CoordSpec
	for _, c := range l.Coord {
		if c.Mentions(ref) {
			out = append(out, c)
		}
	}
	return out
}

// Mentions reports whether the spec involves the given step.
func (c CoordSpec) Mentions(ref StepRef) bool {
	switch c.Kind {
	case Mutex:
		for _, r := range c.MutexSteps {
			if r == ref {
				return true
			}
		}
	case RelativeOrder:
		for _, p := range c.Pairs {
			if p.A == ref || p.B == ref {
				return true
			}
		}
	case RollbackDep:
		return c.Trigger == ref || c.Target == ref
	}
	return false
}

// SortedAgents returns the union of eligible agents across all steps of all
// schemas in the library, sorted. Used to size distributed deployments.
func (l *Library) SortedAgents() []string {
	set := make(map[string]bool)
	for _, name := range l.order {
		for _, st := range l.schemas[name].Steps {
			for _, a := range st.EligibleAgents {
				set[a] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
