package model

import (
	"sort"
	"sync"
	"sync/atomic"

	"crew/internal/binenc"
	"crew/internal/event"
	"crew/internal/expr"
)

// graphIndex holds every derived view of a schema: its control graph's
// successors, predecessors, starts, terminals, descendants and topological
// order, its data producers, the compiled form of every condition expression
// and the interned per-step names. The engines read these views on every
// rule-evaluation round, so each is computed once per version of the schema.
//
// A schema has one index per version. Validate builds it after its
// structural checks, and its graph checks read it; a schema that was never
// validated builds it at its first read. AddStep and AddArc drop it, so an
// index, once observed, always matches the schema. Its slices and maps are
// shared with every caller and must be treated as read-only.
type graphIndex struct {
	succ      map[StepID][]Arc
	loops     map[StepID][]Arc
	preds     map[StepID][]StepID
	starts    []StepID
	terminals []StepID
	desc      map[StepID]map[StepID]bool
	descOrd   map[StepID][]StepID // desc in schema order (OrderedDescendants)
	dataSrc   map[StepID][]StepID
	topo      []StepID
	producer  map[string]StepID
	conds     map[string]*expr.Expr
	// Interned per-step name strings: the step.done/step.fail/
	// step.compensated event names and the full data-table name of every
	// declared output. Run-time layers build these strings once per posted
	// event otherwise, which shows up as a top allocator under load.
	doneEv map[StepID]string
	failEv map[StepID]string
	compEv map[StepID]string
	refs   map[StepID]map[string]string
	// steps, data, events: TableSizes of the schema.
	steps, data, events int
	// names is the schema's name table, built at the first Names call: a
	// process that writes no instance row (an mproc hub) keeps none.
	namesOnce sync.Once
	names     *binenc.Names

	// ruleCache is an opaque memoization slot for the rules package (the
	// compiled rule program of this schema). Keeping it inside the index
	// ties its lifetime to the schema and drops it on mutation, without the
	// model package knowing the cached type.
	ruleCache atomic.Value
}

// idxHolder wraps the atomic index pointer so Schema stays a plain struct
// (the atomic field must not be copied; Schema values never are — Clone
// builds a fresh literal — but keeping the pointer behind a named type makes
// the intent explicit).
type idxHolder = atomic.Pointer[graphIndex]

// index returns the schema's graph index, building it at the first read of
// this version of the schema.
func (s *Schema) index() *graphIndex {
	if ix := s.idx.Load(); ix != nil {
		return ix
	}
	return s.buildIndex()
}

// invalidateIndex drops the index after a mutation.
func (s *Schema) invalidateIndex() { s.idx.Store(nil) }

// buildIndex builds the index of the schema as it stands and stores it by
// compare-and-swap: when several goroutines make the first read at once,
// each gets the one index that was stored.
func (s *Schema) buildIndex() *graphIndex {
	ix := &graphIndex{
		succ:     make(map[StepID][]Arc, len(s.Steps)),
		loops:    map[StepID][]Arc{},
		preds:    make(map[StepID][]StepID, len(s.Steps)),
		desc:     make(map[StepID]map[StepID]bool, len(s.Steps)),
		descOrd:  make(map[StepID][]StepID, len(s.Steps)),
		dataSrc:  make(map[StepID][]StepID, len(s.Steps)),
		producer: map[string]StepID{},
		conds:    map[string]*expr.Expr{},
		doneEv:   make(map[StepID]string, len(s.Steps)),
		failEv:   make(map[StepID]string, len(s.Steps)),
		compEv:   make(map[StepID]string, len(s.Steps)),
		refs:     make(map[StepID]map[string]string, len(s.Steps)),
	}
	for _, a := range s.Arcs {
		if a.Cond != "" && ix.conds[a.Cond] == nil {
			if e, err := expr.Compile(a.Cond); err == nil {
				ix.conds[a.Cond] = e
			}
		}
		if a.Kind != Control {
			continue
		}
		if a.Loop {
			ix.loops[a.From] = append(ix.loops[a.From], a)
		} else {
			ix.succ[a.From] = append(ix.succ[a.From], a)
			ix.preds[a.To] = append(ix.preds[a.To], a.From)
		}
	}
	ix.data = len(s.Inputs)
	for _, id := range s.Order {
		ix.doneEv[id] = event.DoneName(string(id))
		ix.failEv[id] = event.FailName(string(id))
		ix.compEv[id] = event.CompensatedName(string(id))
		st := s.Steps[id]
		if st == nil { // an order entry with no step: Validate rejects it
			continue
		}
		if len(ix.preds[id]) == 0 {
			ix.starts = append(ix.starts, id)
		}
		if len(ix.succ[id]) == 0 {
			ix.terminals = append(ix.terminals, id)
		}
		ix.data += len(st.Outputs)
		if len(st.Outputs) > 0 {
			rf := make(map[string]string, len(st.Outputs))
			for _, out := range st.Outputs {
				full := id.Ref(out)
				rf[out] = full
				ix.producer[full] = id
			}
			ix.refs[id] = rf
		}
		if rc := st.ReexecCond; rc != "" && ix.conds[rc] == nil {
			if e, err := expr.Compile(rc); err == nil {
				ix.conds[rc] = e
			}
		}
	}
	ix.steps, ix.events = len(s.Order), len(s.Order)+1
	for _, id := range s.Order {
		st := s.Steps[id]
		if st == nil {
			continue
		}
		desc := map[StepID]bool{}
		ix.visit(id, desc)
		ix.desc[id] = desc
		ix.descOrd[id] = s.inOrder(desc)
		src := map[StepID]bool{}
		for _, in := range st.Inputs {
			if p, ok := ix.producer[in]; ok && p != id {
				src[p] = true
			}
		}
		if len(src) > 0 {
			ix.dataSrc[id] = s.inOrder(src)
		}
	}
	ix.topo = s.topoOrder(ix)
	if !s.idx.CompareAndSwap(nil, ix) {
		return s.idx.Load()
	}
	return ix
}

// visit adds every step reachable from cur by non-loop control arcs to out.
func (ix *graphIndex) visit(cur StepID, out map[StepID]bool) {
	for _, a := range ix.succ[cur] {
		if !out[a.To] {
			out[a.To] = true
			ix.visit(a.To, out)
		}
	}
}

// inOrder lists the members of set in schema order, in a slice of cap len.
func (s *Schema) inOrder(set map[StepID]bool) []StepID {
	out := make([]StepID, 0, len(set))
	for _, id := range s.Order {
		if set[id] {
			out = append(out, id)
		}
	}
	return out
}

// topoOrder lists the steps in a topological order of the non-loop control
// graph, ties broken by definition order. A cyclic graph leaves the steps
// on and after a cycle out.
func (s *Schema) topoOrder(ix *graphIndex) []StepID {
	indeg := make(map[StepID]int, len(s.Order))
	pos := make(map[StepID]int, len(s.Order))
	var ready []StepID
	for i, id := range s.Order {
		pos[id] = i
		indeg[id] = len(ix.preds[id])
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []StepID
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
		cur := ready[0]
		ready = ready[1:]
		out = append(out, cur)
		for _, a := range ix.succ[cur] {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return out
}

// nameTable lists every name an instance row of the schema can hold, in
// schema order: the step ids, the workflow inputs, each output's full and
// short name, the workflow's start, done and abort events, each step's done,
// fail and compensated events, and each step's eligible agents.
func (s *Schema) nameTable(ix *graphIndex) *binenc.Names {
	var names []string
	for _, id := range s.Order {
		names = append(names, string(id))
	}
	for _, in := range s.Inputs {
		names = append(names, WorkflowInput(in))
	}
	for _, id := range s.Order {
		if st := s.Steps[id]; st != nil {
			for _, out := range st.Outputs {
				names = append(names, ix.refs[id][out], out)
			}
		}
	}
	names = append(names, event.WorkflowStartName, event.WorkflowDoneName, event.WorkflowAbortName)
	for _, id := range s.Order {
		names = append(names, ix.doneEv[id], ix.failEv[id], ix.compEv[id])
	}
	for _, id := range s.Order {
		if st := s.Steps[id]; st != nil {
			names = append(names, st.EligibleAgents...)
		}
	}
	return binenc.NewNames(names)
}

// Names returns the schema's name table, which instance rows write names as
// indexes into.
func (s *Schema) Names() *binenc.Names {
	ix := s.index()
	ix.namesOnce.Do(func() { ix.names = s.nameTable(ix) })
	return ix.names
}

// TableSizes returns how many step records, data items and events one
// failure-free run of the schema leaves in an instance's tables: a record
// and a done event per step, the workflow start, and every workflow input
// and declared step output. Instances size their tables from it.
func (s *Schema) TableSizes() (steps, data, events int) {
	ix := s.index()
	return ix.steps, ix.data, ix.events
}

// TemplateCache returns the schema's opaque memoization slot for derived
// per-schema artifacts (the rules package stores the compiled rule program
// there). All stores must use one concrete type.
func (s *Schema) TemplateCache() *atomic.Value { return &s.index().ruleCache }

// DoneEventOf returns the step.done event name of a step, interned for the
// schema's steps.
func (s *Schema) DoneEventOf(id StepID) string {
	if n, ok := s.index().doneEv[id]; ok {
		return n
	}
	return event.DoneName(string(id))
}

// FailEventOf returns the step.fail event name of a step, interned for the
// schema's steps.
func (s *Schema) FailEventOf(id StepID) string {
	if n, ok := s.index().failEv[id]; ok {
		return n
	}
	return event.FailName(string(id))
}

// CompEventOf returns the step.compensated event name of a step, interned
// for the schema's steps.
func (s *Schema) CompEventOf(id StepID) string {
	if n, ok := s.index().compEv[id]; ok {
		return n
	}
	return event.CompensatedName(string(id))
}

// OutputRef returns the full data-table name of a step's declared output,
// interned for the schema's declared outputs.
func (s *Schema) OutputRef(id StepID, short string) string {
	if n, ok := s.index().refs[id][short]; ok {
		return n
	}
	return id.Ref(short)
}

// CondExpr returns the compiled form of a condition source appearing in the
// schema (arc conditions, loop conditions, re-execution conditions) from
// the index; a source the schema does not hold compiles afresh.
func (s *Schema) CondExpr(src string) (*expr.Expr, error) {
	if e, ok := s.index().conds[src]; ok {
		return e, nil
	}
	return expr.Compile(src)
}
