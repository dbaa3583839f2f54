package model

import (
	"sync/atomic"

	"crew/internal/event"
	"crew/internal/expr"
)

// graphIndex caches every derived view of a schema's control graph, plus the
// compiled form of every condition expression appearing in the schema. The
// engines re-derive these views on every rule-evaluation round, which made
// graph traversal and expression compilation the dominant allocators on the
// hot path; a frozen schema answers them from the index instead.
//
// The index is built by freeze() when validation succeeds and is dropped by
// any schema mutation (AddStep/AddArc), so an index, once observed, always
// matches the schema. Cached slices and maps are shared with callers and
// must be treated as read-only.
type graphIndex struct {
	succ      map[StepID][]Arc
	loops     map[StepID][]Arc
	preds     map[StepID][]StepID
	starts    []StepID
	terminals []StepID
	desc      map[StepID]map[StepID]bool
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

// index returns the frozen graph index, or nil if the schema has been
// mutated since the last successful validation.
func (s *Schema) index() *graphIndex { return s.idx.Load() }

// invalidateIndex drops the cached index after a mutation.
func (s *Schema) invalidateIndex() { s.idx.Store(nil) }

// freeze (re)builds the graph index. Validate calls it on success; until
// then every accessor computes its answer from scratch, so schemas that are
// never validated keep the original semantics.
func (s *Schema) freeze() {
	ix := &graphIndex{
		succ:     make(map[StepID][]Arc, len(s.Steps)),
		loops:    map[StepID][]Arc{},
		preds:    make(map[StepID][]StepID, len(s.Steps)),
		desc:     make(map[StepID]map[StepID]bool, len(s.Steps)),
		dataSrc:  make(map[StepID][]StepID, len(s.Steps)),
		producer: map[string]StepID{},
		conds:    map[string]*expr.Expr{},
		doneEv:   make(map[StepID]string, len(s.Steps)),
		failEv:   make(map[StepID]string, len(s.Steps)),
		compEv:   make(map[StepID]string, len(s.Steps)),
		refs:     make(map[StepID]map[string]string, len(s.Steps)),
	}
	for _, a := range s.Arcs {
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
	for _, id := range s.Order {
		if len(ix.preds[id]) == 0 {
			ix.starts = append(ix.starts, id)
		}
		if len(ix.succ[id]) == 0 {
			ix.terminals = append(ix.terminals, id)
		}
	}
	for _, id := range s.Order {
		out := make(map[StepID]bool)
		var visit func(StepID)
		visit = func(cur StepID) {
			for _, a := range ix.succ[cur] {
				if !out[a.To] {
					out[a.To] = true
					visit(a.To)
				}
			}
		}
		visit(id)
		ix.desc[id] = out
		if src := s.computeDataSourceSteps(id); src != nil {
			ix.dataSrc[id] = src
		}
		ix.doneEv[id] = event.DoneName(string(id))
		ix.failEv[id] = event.FailName(string(id))
		ix.compEv[id] = event.CompensatedName(string(id))
		if outs := s.Steps[id].Outputs; len(outs) > 0 {
			rf := make(map[string]string, len(outs))
			for _, out := range outs {
				full := id.Ref(out)
				rf[out] = full
				ix.producer[full] = id
			}
			ix.refs[id] = rf
		}
		if rc := s.Steps[id].ReexecCond; rc != "" {
			if e, err := expr.Compile(rc); err == nil {
				ix.conds[rc] = e
			}
		}
	}
	for _, a := range s.Arcs {
		if a.Cond == "" {
			continue
		}
		if _, ok := ix.conds[a.Cond]; ok {
			continue
		}
		if e, err := expr.Compile(a.Cond); err == nil {
			ix.conds[a.Cond] = e
		}
	}
	ix.topo = s.computeTopoOrder()
	ix.steps, ix.data, ix.events = s.computeTableSizes()
	s.idx.Store(ix)
}

// Frozen reports whether the schema carries a valid graph index (validated
// and unmutated since).
func (s *Schema) Frozen() bool { return s.index() != nil }

// TableSizes returns how many step records, data items and events one
// failure-free run of the schema leaves in an instance's tables: a record
// and a done event per step, the workflow start, and every workflow input
// and declared step output. Instances size their tables from it.
func (s *Schema) TableSizes() (steps, data, events int) {
	if ix := s.index(); ix != nil {
		return ix.steps, ix.data, ix.events
	}
	return s.computeTableSizes()
}

func (s *Schema) computeTableSizes() (steps, data, events int) {
	data = len(s.Inputs)
	for _, id := range s.Order {
		if st := s.Steps[id]; st != nil {
			data += len(st.Outputs)
		}
	}
	return len(s.Order), data, len(s.Order) + 1
}

// TemplateCache returns the schema's opaque memoization slot for derived
// per-schema artifacts (the rules package stores the compiled rule program
// there), or nil if the schema is not frozen. All stores must use one
// concrete type.
func (s *Schema) TemplateCache() *atomic.Value {
	if ix := s.index(); ix != nil {
		return &ix.ruleCache
	}
	return nil
}

// DoneEventOf returns the step.done event name of a step, interned for
// frozen schemas.
func (s *Schema) DoneEventOf(id StepID) string {
	if ix := s.index(); ix != nil {
		if n, ok := ix.doneEv[id]; ok {
			return n
		}
	}
	return event.DoneName(string(id))
}

// FailEventOf returns the step.fail event name of a step, interned for
// frozen schemas.
func (s *Schema) FailEventOf(id StepID) string {
	if ix := s.index(); ix != nil {
		if n, ok := ix.failEv[id]; ok {
			return n
		}
	}
	return event.FailName(string(id))
}

// CompEventOf returns the step.compensated event name of a step, interned
// for frozen schemas.
func (s *Schema) CompEventOf(id StepID) string {
	if ix := s.index(); ix != nil {
		if n, ok := ix.compEv[id]; ok {
			return n
		}
	}
	return event.CompensatedName(string(id))
}

// OutputRef returns the full data-table name of a step's declared output,
// interned for frozen schemas.
func (s *Schema) OutputRef(id StepID, short string) string {
	if ix := s.index(); ix != nil {
		if n, ok := ix.refs[id][short]; ok {
			return n
		}
	}
	return id.Ref(short)
}

// CondExpr returns the compiled form of a condition source appearing in the
// schema (arc conditions, loop conditions, re-execution conditions). Frozen
// schemas answer from the compilation cache; unvalidated schemas (or sources
// not present in the schema text) compile afresh.
func (s *Schema) CondExpr(src string) (*expr.Expr, error) {
	if ix := s.index(); ix != nil {
		if e, ok := ix.conds[src]; ok {
			return e, nil
		}
	}
	return expr.Compile(src)
}
