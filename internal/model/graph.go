package model

import "sort"

// The derived graph views below are answered from the frozen index when the
// schema has been validated (see index.go); the compute* fallbacks preserve
// the original from-scratch semantics for unvalidated schemas. Returned
// slices and maps may be shared cache entries: callers must not mutate them.

// StartSteps returns the steps with no incoming (non-loop) control arc: the
// steps triggered directly by the workflow.start event. Order follows
// definition order.
func (s *Schema) StartSteps() []StepID {
	if ix := s.index(); ix != nil {
		return ix.starts
	}
	hasIn := make(map[StepID]bool)
	for _, a := range s.Arcs {
		if a.Kind == Control && !a.Loop {
			hasIn[a.To] = true
		}
	}
	var out []StepID
	for _, id := range s.Order {
		if !hasIn[id] {
			out = append(out, id)
		}
	}
	return out
}

// TerminalSteps returns the steps with no outgoing (non-loop) control arc:
// the last step along each path. Their agents act as termination agents and
// report StepCompleted to the coordination agent.
func (s *Schema) TerminalSteps() []StepID {
	if ix := s.index(); ix != nil {
		return ix.terminals
	}
	hasOut := make(map[StepID]bool)
	for _, a := range s.Arcs {
		if a.Kind == Control && !a.Loop {
			hasOut[a.From] = true
		}
	}
	var out []StepID
	for _, id := range s.Order {
		if !hasOut[id] {
			out = append(out, id)
		}
	}
	return out
}

// ControlSuccessors returns the non-loop control successors of a step, with
// the arcs (so callers can evaluate branch conditions), in arc order.
func (s *Schema) ControlSuccessors(id StepID) []Arc {
	if ix := s.index(); ix != nil {
		return ix.succ[id]
	}
	var out []Arc
	for _, a := range s.Arcs {
		if a.Kind == Control && !a.Loop && a.From == id {
			out = append(out, a)
		}
	}
	return out
}

// LoopArcs returns the loop back-arcs out of a step.
func (s *Schema) LoopArcs(id StepID) []Arc {
	if ix := s.index(); ix != nil {
		return ix.loops[id]
	}
	var out []Arc
	for _, a := range s.Arcs {
		if a.Kind == Control && a.Loop && a.From == id {
			out = append(out, a)
		}
	}
	return out
}

// ControlPredecessors returns the non-loop control predecessors of a step.
func (s *Schema) ControlPredecessors(id StepID) []StepID {
	if ix := s.index(); ix != nil {
		return ix.preds[id]
	}
	var out []StepID
	for _, a := range s.Arcs {
		if a.Kind == Control && !a.Loop && a.To == id {
			out = append(out, a.From)
		}
	}
	return out
}

// IsBranching reports whether the step's outgoing control arcs form an
// if-then-else branch: more than one successor and at least one conditioned
// arc. (Unconditioned multi-successor steps are parallel branches.)
func (s *Schema) IsBranching(id StepID) bool {
	succ := s.ControlSuccessors(id)
	if len(succ) < 2 {
		return false
	}
	for _, a := range succ {
		if a.Cond != "" {
			return true
		}
	}
	return false
}

// IsParallelBranch reports whether the step fans out to several branches
// unconditionally.
func (s *Schema) IsParallelBranch(id StepID) bool {
	succ := s.ControlSuccessors(id)
	if len(succ) < 2 {
		return false
	}
	for _, a := range succ {
		if a.Cond != "" {
			return false
		}
	}
	return true
}

// IsConfluence reports whether the step joins several incoming branches.
func (s *Schema) IsConfluence(id StepID) bool {
	return len(s.ControlPredecessors(id)) > 1
}

// Descendants returns every step reachable from id by non-loop control arcs,
// excluding id itself. This is the set of steps whose events a HaltThread /
// rollback starting at id must invalidate. The result may be a shared cache
// entry: treat it as read-only.
func (s *Schema) Descendants(id StepID) map[StepID]bool {
	if ix := s.index(); ix != nil {
		if d, ok := ix.desc[id]; ok {
			return d
		}
	}
	out := make(map[StepID]bool)
	var visit func(StepID)
	visit = func(cur StepID) {
		for _, a := range s.ControlSuccessors(cur) {
			if !out[a.To] {
				out[a.To] = true
				visit(a.To)
			}
		}
	}
	visit(id)
	return out
}

// OrderedDescendants is Descendants in schema order. A frozen schema answers
// from its index with a slice whose cap is its len, so an append copies it;
// the slice is shared: treat it as read-only.
func (s *Schema) OrderedDescendants(id StepID) []StepID {
	if ix := s.index(); ix != nil {
		if d, ok := ix.descOrd[id]; ok {
			return d
		}
	}
	return s.inOrder(s.Descendants(id))
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

// DescendantsInclusive is Descendants plus the origin itself. The result is
// always a fresh map owned by the caller.
func (s *Schema) DescendantsInclusive(id StepID) map[StepID]bool {
	desc := s.Descendants(id)
	out := make(map[StepID]bool, len(desc)+1)
	for k, v := range desc {
		out[k] = v
	}
	out[id] = true
	return out
}

// LoopBody returns the steps in the body of a loop whose back arc goes from
// tail to head: the steps on non-loop control paths from head to tail
// (inclusive). Their step.done events are invalidated on every loop-back so
// the body re-executes.
func (s *Schema) LoopBody(head, tail StepID) []StepID {
	// Steps reachable from head (inclusive)…
	fromHead := s.DescendantsInclusive(head)
	// …that also reach tail (inclusive).
	reachesTail := make(map[StepID]bool)
	var canReach func(StepID) bool
	memo := make(map[StepID]int) // 0 unknown, 1 yes, 2 no
	canReach = func(cur StepID) bool {
		if cur == tail {
			return true
		}
		switch memo[cur] {
		case 1:
			return true
		case 2:
			return false
		}
		memo[cur] = 2 // guards against revisits while exploring
		ok := false
		for _, a := range s.ControlSuccessors(cur) {
			if canReach(a.To) {
				ok = true
				break
			}
		}
		if ok {
			memo[cur] = 1
		}
		return ok
	}
	for id := range fromHead {
		if canReach(id) {
			reachesTail[id] = true
		}
	}
	var out []StepID
	for _, id := range s.Order {
		if fromHead[id] && reachesTail[id] {
			out = append(out, id)
		}
	}
	return out
}

// DataSourceSteps returns the IDs of steps whose outputs appear among the
// given step's inputs. The rule triggering a step requires step.done events
// from these steps in addition to its control predecessors.
func (s *Schema) DataSourceSteps(id StepID) []StepID {
	if ix := s.index(); ix != nil {
		return ix.dataSrc[id]
	}
	return s.computeDataSourceSteps(id)
}

func (s *Schema) computeDataSourceSteps(id StepID) []StepID {
	st := s.Steps[id]
	if st == nil {
		return nil
	}
	set := make(map[StepID]bool)
	for _, in := range st.Inputs {
		for _, cand := range s.Order {
			if cand == id {
				continue
			}
			for _, out := range s.Steps[cand].Outputs {
				if cand.Ref(out) == in {
					set[cand] = true
				}
			}
		}
	}
	var out []StepID
	for _, cand := range s.Order {
		if set[cand] {
			out = append(out, cand)
		}
	}
	return out
}

// ProducerOf returns the step that produces the named data item, or "" if the
// item is a workflow input or unknown.
func (s *Schema) ProducerOf(item string) StepID {
	if ix := s.index(); ix != nil {
		return ix.producer[item]
	}
	for _, id := range s.Order {
		for _, out := range s.Steps[id].Outputs {
			if id.Ref(out) == item {
				return id
			}
		}
	}
	return ""
}

// TopoOrder returns the steps in a topological order of the non-loop control
// graph. Validation guarantees acyclicity, so this always covers all steps;
// ties break by definition order.
func (s *Schema) TopoOrder() []StepID {
	if ix := s.index(); ix != nil {
		return ix.topo
	}
	return s.computeTopoOrder()
}

func (s *Schema) computeTopoOrder() []StepID {
	indeg := make(map[StepID]int, len(s.Steps))
	for _, id := range s.Order {
		indeg[id] = 0
	}
	for _, a := range s.Arcs {
		if a.Kind == Control && !a.Loop {
			indeg[a.To]++
		}
	}
	// Ready queue kept sorted by definition order index.
	pos := make(map[StepID]int, len(s.Order))
	for i, id := range s.Order {
		pos[id] = i
	}
	var ready []StepID
	for _, id := range s.Order {
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
		for _, a := range s.ControlSuccessors(cur) {
			indeg[a.To]--
			if indeg[a.To] == 0 {
				ready = append(ready, a.To)
			}
		}
	}
	return out
}

// PathExists reports whether a non-loop control path leads from a to b.
func (s *Schema) PathExists(a, b StepID) bool {
	if a == b {
		return true
	}
	return s.Descendants(a)[b]
}

// ExecutedBefore reports whether step a precedes step b in the given
// execution order (a slice of step IDs in completion order). Used to
// compensate dependent sets in reverse execution order.
func ExecutedBefore(order []StepID, a, b StepID) bool {
	ia, ib := -1, -1
	for i, id := range order {
		if id == a && ia < 0 {
			ia = i
		}
		if id == b && ib < 0 {
			ib = i
		}
	}
	return ia >= 0 && ib >= 0 && ia < ib
}
