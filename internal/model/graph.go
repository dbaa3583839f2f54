package model

// The derived graph views below answer from the schema's index (see
// index.go). Returned slices and maps are shared: callers must not mutate
// them.

// StartSteps returns the steps with no incoming (non-loop) control arc: the
// steps triggered directly by the workflow.start event. Order follows
// definition order.
func (s *Schema) StartSteps() []StepID {
	return s.index().starts
}

// TerminalSteps returns the steps with no outgoing (non-loop) control arc:
// the last step along each path. Their agents act as termination agents and
// report StepCompleted to the coordination agent.
func (s *Schema) TerminalSteps() []StepID {
	return s.index().terminals
}

// ControlSuccessors returns the non-loop control successors of a step, with
// the arcs (so callers can evaluate branch conditions), in arc order.
func (s *Schema) ControlSuccessors(id StepID) []Arc {
	return s.index().succ[id]
}

// LoopArcs returns the loop back-arcs out of a step.
func (s *Schema) LoopArcs(id StepID) []Arc {
	return s.index().loops[id]
}

// ControlPredecessors returns the non-loop control predecessors of a step.
func (s *Schema) ControlPredecessors(id StepID) []StepID {
	return s.index().preds[id]
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
// rollback starting at id must invalidate.
func (s *Schema) Descendants(id StepID) map[StepID]bool {
	return s.index().desc[id]
}

// OrderedDescendants is Descendants in schema order, in a slice whose cap is
// its len, so an append copies it.
func (s *Schema) OrderedDescendants(id StepID) []StepID {
	return s.index().descOrd[id]
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
	return s.index().dataSrc[id]
}

// ProducerOf returns the step that produces the named data item, or "" if the
// item is a workflow input or unknown.
func (s *Schema) ProducerOf(item string) StepID {
	return s.index().producer[item]
}

// TopoOrder returns the steps in a topological order of the non-loop control
// graph. Validation guarantees acyclicity, so this always covers all steps;
// ties break by definition order.
func (s *Schema) TopoOrder() []StepID {
	return s.index().topo
}

// PathExists reports whether a non-loop control path leads from a to b.
func (s *Schema) PathExists(a, b StepID) bool {
	if a == b {
		return true
	}
	return s.Descendants(a)[b]
}
