package model

import (
	"errors"
	"fmt"
	"strings"

	"crew/internal/expr"
)

// ValidationError aggregates all problems found in a schema or library.
type ValidationError struct {
	Subject  string
	Problems []string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("model: %s invalid: %s", e.Subject, strings.Join(e.Problems, "; "))
}

// Validate checks structural well-formedness of the schema:
//   - at least one step; step IDs well-formed and unique (enforced by map);
//   - every arc references defined steps; loop arcs carry a condition;
//   - the non-loop control graph is acyclic;
//   - at least one start step and one terminal step;
//   - arc and OCR conditions compile;
//   - compensation dependent sets reference compensable steps, and no step
//     belongs to two sets;
//   - failure policies roll back to steps that can reach the failing step;
//   - step inputs that name another step's output have a matching producer.
//
// The graph checks, after the structural ones, read the schema's index; the
// first builds it unless an earlier read did.
func (s *Schema) Validate() error {
	var probs []string
	add := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	if s.Name == "" {
		add("schema has no name")
	}
	if len(s.Steps) == 0 {
		add("schema has no steps")
	}
	if len(s.Order) != len(s.Steps) {
		add("step order list and step map disagree (%d vs %d)", len(s.Order), len(s.Steps))
	}
	for _, id := range s.Order {
		st := s.Steps[id]
		if st == nil {
			add("order lists unknown step %s", id)
			continue
		}
		if st.ID != id {
			add("step %s has mismatched ID field %s", id, st.ID)
		}
		if strings.Contains(string(id), ".") {
			add("step ID %s must not contain '.'", id)
		}
		if st.Program == "" && st.Nested == "" {
			add("step %s has neither program nor nested workflow", id)
		}
		if st.Program != "" && st.Nested != "" {
			add("step %s has both program and nested workflow", id)
		}
		if st.ReexecCond != "" {
			if _, err := expr.Compile(st.ReexecCond); err != nil {
				add("step %s reexec condition: %v", id, err)
			}
		}
		for _, o := range st.Outputs {
			if o == "" || strings.Contains(o, ".") {
				add("step %s output %q must be a plain name", id, o)
			}
		}
	}

	for i, a := range s.Arcs {
		if s.Steps[a.From] == nil {
			add("arc %d references unknown step %s", i, a.From)
		}
		if s.Steps[a.To] == nil {
			add("arc %d references unknown step %s", i, a.To)
		}
		if a.Cond != "" {
			if _, err := expr.Compile(a.Cond); err != nil {
				add("arc %s->%s condition: %v", a.From, a.To, err)
			}
		}
		if a.Loop {
			if a.Kind != Control {
				add("loop arc %s->%s must be a control arc", a.From, a.To)
			}
			if a.Cond == "" {
				add("loop arc %s->%s needs a repeat condition", a.From, a.To)
			}
		}
	}

	if len(probs) == 0 { // graph checks only on structurally sane schemas
		ix := s.index()
		if cyc := s.findControlCycle(ix); cyc != nil {
			add("control graph has a cycle: %v (mark back arcs Loop)", cyc)
		}
		if len(ix.starts) == 0 {
			add("no start step (every step has an incoming control arc)")
		}
		if len(ix.terminals) == 0 {
			add("no terminal step (every step has an outgoing control arc)")
		}
		for _, a := range s.Arcs {
			if a.Loop && !s.PathExists(a.To, a.From) {
				add("loop arc %s->%s: head does not reach tail", a.From, a.To)
			}
		}
	}

	seenInSet := make(map[StepID]int)
	for i, set := range s.CompSets {
		if len(set) < 2 {
			add("compensation dependent set %d has fewer than 2 members", i)
		}
		for _, id := range set {
			st := s.Steps[id]
			if st == nil {
				add("compensation set %d references unknown step %s", i, id)
				continue
			}
			if !st.Compensable() {
				add("compensation set %d member %s is not compensable", i, id)
			}
			if prev, dup := seenInSet[id]; dup && prev != i {
				add("step %s belongs to compensation sets %d and %d", id, prev, i)
			}
			seenInSet[id] = i
		}
	}

	for id, pol := range s.OnFailure {
		if s.Steps[id] == nil {
			add("failure policy for unknown step %s", id)
			continue
		}
		if s.Steps[pol.RollbackTo] == nil {
			add("failure policy of %s rolls back to unknown step %s", id, pol.RollbackTo)
		} else if len(probs) == 0 && !s.PathExists(pol.RollbackTo, id) {
			add("failure policy of %s rolls back to %s, which cannot reach it", id, pol.RollbackTo)
		}
	}

	inputSet := make(map[string]bool, len(s.Inputs))
	for _, in := range s.Inputs {
		inputSet[WorkflowInput(in)] = true
	}
	for _, id := range s.Order {
		st := s.Steps[id]
		if st == nil {
			continue
		}
		for _, in := range st.Inputs {
			if inputSet[in] {
				continue
			}
			if s.ProducerOf(in) == "" {
				add("step %s input %q has no producer and is not a workflow input", id, in)
			}
		}
	}

	if len(probs) > 0 {
		return &ValidationError{Subject: "schema " + s.Name, Problems: probs}
	}
	return nil
}

// findControlCycle returns a cycle in the non-loop control graph, or nil.
func (s *Schema) findControlCycle(ix *graphIndex) []StepID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[StepID]int, len(s.Steps))
	var stack []StepID
	var cycle []StepID
	var visit func(StepID) bool
	visit = func(id StepID) bool {
		color[id] = gray
		stack = append(stack, id)
		for _, a := range ix.succ[id] {
			switch color[a.To] {
			case gray:
				// found: slice the stack from a.To
				for i, sid := range stack {
					if sid == a.To {
						cycle = append(append([]StepID(nil), stack[i:]...), a.To)
						return true
					}
				}
			case white:
				if visit(a.To) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[id] = black
		return false
	}
	for _, id := range s.Order {
		if color[id] == white && visit(id) {
			return cycle
		}
	}
	return nil
}

// Validate checks every schema in the library, that nested references
// resolve, and that coordination specs reference existing steps.
func (l *Library) Validate() error {
	var probs []string
	add := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	var verr *ValidationError
	for _, name := range l.order {
		if err := l.schemas[name].Validate(); err != nil {
			if errors.As(err, &verr) {
				probs = append(probs, verr.Problems...)
			} else {
				add("%v", err)
			}
		}
	}

	resolve := func(ref StepRef) bool {
		sc := l.schemas[ref.Workflow]
		return sc != nil && sc.Steps[ref.Step] != nil
	}

	for _, name := range l.order {
		for id, st := range l.schemas[name].Steps {
			if st.Nested != "" {
				child := l.schemas[st.Nested]
				if child == nil {
					add("step %s.%s nests unknown workflow %q", name, id, st.Nested)
				} else if child.Name == name {
					add("step %s.%s nests its own workflow", name, id)
				}
			}
		}
	}

	for i, c := range l.Coord {
		switch c.Kind {
		case Mutex:
			if len(c.MutexSteps) < 2 {
				add("mutex spec %d needs at least 2 steps", i)
			}
			for _, r := range c.MutexSteps {
				if !resolve(r) {
					add("mutex spec %d references unknown step %s", i, r)
				}
			}
		case RelativeOrder:
			if len(c.Pairs) == 0 {
				add("relative-order spec %d has no conflict pairs", i)
			}
			for _, p := range c.Pairs {
				if !resolve(p.A) || !resolve(p.B) {
					add("relative-order spec %d references unknown step (%s, %s)", i, p.A, p.B)
				}
				if p.A.Workflow == p.B.Workflow && len(c.Pairs) > 0 && c.Pairs[0] != p && p.A.Workflow != c.Pairs[0].A.Workflow {
					add("relative-order spec %d mixes workflow sides", i)
				}
			}
		case RollbackDep:
			if !resolve(c.Trigger) {
				add("rollback-dependency spec %d has unknown trigger %s", i, c.Trigger)
			}
			if !resolve(c.Target) {
				add("rollback-dependency spec %d has unknown target %s", i, c.Target)
			}
		default:
			add("coordination spec %d has unknown kind %d", i, int(c.Kind))
		}
	}

	if len(probs) > 0 {
		return &ValidationError{Subject: "library", Problems: probs}
	}
	return nil
}
