package rules

import (
	"fmt"
	"slices"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// ExecRuleID names the i-th execution rule of a step. Steps with JoinAll
// semantics have a single rule (i=0); JoinAny confluence steps have one rule
// per incoming branch.
func ExecRuleID(step model.StepID, i int) string {
	if i == 0 {
		return "exec:" + string(step)
	}
	return fmt.Sprintf("exec:%s#%d", step, i)
}

// StepRules returns the execution rules for one step of a schema, per the
// paper's navigation semantics (see generateStepRules): the step's window
// of the schema's program. The rules are shared: compile them into another
// program (Compile copies) and do not mutate them.
func StepRules(s *model.Schema, id model.StepID) []*Rule {
	if s.Steps[id] == nil {
		return nil
	}
	rs := SchemaProgram(s).rules
	lo := slices.IndexFunc(rs, func(r *Rule) bool { return r.Step == id })
	if lo < 0 {
		return nil
	}
	hi := lo + 1
	for hi < len(rs) && rs[hi].Step == id {
		hi++
	}
	return rs[lo:hi:hi]
}

// generateStepRules generates the execution rules for one step of a schema,
// per the paper's navigation semantics:
//
//   - start steps (no incoming control arc) are triggered by workflow.start;
//   - a step on a sequential path requires the step.done event of its
//     predecessor, plus step.done of any step it takes input data from;
//   - an if-then-else successor additionally requires the branch condition
//     (the arc condition becomes the rule's precondition);
//   - a JoinAll confluence step requires step.done of the last step of every
//     incoming branch (one conjunctive rule);
//   - a JoinAny confluence step fires when any one incoming branch completes
//     (one rule per branch).
//
// Loop back-arcs generate no rules: loop re-entry is driven by the
// navigation layer, which invalidates body events and re-dispatches the head.
func generateStepRules(s *model.Schema, id model.StepID) []*Rule {
	st := s.Steps[id]
	if st == nil {
		return nil
	}
	preds := s.ControlPredecessors(id)

	// Data-dependency events: done events of producer steps that are not
	// already control predecessors covered below.
	dataEvents := func(exclude map[model.StepID]bool) []string {
		var out []string
		for _, src := range s.DataSourceSteps(id) {
			if !exclude[src] {
				out = append(out, event.DoneName(string(src)))
			}
		}
		return out
	}

	if len(preds) == 0 {
		excl := map[model.StepID]bool{}
		events := append([]string{event.WorkflowStartName}, dataEvents(excl)...)
		return []*Rule{{
			ID:     ExecRuleID(id, 0),
			Events: events,
			Step:   id,
		}}
	}

	// Collect incoming arcs with their conditions.
	type incoming struct {
		from model.StepID
		cond string
	}
	var ins []incoming
	for _, a := range s.Arcs {
		if a.Kind == model.Control && !a.Loop && a.To == id {
			ins = append(ins, incoming{from: a.From, cond: a.Cond})
		}
	}

	if len(ins) == 1 || st.Join == model.JoinAll {
		// Single conjunctive rule.
		excl := make(map[model.StepID]bool, len(ins))
		var events []string
		var conds []string
		for _, in := range ins {
			excl[in.from] = true
			events = append(events, event.DoneName(string(in.from)))
			if in.cond != "" {
				conds = append(conds, in.cond)
			}
		}
		condSrc := ""
		switch len(conds) {
		case 0:
		case 1:
			condSrc = conds[0]
		default:
			for i, c := range conds {
				if i > 0 {
					condSrc += " && "
				}
				condSrc += "(" + c + ")"
			}
		}
		events = append(events, dataEvents(excl)...)
		r := &Rule{
			ID:     ExecRuleID(id, 0),
			Events: events,
			Step:   id,
		}
		if condSrc != "" {
			r.Precond = expr.MustCompile(condSrc)
		}
		return []*Rule{r}
	}

	// JoinAny: one rule per incoming branch.
	var out []*Rule
	for i, in := range ins {
		excl := map[model.StepID]bool{in.from: true}
		events := append([]string{event.DoneName(string(in.from))}, dataEvents(excl)...)
		r := &Rule{
			ID:     ExecRuleID(id, i),
			Events: events,
			Step:   id,
		}
		if in.cond != "" {
			r.Precond = expr.MustCompile(in.cond)
		}
		out = append(out, r)
	}
	return out
}

// SchemaProgram returns the schema's compiled rules: the execution rules
// of every step, in definition order. This is the general-rule table every
// new workflow instance of the schema loads. It is compiled once per version
// of the schema and kept in the schema's TemplateCache slot; callers that
// compile it at once all get the one that was stored first.
func SchemaProgram(s *model.Schema) *Program {
	slot := s.TemplateCache()
	if v := slot.Load(); v != nil {
		return v.(*Program)
	}
	var all []*Rule
	for _, id := range s.Order {
		all = append(all, generateStepRules(s, id)...)
	}
	if p := Compile(all); slot.CompareAndSwap(nil, p) {
		return p
	}
	return slot.Load().(*Program)
}

// InstallSchemaRules loads the schema's program into an engine.
func InstallSchemaRules(e *Engine, s *model.Schema) {
	e.Load(SchemaProgram(s))
}
