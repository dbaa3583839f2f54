// Package nav implements workflow navigation logic shared by the
// centralized, parallel and distributed control architectures: determining
// which terminal steps are still potentially reachable (the commit
// condition), invalidating events and re-arming rules when a workflow is
// rolled back or a loop iterates, and the deterministic successor-agent
// election used in distributed control.
package nav

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/rules"
	"crew/internal/wfdb"
)

// ptScratch pools the reachability working set of PotentialTerminals, which
// runs on every commit check of every engine round — the hottest navigation
// query in all three architectures.
var ptScratch = sync.Pool{New: func() any { return new(ptState) }}

type ptState struct {
	reach    map[model.StepID]bool
	frontier []model.StepID
}

// PotentialTerminals returns the terminal steps of the schema that are still
// potentially reachable given the instance's current state:
//
//   - successors of an executed step are reachable along arcs whose
//     condition holds (or is absent);
//   - successors of a not-yet-executed reachable step are all reachable
//     (conservative: the future is unknown, so commit must wait);
//   - arcs whose condition cannot be evaluated yet count as reachable.
//
// A workflow is committed when every potentially reachable terminal step has
// executed — the coordination agent's commit test.
func PotentialTerminals(s *model.Schema, ins *wfdb.Instance) []model.StepID {
	env := ins.Env()
	sc := ptScratch.Get().(*ptState)
	if sc.reach == nil {
		sc.reach = make(map[model.StepID]bool, len(s.Order))
	} else {
		clear(sc.reach)
	}
	reach, frontier := sc.reach, sc.frontier[:0]
	for _, id := range s.StartSteps() {
		reach[id] = true
		frontier = append(frontier, id)
	}
	for i := 0; i < len(frontier); i++ {
		cur := frontier[i]
		executed := ins.Executed(cur)
		for _, a := range s.ControlSuccessors(cur) {
			include := true
			if executed && a.Cond != "" {
				e, err := s.CondExpr(a.Cond)
				if err == nil {
					if ok, evalErr := e.EvalBool(env); evalErr == nil {
						include = ok
					}
				}
			}
			if include && !reach[a.To] {
				reach[a.To] = true
				frontier = append(frontier, a.To)
			}
		}
	}
	var out []model.StepID
	for _, id := range s.TerminalSteps() {
		if reach[id] {
			out = append(out, id)
		}
	}
	sc.frontier = frontier
	ptScratch.Put(sc)
	return out
}

// ShouldCommit reports whether the instance satisfies the commit condition:
// it is still running and every potentially reachable terminal step has
// executed.
func ShouldCommit(s *model.Schema, ins *wfdb.Instance) bool {
	if ins.Status != wfdb.Running || !anyExecuted(ins, s.TerminalSteps()) {
		// The walk below answers true only when it reaches a terminal and
		// every terminal it reaches has executed: never while none has.
		return false
	}
	terms := PotentialTerminals(s, ins)
	if len(terms) == 0 {
		return false
	}
	for _, id := range terms {
		if !ins.Executed(id) {
			return false
		}
	}
	return true
}

func anyExecuted(ins *wfdb.Instance, steps []model.StepID) bool {
	for _, id := range steps {
		if ins.Executed(id) {
			return true
		}
	}
	return false
}

// InvalidationSet returns the steps whose events a rollback to origin must
// invalidate: every (non-loop) control descendant of origin. The origin
// itself is re-executed through the OCR path, so its done event is also
// invalidated when reset is requested by the caller.
func InvalidationSet(s *model.Schema, origin model.StepID) []model.StepID {
	desc := s.Descendants(origin)
	var out []model.StepID
	for _, id := range s.Order {
		if desc[id] {
			out = append(out, id)
		}
	}
	return out
}

// ResetSteps invalidates the step.done and step.fail events of the given
// steps, re-arms their execution rules, and resets their step-table status to
// pending while retaining the previous inputs/outputs (which the OCR strategy
// needs). It returns the number of events invalidated — the paper's v
// parameter counts these invalidations.
func ResetSteps(ins *wfdb.Instance, eng *rules.Engine, steps []model.StepID) int {
	n := 0
	for _, id := range steps {
		n += ins.ResetStepEvents(id)
		if r := ins.Steps[id]; r != nil && (r.Status == wfdb.StepDone || r.Status == wfdb.StepFailed || r.Status == wfdb.StepExecuting) {
			r.Status = wfdb.StepPending
		}
		if eng != nil {
			eng.RearmExecRules(id)
		}
	}
	return n
}

// ApplyRollback performs the state-level part of a partial rollback to
// origin: descendants of origin are reset (events invalidated, rules
// re-armed, statuses cleared) and the origin's own done/fail events are
// invalidated so its rule can re-fire. It returns the steps that were reset
// (the "affected threads") and the number of invalidated events.
func ApplyRollback(s *model.Schema, ins *wfdb.Instance, eng *rules.Engine, origin model.StepID) (affected []model.StepID, invalidated int) {
	affected = InvalidationSet(s, origin)
	invalidated = ResetSteps(ins, eng, affected)
	invalidated += ResetSteps(ins, eng, []model.StepID{origin})
	return affected, invalidated
}

// ApplyLoopBack resets the loop body (head..tail inclusive) for another
// iteration and returns the body steps. Unlike a rollback, a loop iteration
// is a fresh execution, not an OCR revisit: previous results are discarded
// (HasResult cleared) so every iteration runs the body programs anew. Data
// items from the last iteration stay in the data table until overwritten.
func ApplyLoopBack(s *model.Schema, ins *wfdb.Instance, eng *rules.Engine, head, tail model.StepID) []model.StepID {
	body := s.LoopBody(head, tail)
	ResetSteps(ins, eng, body)
	for _, id := range body {
		if r := ins.Steps[id]; r != nil {
			r.HasResult = false
		}
	}
	return body
}

// ElectAgent deterministically picks the agent that will execute a step from
// the step's eligible agents, restricted to those the alive predicate admits
// (nil means all alive). Every node computes the same choice from the same
// inputs, which implements the paper's successor "leader election" without
// extra messages: all eligible successor agents receive the workflow packet
// and each can tell locally whether it is the executor.
//
// It returns "" when no eligible agent is alive.
func ElectAgent(eligible []string, workflow string, instance int, step model.StepID, alive func(string) bool) string {
	cands := make([]string, 0, len(eligible))
	for _, a := range eligible {
		if alive == nil || alive(a) {
			cands = append(cands, a)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	sort.Strings(cands)
	h := fnv.New32a()
	h.Write([]byte(workflow))
	h.Write([]byte{0})
	h.Write([]byte{byte(instance), byte(instance >> 8), byte(instance >> 16), byte(instance >> 24)})
	h.Write([]byte{0})
	h.Write([]byte(step))
	return cands[int(h.Sum32())%len(cands)]
}

// ActiveBranchTargets evaluates the outgoing non-loop control arcs of a
// completed step against the instance data and returns the successor steps
// whose arc condition holds (all successors for unconditional arcs).
// Conditions that fail to evaluate are treated as not taken.
func ActiveBranchTargets(s *model.Schema, ins *wfdb.Instance, from model.StepID) []model.StepID {
	env := ins.Env()
	var out []model.StepID
	for _, a := range s.ControlSuccessors(from) {
		if a.Cond == "" {
			out = append(out, a.To)
			continue
		}
		e, err := s.CondExpr(a.Cond)
		if err != nil {
			continue
		}
		if ok, err := e.EvalBool(env); err == nil && ok {
			out = append(out, a.To)
		}
	}
	return out
}

// AbandonedBranchSteps returns the steps with uncompensated results that lie
// on branches out of a branching step other than the ones now taken — the
// steps whose effects must be compensated when re-execution takes a
// different branch (paper's Figure 3: S3 must be compensated when the bottom
// branch is taken). The check uses HasResult rather than status because a
// rollback resets statuses while retaining results. Steps reachable from a
// taken branch are excluded (shared suffixes after a confluence are still
// valid).
func AbandonedBranchSteps(s *model.Schema, ins *wfdb.Instance, branch model.StepID, taken []model.StepID) []model.StepID {
	takenSet := make(map[model.StepID]bool)
	for _, id := range taken {
		takenSet[id] = true
		for d := range s.Descendants(id) {
			takenSet[d] = true
		}
	}
	hasResult := func(id model.StepID) bool {
		r := ins.Steps[id]
		return r != nil && r.HasResult
	}
	var out []model.StepID
	seen := make(map[model.StepID]bool)
	for _, a := range s.ControlSuccessors(branch) {
		if takenSet[a.To] {
			continue
		}
		for _, id := range append([]model.StepID{a.To}, InvalidationSet(s, a.To)...) {
			if !takenSet[id] && !seen[id] && hasResult(id) {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// ResolveInputs reads a step's declared inputs from the instance's data table.
func ResolveInputs(ins *wfdb.Instance, s *model.Step) map[string]expr.Value {
	in := make(map[string]expr.Value, len(s.Inputs))
	for _, name := range s.Inputs {
		if v, ok := ins.Data[name]; ok {
			in[name] = v
		}
	}
	return in
}

// ClearMutexGrants invalidates the instance's mutex grant events for a step
// so a later re-execution must re-acquire.
func ClearMutexGrants(ins *wfdb.Instance, step model.StepID) {
	suffix := ":" + string(step)
	ins.Events.InvalidateWhere(func(name string) bool {
		return strings.HasPrefix(name, "mx:") && strings.HasSuffix(name, suffix)
	})
}

// EffectiveAgents returns the agents eligible for a step: its declared list,
// or every agent of the deployment.
func EffectiveAgents(s *model.Step, all []string) []string {
	if len(s.EligibleAgents) > 0 {
		return s.EligibleAgents
	}
	return all
}

// StepMechanism classifies work on a step: re-executions while the instance
// is recovering count under the recovery cause; fresh forward progress is
// Normal.
func StepMechanism(ins *wfdb.Instance, step model.StepID, recovery metrics.Mechanism) metrics.Mechanism {
	rec := ins.Steps[step]
	if rec != nil && rec.Attempts > 0 && recovery != metrics.Normal {
		return recovery
	}
	return metrics.Normal
}

// AbortCandidates returns the steps an abort of the workflow may have to
// compensate: the schema's AbortCompensate list when it has one, otherwise
// every compensable step in definition order. Which of them executed, and so
// what is actually undone and in what order, is the caller's to find out.
func AbortCandidates(s *model.Schema) []model.StepID {
	if len(s.AbortCompensate) > 0 {
		return s.AbortCompensate
	}
	var out []model.StepID
	for _, id := range s.Order {
		if s.Steps[id].Compensable() {
			out = append(out, id)
		}
	}
	return out
}

// InputChange compares a user's new workflow inputs with the instance's data
// table. It returns the items that differ, under their full names, and the
// rollback origin: the earliest step in topological order that consumes one of
// them, "" when nothing changed or no step reads what did. The instance is not
// modified.
func InputChange(s *model.Schema, ins *wfdb.Instance, inputs map[string]expr.Value) (changed map[string]expr.Value, origin model.StepID) {
	changed = make(map[string]expr.Value)
	for name, v := range inputs {
		full := model.WorkflowInput(name)
		if old, ok := ins.Data[full]; !ok || !old.Equal(v) {
			changed[full] = v
		}
	}
	if len(changed) == 0 {
		return changed, ""
	}
	for _, sid := range s.TopoOrder() {
		for _, in := range s.Steps[sid].Inputs {
			if _, hit := changed[in]; hit {
				return changed, sid
			}
		}
	}
	return changed, ""
}

// NestedInputs maps a nested step's inputs onto its child workflow's,
// positionally: the i-th declared step input feeds the child's i-th workflow
// input. Inputs with no value yet, and those beyond the child's list, are left
// out.
func NestedInputs(s *model.Step, child *model.Schema, ins *wfdb.Instance) map[string]expr.Value {
	out := make(map[string]expr.Value)
	for i, in := range s.Inputs {
		if i >= len(child.Inputs) {
			break
		}
		if v, ok := ins.Data[in]; ok {
			out[child.Inputs[i]] = v
		}
	}
	return out
}

// NestedOutputs maps a committed child's results back onto its nested step:
// output o takes the value of <terminal>.<o> from the child's data table, from
// the first terminal step (in definition order) that produced it.
func NestedOutputs(s *model.Step, child *model.Schema, childData map[string]expr.Value) map[string]expr.Value {
	out := make(map[string]expr.Value, len(s.Outputs))
	for _, o := range s.Outputs {
		for _, term := range child.TerminalSteps() {
			if v, ok := childData[term.Ref(o)]; ok {
				out[o] = v
				break
			}
		}
	}
	return out
}
