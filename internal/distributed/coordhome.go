package distributed

import (
	"sort"

	"crew/internal/coord"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/wfdb"
)

// homeState is the coordination state kept by the deployment's home agent:
// the relative-order queues, mutex queues and rollback-dependency registry
// for the library's specs. Agents reach it with AddRule messages; it answers
// with AddPrecondition and injects events with AddEvent — the three
// implementation-level primitives the paper's coordination support is built
// on.
type homeState struct {
	tracker *coord.Tracker
	// forgotten tombstones finished instances: coordination requests that
	// arrive after an instance's forget (late re-acquires from replicas
	// that have not yet learned of the commit) must not take resources.
	forgotten map[coord.InstanceRef]bool
}

// homeHandleAddRule processes a coordination request at the home agent:
// a pre-execution check (establishing/looking up ordering and acquiring
// mutexes), a completion notification, or a failed-attempt release.
func (a *Agent) homeHandleAddRule(p addRule) {
	if a.home == nil {
		a.Logf("AddRule received by non-home agent")
		return
	}
	a.addLoad(metrics.Coordination, 1)
	t := a.home.tracker
	if a.home.forgotten[p.Inst] {
		if !p.Done && !p.Failed {
			// The instance has finished; answer with no waits so the
			// requester unblocks (its own replica will refuse execution
			// once it learns the final status) without taking resources.
			a.Send(p.ReplyAgent, metrics.Coordination, KindAddPrecondition, addPrecondition{
				Inst: p.Inst,
				Step: p.Ref.Step,
			})
		}
		return
	}
	switch {
	case p.Failed:
		for _, inj := range t.MutexRelease(p.Ref, p.Inst) {
			a.deliverInjection(inj)
		}
	case p.Done:
		for _, inj := range t.OrderStepDone(p.Ref, p.Inst) {
			a.deliverInjection(inj)
		}
		for _, inj := range t.MutexRelease(p.Ref, p.Inst) {
			a.deliverInjection(inj)
		}
	default:
		waits := t.OrderWait(p.Ref, p.Inst)
		grants, mutexWaits := t.MutexAcquire(p.Ref, p.Inst)
		waits = append(waits, mutexWaits...)
		for _, g := range grants {
			a.deliverInjection(g)
		}
		a.Send(p.ReplyAgent, metrics.Coordination, KindAddPrecondition, addPrecondition{
			Inst:       p.Inst,
			Step:       p.Ref.Step,
			WaitEvents: waits,
		})
	}
}

// deliverInjection routes an AddEvent to the agents holding the waiting
// rule: the eligible agents of the target step (when known), otherwise the
// target instance's coordination agent.
func (a *Agent) deliverInjection(inj coord.Injection) {
	msg := addEvent{Target: inj.Target, Event: inj.Event, Step: inj.Step}
	if inj.Step != "" {
		schema := a.cfg.Library.Schema(inj.Target.Workflow)
		if schema != nil && schema.Steps[inj.Step] != nil {
			for _, ag := range nav.EffectiveAgents(schema.Steps[inj.Step], a.cfg.Agents) {
				a.Send(ag, metrics.Coordination, KindAddEvent, msg)
			}
			return
		}
	}
	schema := a.cfg.Library.Schema(inj.Target.Workflow)
	if schema == nil {
		return
	}
	a.Send(a.coordinationAgentOf(schema, inj.Target.Workflow, inj.Target.ID), metrics.Coordination, KindAddEvent, msg)
}

// homeHandleRollbackNote resolves rollback-dependency triggers and
// broadcasts the resulting rollback orders to every agent, whose
// coordination-agent replicas apply them.
func (a *Agent) homeHandleRollbackNote(p coordRollbackNote) {
	if a.home == nil {
		return
	}
	a.addLoad(metrics.Coordination, 1)
	orders := a.home.tracker.RollbackTriggered(p.Workflow, p.Invalidated)
	for _, ord := range orders {
		for _, ag := range a.cfg.Agents {
			a.Send(ag, metrics.Coordination, KindAddRule, coordRollbackOrder{Order: ord})
		}
	}
}

// homeHandleForget cleans a finished instance out of coordination state.
func (a *Agent) homeHandleForget(p coordForgetNote) {
	if a.home == nil {
		return
	}
	a.addLoad(metrics.Coordination, 1)
	if a.home.forgotten == nil {
		a.home.forgotten = make(map[coord.InstanceRef]bool)
	}
	a.home.forgotten[p.Inst] = true
	for _, inj := range a.home.tracker.OrderForget(p.Inst) {
		a.deliverInjection(inj)
	}
	for _, inj := range a.home.tracker.MutexForget(p.Inst) {
		a.deliverInjection(inj)
	}
}

// handleAddPrecondition records the wait events returned by the home agent
// and retries the blocked step.
func (a *Agent) handleAddPrecondition(p addPrecondition) {
	r, ok := a.replicas[wfdb.InstanceKeyOf(p.Inst.Workflow, p.Inst.ID)]
	if !ok {
		return
	}
	a.addLoad(metrics.Coordination, 1)
	r.coordPending[p.Step] = false
	r.coordWaits[p.Step] = p.WaitEvents
	a.maybeExecute(r, p.Step)
	a.evaluate(r)
}

// handleAddEvent posts an injected coordination event (the AddEvent WI) and
// retries coordination-blocked steps.
func (a *Agent) handleAddEvent(p addEvent) {
	r, err := a.getReplica(p.Target.Workflow, p.Target.ID)
	if err != nil {
		return
	}
	a.addLoad(metrics.Coordination, 1)
	if r.rules.AddEvent(r.ins.Events, p.Event) {
		// Sorted retry order: maybeExecute emits dispatch traffic, and map
		// order would make the emitted sequence differ run to run.
		steps := make([]model.StepID, 0, len(r.coordBlocked))
		for step, blocked := range r.coordBlocked {
			if blocked {
				steps = append(steps, step)
			}
		}
		sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
		for _, step := range steps {
			a.maybeExecute(r, step)
		}
		a.evaluate(r)
	}
}

// handleRollbackOrder applies a rollback dependency to instances this agent
// coordinates. Sends are deferred past the map iteration because a
// self-delivered WorkflowRollback may mutate the replica map.
func (a *Agent) handleRollbackOrder(p coordRollbackOrder) {
	type rollbackSend struct {
		to  string
		msg workflowRollback
	}
	var sends []rollbackSend
	for _, r := range a.replicas {
		if r.coordinator != a.cfg.Name ||
			r.ins.Workflow != p.Order.TargetWorkflow ||
			r.ins.Status != wfdb.Running {
			continue
		}
		if !r.ins.Events.Has(r.schema.DoneEventOf(p.Order.TargetStep)) {
			rec := r.ins.Steps[p.Order.TargetStep]
			if rec == nil || rec.Attempts == 0 {
				continue // has not reached the target step yet
			}
		}
		a.addLoad(metrics.Coordination, 1)
		r.inputEpoch++
		sends = append(sends, rollbackSend{
			to: a.executorOf(r, p.Order.TargetStep),
			msg: workflowRollback{
				Workflow:  r.ins.Workflow,
				Instance:  r.ins.ID,
				Origin:    p.Order.TargetStep,
				Epoch:     r.inputEpoch,
				Initiator: a.cfg.Name + "/dep",
				Mechanism: metrics.Failure,
			},
		})
	}
	for _, s := range sends {
		a.Send(s.to, metrics.Failure, KindWorkflowRollback, s.msg)
	}
}

// ensure nav import is used even if future refactors drop other uses.
var _ = nav.ElectAgent
