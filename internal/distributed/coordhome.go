package distributed

import (
	"crew/internal/coord"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/wfdb"
)

// Coordinated execution, distributed placement. The protocol is package
// coord's: the deployment's home agent (the first in sorted order) holds the
// coord.Home, every replica a coord.Gate. What is here is how the two meet:
// a request travels as an AddRule message, the home answers with
// AddPrecondition and injects events with AddEvent — the three
// implementation-level primitives the paper's coordination support is built
// on — and both ends charge one coordination unit per message handled.

// toHome sends a request to the home agent.
func (a *Agent) toHome(req coord.Request) {
	a.addLoad(metrics.Coordination, 1)
	a.Send(a.homeNode, metrics.Coordination, KindAddRule, req)
}

func (a *Agent) request(op coord.Op, r *replica, step model.StepID) {
	a.toHome(coord.Request{
		Op:      op,
		Ref:     model.StepRef{Workflow: r.ins.Workflow, Step: step},
		Inst:    coord.InstanceRef{Workflow: r.ins.Workflow, ID: r.ins.ID},
		ReplyTo: a.cfg.Name,
	})
}

// releaseCoord tells the home a coordinated step completed (coord.Done) or
// its attempt failed or was reset (coord.Failed: mutexes are released, order
// queues not advanced).
func (a *Agent) releaseCoord(op coord.Op, r *replica, step model.StepID) {
	if a.coordSteps[model.StepRef{Workflow: r.ins.Workflow, Step: step}] {
		a.request(op, r, step)
		nav.ClearMutexGrants(r.ins, step)
		r.gate.Release(step)
	}
}

// The home's way out (coord.Host), on the home agent.

func (a *Agent) Charge() { a.addLoad(metrics.Coordination, 1) }

func (a *Agent) Resolve(to string, r coord.Resolve) {
	a.Send(to, metrics.Coordination, KindAddPrecondition, r)
}

// Inject routes an AddEvent to the agents holding the waiting rule: the
// eligible agents of the target step (when known), otherwise the target
// instance's coordination agent.
func (a *Agent) Inject(inj coord.Injection) {
	schema := a.cfg.Library.Schema(inj.Target.Workflow)
	if schema == nil {
		return
	}
	if s := schema.Steps[inj.Step]; s != nil {
		for _, ag := range nav.EffectiveAgents(s, a.cfg.Agents) {
			a.Send(ag, metrics.Coordination, KindAddEvent, coord.Inject(inj))
		}
		return
	}
	a.Send(a.electCoordinator(inj.Target.Workflow, inj.Target.ID), metrics.Coordination, KindAddEvent, coord.Inject(inj))
}

// Order broadcasts a rollback order to every agent, whose coordination-agent
// replicas apply it.
func (a *Agent) Order(ord coord.RollbackOrder) {
	for _, ag := range a.cfg.Agents {
		a.Send(ag, metrics.Coordination, KindAddRule, coord.Order(ord))
	}
}

// The way in (coord.Node).

func (a *Agent) OnRequest(req coord.Request) {
	if a.home == nil {
		a.Logf("AddRule received by non-home agent")
		return
	}
	a.home.Handle(req)
}

// OnResolve records the wait events the home returned (AddPrecondition) and
// retries the step.
func (a *Agent) OnResolve(p coord.Resolve) {
	r, ok := a.replicas[replicaKey(p.Inst.Workflow, p.Inst.ID)]
	if !ok {
		return
	}
	a.addLoad(metrics.Coordination, 1)
	r.gate.Resolved(p.Step, p.WaitEvents)
	a.maybeExecute(r, p.Step)
	a.evaluate(r)
}

// OnInject posts an injected coordination event (AddEvent) and retries the
// held-back steps.
func (a *Agent) OnInject(p coord.Inject) {
	r, err := a.getReplica(p.Target.Workflow, p.Target.ID)
	if err != nil {
		return
	}
	a.addLoad(metrics.Coordination, 1)
	if r.rules.AddEvent(r.ins.Events, p.Event) {
		for _, step := range r.gate.Blocked() {
			a.maybeExecute(r, step)
		}
		a.evaluate(r)
	}
}

// OnOrder applies a rollback dependency to the instances this agent
// coordinates that have reached the target step, in instance order. Every
// agent gets every order and few replicas match, so the pick comes before
// the sort.
func (a *Agent) OnOrder(p coord.Order) {
	targets := a.sortedReplicas(func(r *replica) bool {
		if r.coordinator != a.cfg.Name ||
			r.ins.Workflow != p.TargetWorkflow ||
			r.ins.Status != wfdb.Running {
			return false
		}
		if r.ins.Events.Has(r.schema.DoneEventOf(p.TargetStep)) {
			return true
		}
		rec := r.ins.Steps[p.TargetStep]
		return rec != nil && rec.Attempts > 0
	})
	for _, r := range targets {
		a.addLoad(metrics.Coordination, 1)
		r.inputEpoch++
		a.Send(a.executorOf(r, p.TargetStep), metrics.Failure, KindWorkflowRollback, workflowRollback{
			Workflow:  r.ins.Workflow,
			Instance:  r.ins.ID,
			Origin:    p.TargetStep,
			Epoch:     r.inputEpoch,
			Initiator: a.cfg.Name + "/dep",
			Mechanism: metrics.Failure,
		})
	}
}
