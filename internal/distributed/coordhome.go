package distributed

import (
	"crew/internal/coord"
	"crew/internal/metrics"
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

// ToHome sends a request to the home agent, for one coordination unit.
func (r *replica) ToHome(req coord.Request) {
	r.a.site.Rec.Add(metrics.Coordination, 1)
	r.a.Send(r.a.homeNode, metrics.Coordination, KindAddRule, &req)
}

// The home's way out (coord.Host), on the home agent.

func (a *Agent) Charge() { a.site.Rec.Add(metrics.Coordination, 1) }

func (a *Agent) Resolve(to string, r coord.Resolve) {
	a.Send(to, metrics.Coordination, KindAddPrecondition, &r)
}

// Inject routes an AddEvent to the agents holding the waiting rule: the
// eligible agents of the target step (when known), otherwise the target
// instance's coordination agent.
func (a *Agent) Inject(inj coord.Injection) {
	schema := a.cfg.Library.Schema(inj.Target.Workflow)
	if schema == nil {
		return
	}
	p := coord.Inject(inj)
	if s := schema.Steps[inj.Step]; s != nil {
		for _, ag := range nav.EffectiveAgents(s, a.cfg.Agents) {
			a.Send(ag, metrics.Coordination, KindAddEvent, &p)
		}
		return
	}
	a.Send(a.electCoordinator(inj.Target.Workflow, inj.Target.ID), metrics.Coordination, KindAddEvent, &p)
}

// Order broadcasts a rollback order to every agent, whose coordination-agent
// replicas apply it.
func (a *Agent) Order(ord coord.RollbackOrder) {
	p := coord.Order(ord)
	for _, ag := range a.cfg.Agents {
		a.Send(ag, metrics.Coordination, KindAddRule, &p)
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
	a.site.Rec.Add(metrics.Coordination, 1)
	nav.Resolved(r, p)
}

// OnInject posts an injected coordination event (AddEvent) and retries the
// held-back steps.
func (a *Agent) OnInject(p coord.Inject) {
	r, err := a.getReplica(p.Target.Workflow, p.Target.ID)
	if err != nil {
		return
	}
	nav.Injected(r, p.Event)
}

// OnOrder applies a rollback dependency to the instances this agent
// coordinates that have reached the target step, in instance order. Every
// agent gets every order and few replicas match, so the pick comes before
// the sort.
func (a *Agent) OnOrder(p coord.Order) {
	targets := a.sortedReplicas(func(r *replica) bool {
		if r.coordinator != a.cfg.Name ||
			r.Ins.Workflow != p.TargetWorkflow ||
			r.Ins.Status != wfdb.Running {
			return false
		}
		if r.Ins.Events.Has(r.Schema.DoneEventOf(p.TargetStep)) {
			return true
		}
		rec := r.Ins.Steps[p.TargetStep]
		return rec != nil && rec.Attempts > 0
	})
	for _, r := range targets {
		a.site.Rec.Add(metrics.Coordination, 1)
		a.Send(a.executorOf(r, p.TargetStep), metrics.Failure, KindWorkflowRollback, &workflowRollback{
			Workflow:  r.Ins.Workflow,
			Instance:  r.Ins.ID,
			Origin:    p.TargetStep,
			Mechanism: metrics.Failure,
		})
	}
}
