package nav

import (
	"crew/internal/coord"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/ocr"
	"crew/internal/rules"
	"crew/internal/wfdb"
)

// The navigation core: the step-level half of the semantics, written once for
// every placement. An engine's instance and an agent's replica embed Inst and
// implement Owner. The functions below run the rule loop, admit fired steps
// (admission guard, coordination gate, OCR decision), speak to the
// coordination home and apply the failure policy; where the placements
// differ, they call the owner.

// Site is what the core knows of the engine or agent instances live on; the
// node holds one and its instances point at it.
type Site struct {
	Name        string                 // where the home answers this node's requests
	Rec         metrics.NodeRecorder   // load charged at this node
	Coordinated map[model.StepRef]bool // steps under a coordination spec
	DisableOCR  bool                   // Saga-style revisits (the OCR ablation)
	Logf        func(format string, args ...any)
}

// Inst is the navigation state of one instance.
type Inst struct {
	Ins       *wfdb.Instance
	Schema    *model.Schema
	Rules     *rules.Engine
	Site      *Site
	Recovery  metrics.Mechanism    // cause of the recovery under way; Normal if none
	Gate      coord.Gate           // holds coordinated steps until the home answers
	Rollbacks map[model.StepID]int // rollbacks caused, per failing step; nil until the first
	// Retired is set when the owner lets the instance go: at its terminal
	// status (the state may then belong to a waiter), or as a bystander's
	// copy. Navigation still on the stack returns without reading Ins, and no
	// row is written for it again.
	Retired bool
}

// NewInst binds an instance, fresh (wfdb.NewInstanceOf) or reloaded, to its
// schema and an empty rule set; the owner loads the rules.
func NewInst(ins *wfdb.Instance, schema *model.Schema, site *Site) Inst {
	ins.AttachSchema(schema)
	return Inst{Ins: ins, Schema: schema, Rules: rules.NewEngine(), Site: site,
		Recovery: metrics.Normal}
}

// Reuse makes n, whose instance has finished and is held by nobody else, what
// NewInst builds around wfdb.NewInstanceOf(schema, id, nil), in place: the
// instance, gate and rollback table are emptied and kept, and so is the
// engine, still bound to the instance's event table; the owner loads the
// rules.
func (n *Inst) Reuse(schema *model.Schema, id int, site *Site) {
	n.Ins.Reuse(schema, id)
	n.Gate.Clear()
	clear(n.Rollbacks)
	*n = Inst{Ins: n.Ins, Schema: schema, Rules: n.Rules, Site: site,
		Recovery: metrics.Normal, Gate: n.Gate, Rollbacks: n.Rollbacks}
}

// Nav returns the shared state; every owner gets it by embedding Inst.
func (n *Inst) Nav() *Inst { return n }

// Owner is one placement of an instance: it carries out what the core
// decides. Run, CompleteCR and IncrementalCR report whether the instance
// changed synchronously, so the rule loop goes on.
type Owner interface {
	Nav() *Inst
	// Stopped reports that no rule may fire now.
	Stopped() bool
	// MayRun is the admission guard: false when the step is under way or not
	// this owner's to run.
	MayRun(step model.StepID) bool
	// Revisits reports whether rec, a previous result, goes through OCR here.
	Revisits(rec *wfdb.StepRecord) bool
	// Run executes or dispatches a fresh attempt.
	Run(step model.StepID, inputs map[string]expr.Value, mech metrics.Mechanism) bool
	// CompleteCR and IncrementalCR are the OCR arms that compensate first.
	CompleteCR(step model.StepID, mech metrics.Mechanism) bool
	IncrementalCR(step model.StepID, inputs map[string]expr.Value, mech metrics.Mechanism) bool
	// Done navigates on from a step whose result was just recorded.
	Done(step model.StepID, mech metrics.Mechanism)
	// Loop takes an iteration whose body LoopBack reset; false takes no
	// further loop out of the same step.
	Loop(head model.StepID, body []model.StepID) bool
	// Settle runs after every pass of the rule loop; the owner commits there
	// when it coordinates the instance and no abort is under way.
	Settle()
	// ToHome hands a coordination request to the home.
	ToHome(req coord.Request)
}

// Evaluate fires the instance's rules until a pass makes no progress, and
// returns as soon as the instance retires between two actions.
func Evaluate(o Owner) {
	n := o.Nav()
	for !n.Retired && n.Ins.Status == wfdb.Running && !o.Stopped() {
		fired, err := n.Rules.Evaluate(n.Ins.Events, n.Ins.Env())
		if err != nil {
			n.Site.Logf("instance %s: %v", n.Ins.Key(), err)
		}
		progressed := false
		for _, r := range fired {
			if n.Retired {
				return
			}
			if Admit(o, r.Step) {
				progressed = true
			}
		}
		o.Settle()
		if len(fired) == 0 || !progressed {
			return
		}
	}
}

// Admit takes a fired step through the admission guard and the coordination
// gate to its owner; a step with a previous result the owner revisits goes
// through the OCR decision first, charged one unit under the recovery's
// mechanism (Failure outside one).
func Admit(o Owner, step model.StepID) bool {
	n := o.Nav()
	if n.Retired || n.Ins.Status != wfdb.Running || !o.MayRun(step) {
		return false
	}
	s := n.Schema.Steps[step]
	if s == nil {
		return false
	}
	// The home must have answered and every wait event (mutex grants,
	// relative-order releases) be valid.
	if n.Site.Coordinated[model.StepRef{Workflow: n.Ins.Workflow, Step: step}] {
		switch n.Gate.Admit(step, n.Ins.Events) {
		case coord.AskHome:
			Request(o, coord.Check, step)
			return false
		case coord.Blocked:
			return false
		}
	}
	inputs := ResolveInputs(n.Ins, s)
	if rec := n.Ins.Steps[step]; rec != nil && rec.HasResult && o.Revisits(rec) {
		mech := n.Recovery
		if mech == metrics.Normal {
			mech = metrics.Failure
		}
		d, err := Decide(n.Site.DisableOCR, n.Schema, s, rec, inputs, n.Ins.Env())
		if err != nil {
			n.Site.Logf("instance %s step %s: %v", n.Ins.Key(), step, err)
		}
		n.Site.Rec.Add(mech, 1) // condition check + bookkeeping
		switch d {
		case ocr.Reuse:
			n.Ins.RecordDone(step, rec.Outputs)
			o.Done(step, mech)
			return true
		case ocr.CompleteCR:
			return o.CompleteCR(step, mech)
		case ocr.IncrementalCR:
			return o.IncrementalCR(step, inputs, mech)
		}
	}
	return o.Run(step, inputs, StepMechanism(n.Ins, step, n.Recovery))
}

// Decide is the OCR decision for revisiting a step with a previous result;
// disableOCR forces complete compensation and re-execution.
func Decide(disableOCR bool, schema *model.Schema, s *model.Step, rec *wfdb.StepRecord, inputs map[string]expr.Value, env expr.Env) (ocr.Decision, error) {
	if disableOCR {
		return ocr.CompleteCR, nil
	}
	return ocr.Decide(schema, s, rec, inputs, env)
}

// Request sends the home a request about one of the instance's steps.
func Request(o Owner, op coord.Op, step model.StepID) {
	n := o.Nav()
	o.ToHome(coord.Request{
		Op:      op,
		Ref:     model.StepRef{Workflow: n.Ins.Workflow, Step: step},
		Inst:    coord.InstanceRef{Workflow: n.Ins.Workflow, ID: n.Ins.ID},
		ReplyTo: n.Site.Name,
	})
}

// Release tells the home a coordinated step completed (coord.Done) or its
// attempt failed (coord.Failed: mutexes are released, order queues not
// advanced); a revisit must acquire again. A reset step goes through Reset.
func Release(o Owner, op coord.Op, step model.StepID) {
	n := o.Nav()
	if n.Site.Coordinated[model.StepRef{Workflow: n.Ins.Workflow, Step: step}] {
		Request(o, op, step)
		ClearMutexGrants(n.Ins, step)
		n.Gate.Release(step)
	}
}

// Reset withdraws the coordination of steps a rollback or loop iteration
// reset: their mutex grants are cleared, the gate forgets them, and the home
// hears Failed for each step this gate had asked about or been answered for.
// Every request about a step thus leaves from the gate that asked, in the
// order it was made, and a reset step's rule asks again when it fires.
func Reset(o Owner, steps []model.StepID) {
	n := o.Nav()
	for _, step := range n.Gate.Reset(steps) {
		ClearMutexGrants(n.Ins, step)
		Request(o, coord.Failed, step)
	}
}

// Resolved records the home's answer to a Check and retries the step. An
// answer the gate takes makes every grant the instance holds for the step
// stale, since the home grants only after it answers.
func Resolved(o Owner, r coord.Resolve) {
	n := o.Nav()
	if !n.Gate.Resolved(r.Step, r.WaitEvents) {
		return
	}
	ClearMutexGrants(n.Ins, r.Step)
	Admit(o, r.Step)
	Evaluate(o)
}

// Injected posts an event the home injected, for one coordination unit, and
// retries the held-back steps.
func Injected(o Owner, event string) {
	n := o.Nav()
	n.Site.Rec.Add(metrics.Coordination, 1)
	if n.Ins.Events.Post(event) {
		for _, step := range n.Gate.Blocked() {
			Admit(o, step)
		}
		Evaluate(o)
	}
}

// Ran comes first after a step's result is recorded: a first-time execution
// means the instance moved past everything it had executed before, so it
// leaves recovery.
func (n *Inst) Ran(step model.StepID) {
	if n.Recovery != metrics.Normal && n.Ins.StepRec(step).Attempts <= 1 {
		n.Recovery = metrics.Normal
	}
}

// LoopBack takes the loops out of step whose repeat condition holds, in
// schema order: one unit each, the body reset for a fresh iteration and
// handed to the owner's Loop, until Loop stops it. It reports whether Loop
// did.
func LoopBack(o Owner, step model.StepID) bool {
	n := o.Nav()
	for _, a := range n.Schema.LoopArcs(step) {
		cond, err := n.Schema.CondExpr(a.Cond)
		if err != nil {
			continue
		}
		if ok, err := cond.EvalBool(n.Ins.Env()); err != nil || !ok {
			continue
		}
		n.Site.Rec.Add(metrics.Normal, 1)
		if !o.Loop(a.To, ApplyLoopBack(n.Schema, n.Ins, n.Rules, a.To, step)) {
			return true
		}
	}
	return false
}

// Rollback resets the instance to origin for a partial rollback under cause:
// origin's descendants and origin itself are reset, for one unit each plus
// one, and returned, origin last.
func (n *Inst) Rollback(origin model.StepID, cause metrics.Mechanism) []model.StepID {
	n.Recovery = cause
	affected, _ := ApplyRollback(n.Schema, n.Ins, n.Rules, origin)
	n.Site.Rec.Add(cause, int64(len(affected))+1)
	return append(affected, origin)
}

// Retry applies the failure policy of a step whose attempt failed: within its
// attempt limit the rollback is counted, the instance enters Failure recovery
// and the rollback target is returned; past it, or with no policy, ok is
// false and the instance aborts.
func (n *Inst) Retry(step model.StepID) (target model.StepID, ok bool) {
	pol, has := n.Schema.OnFailure[step]
	if n.Rollbacks == nil {
		n.Rollbacks = make(map[model.StepID]int)
	}
	n.Rollbacks[step]++
	if !has || n.Rollbacks[step] > pol.Attempts() {
		return "", false
	}
	n.Recovery = metrics.Failure
	return pol.RollbackTo, true
}
