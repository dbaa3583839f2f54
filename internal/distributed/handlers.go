package distributed

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"crew/internal/cerrors"
	"crew/internal/coord"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/ocr"
	"crew/internal/rules"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// receive is the handler of every message the agent is given. A message turn
// starts by retiring the replicas of instances finished since the agent last
// looked; a message the agent sends itself is handled inside the sending
// turn, where the sender may hold a replica, and retires nothing.
func (a *Agent) receive(m transport.Message) {
	if a.inTurn {
		a.handleMessage(m)
		return
	}
	a.inTurn = true
	a.retireFinished()
	a.handleMessage(m)
	a.inTurn = false
	if afterMessage != nil {
		afterMessage(a)
	}
}

// afterMessage, when set, runs after every message turn on the agent's
// goroutine. Only tests set it, to check invariants between turns.
var afterMessage func(a *Agent)

func (a *Agent) handleMessage(m transport.Message) {
	switch p := m.Payload.(type) {
	case workflowStart:
		if err := a.handleWorkflowStart(p); err != nil {
			a.Logf("WorkflowStart: %v", err)
		}
	case stepExecute:
		a.handleStepExecute(p, m.From)
	case stepCompleted:
		a.handleStepCompleted(p)
	case workflowRollback:
		a.handleWorkflowRollback(p)
	case haltThread:
		a.handleHaltThread(p)
	case compensateSet:
		a.handleCompensateSet(p)
	case compensateThread:
		a.handleCompensateThread(p)
	case stepCompensate:
		a.handleStepCompensate(p)
	case stepCompensated:
		a.handleStepCompensated(p)
	case workflowAbort:
		if err := a.handleWorkflowAbort(p); err != nil {
			a.Logf("WorkflowAbort: %v", err)
		}
	case workflowChangeInputs:
		if err := a.handleWorkflowChangeInputs(p); err != nil {
			a.Logf("WorkflowChangeInputs: %v", err)
		}
	case stepStatus:
		a.handleStepStatus(p)
	case stepStatusReply:
		a.handleStepStatusReply(p)
	case stateInformation:
		a.Send(p.ReplyTo, metrics.Normal, "StateResponse", stateInformationReply{Agent: a.cfg.Name, Load: a.execCount})
	case stateInformationReply:
		a.loads[p.Agent] = p.Load
	case nestedResult:
		a.handleNestedResult(p)
	case purgeNote:
		a.handlePurge(p)
	default:
		coord.Dispatch(p, a)
	}
}

// ---------------------------------------------------------------------------
// WorkflowStart

func (a *Agent) handleWorkflowStart(p workflowStart) error {
	schema := a.cfg.Library.Schema(p.Workflow)
	if schema == nil {
		return fmt.Errorf("unknown workflow class %q", p.Workflow)
	}
	if _, dup := a.replicas[replicaKey(p.Workflow, p.Instance)]; dup {
		return fmt.Errorf("instance %s.%d already exists", p.Workflow, p.Instance)
	}
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		return err
	}
	r.coordinator = a.cfg.Name
	r.ins.NotifyTo = p.ReplyTo
	for name, v := range p.Inputs {
		r.ins.Data[model.WorkflowInput(name)] = v
	}
	if p.Parent != nil {
		r.ins.Parent = &wfdb.ParentRef{Workflow: p.Parent.Workflow, ID: p.ParentInst, Step: p.Parent.Step}
		r.parentAgent = p.ParentAgent
	}
	a.addLoad(metrics.Normal, 1)
	if a.cfg.AGDB != nil {
		a.Tx().SaveSummary(p.Workflow, p.Instance, wfdb.Running)
	}
	r.ins.Events.Post(event.WorkflowStartName)

	// Dispatch start steps: the coordination agent is the executor of the
	// first start step; other start steps get packets.
	for i, sid := range schema.StartSteps() {
		if i == 0 {
			continue // handled by local evaluation below
		}
		a.forwardPacketForStep(r, sid, metrics.Normal)
	}
	a.evaluate(r)
	return nil
}

// ---------------------------------------------------------------------------
// StepExecute: packet arrival and local navigation

func (a *Agent) handleStepExecute(p stepExecute, from string) {
	pkt := p.Packet
	r, err := a.getReplica(pkt.Workflow, pkt.Instance)
	if err != nil {
		if errors.Is(err, errRetired) {
			// Late packet for a finished instance: the unpack still cost
			// this agent its per-packet load unit (the paper's s·a count
			// is independent of instance fate); only replica work is
			// skipped. Keeping the unit keeps the Table 6 load column
			// identical to the pre-retirement measurement.
			a.addLoad(p.Mechanism, 1)
		} else {
			a.Logf("StepExecute: %v", err)
		}
		return
	}
	if r.purged || r.ins.Status != wfdb.Running {
		return
	}
	if pkt.Coordinator != "" {
		r.coordinator = pkt.Coordinator
	}
	if pkt.Epoch > r.epoch {
		r.epoch = pkt.Epoch
	}
	a.addLoad(p.Mechanism, 1) // unpack + table updates
	if len(pkt.ResetSteps) > 0 {
		nav.ResetSteps(r.ins, r.rules, pkt.ResetSteps)
		for _, id := range pkt.ResetSteps {
			if rec := r.ins.Steps[id]; rec != nil {
				rec.HasResult = false
			}
			r.resetEpoch[id] = r.epoch
		}
	}
	a.mergeFiltered(r, pkt.Data, pkt.Events, pkt.Epoch)
	// Anti-entropy: a sender operating at an older epoch has missed a
	// rollback; tell it to catch up so its threads quiesce and re-execute.
	if pkt.Epoch < r.epoch && r.lastHalt != nil && from != "" && from != a.cfg.Name {
		a.Send(from, r.lastHalt.Mechanism, KindHaltThread, *r.lastHalt)
	}
	a.evaluate(r)
	a.persist(r)
}

// mergeFiltered merges incoming state per step: entries belonging to a step
// that was reset at a later epoch than the sender's view are stale and
// skipped; everything else merges. The step of a data item is its name
// prefix ("S2" of "S2.O1"); events name their step directly. A step whose
// done event merges is marked done in the replica's step table (knowledge of
// a step executed elsewhere). Every other writer of a done event records the
// step done as well, so the replica needs no second pass over its events.
// The incoming maps and slices are only read; a packet is shared by all its
// recipients.
func (a *Agent) mergeFiltered(r *replica, data map[string]expr.Value, events []string, senderEpoch int) {
	// fresh(step) == senderEpoch >= r.resetEpoch[step], written out inline to
	// keep this (very hot) merge free of a closure allocation per call.
	for k, v := range data {
		if stepName, _, ok := strings.Cut(k, "."); ok {
			if senderEpoch < r.resetEpoch[model.StepID(stepName)] {
				continue // stale; includes "WF": inputs changed at a later epoch
			}
		}
		if old, exists := r.ins.Data[k]; !exists || !old.Equal(v) {
			r.ins.Data[k] = v
		}
	}
	for _, name := range events {
		sid := event.StepOfDone(name)
		if sid == "" {
			if !r.ins.Events.Has(name) {
				r.ins.Events.Post(name)
			}
			continue
		}
		id := model.StepID(sid)
		if senderEpoch < r.resetEpoch[id] {
			continue
		}
		if senderEpoch > r.doneEpoch[id] {
			r.doneEpoch[id] = senderEpoch
		}
		if !r.ins.Events.Has(name) {
			r.ins.Events.Post(name)
		}
		if r.schema.Steps[id] != nil {
			if rec := r.ins.StepRec(id); rec.Status == wfdb.StepPending || rec.Status == wfdb.StepCompensated {
				rec.Status = wfdb.StepDone
			}
		}
	}
}

// evaluate runs the rule engine and executes fired steps this agent is the
// elected executor for.
func (a *Agent) evaluate(r *replica) {
	if r.ins.Status != wfdb.Running || r.purged {
		return
	}
	for {
		fired, err := r.rules.Evaluate(r.ins.Events, r.ins.Env())
		if err != nil {
			a.Logf("instance %s: %v", r.ins.Key(), err)
		}
		progressed := false
		for _, rl := range fired {
			switch rl.Action.Kind {
			case rules.ActExecute:
				if a.maybeExecute(r, rl.Action.Step) {
					progressed = true
				}
			case rules.ActNotify:
				if rl.Action.Fn != nil {
					rl.Action.Fn()
				}
				progressed = true
			}
		}
		if len(fired) == 0 || !progressed {
			return
		}
		if r.ins.Status != wfdb.Running {
			return
		}
	}
}

// maybeExecute gates and executes a fired step. Returns true when state
// changed synchronously.
func (a *Agent) maybeExecute(r *replica, step model.StepID) bool {
	if r.ins.Status != wfdb.Running || r.executing[step] {
		return false
	}
	if a.executorOf(r, step) != a.cfg.Name {
		return false // another eligible agent won the election
	}
	s := r.schema.Steps[step]
	if s == nil {
		return false
	}

	// Coordinated-execution gate: the step proceeds only once the home agent
	// has answered and every wait event is valid.
	if a.coordSteps[model.StepRef{Workflow: r.ins.Workflow, Step: step}] {
		switch r.gate.Admit(step, r.ins.Events) {
		case coord.AskHome:
			a.request(coord.Check, r, step)
			return false
		case coord.Blocked:
			return false
		}
	}

	inputs := nav.ResolveInputs(r.ins, s)

	rec := r.ins.Steps[step]
	if rec != nil && rec.HasResult && rec.Agent == a.cfg.Name {
		// Revisit of an already-executed step: the OCR strategy applies.
		mech := r.recovery
		if mech == metrics.Normal {
			mech = metrics.Failure
		}
		var d ocr.Decision
		if a.cfg.DisableOCR {
			d = ocr.CompleteCR
		} else {
			var derr error
			d, derr = ocr.Decide(r.schema, s, rec, inputs, r.ins.Env())
			if derr != nil {
				a.Logf("instance %s step %s: %v", r.ins.Key(), step, derr)
			}
		}
		a.addLoad(mech, 1)
		switch d {
		case ocr.Reuse:
			r.ins.RecordDone(step, rec.Outputs)
			r.doneEpoch[step] = r.epoch
			a.afterStepDone(r, step, mech)
			return true
		case ocr.CompleteCR:
			plan := a.planCompSet(r, step)
			if len(plan) > 1 {
				// Compensation dependent set: drive the CompensateSet chain
				// starting at the agent of the last step of the list.
				a.startCompensateSetChain(r, step, plan, mech)
				return false
			}
			a.compensateLocal(r, step, model.ModeCompensate, mech)
			// The compensation took the step's own outputs out of the data
			// table; a step that reads them must not see them again.
			a.executeStep(r, step, model.ModeExecute, nil, nav.ResolveInputs(r.ins, s), mech)
			return true
		case ocr.IncrementalCR:
			prev := rec.Prev()
			a.compensateLocal(r, step, model.ModePartialComp, mech)
			a.executeStep(r, step, model.ModeIncremental, prev, inputs, mech)
			return true
		}
		// ExecuteFresh falls through.
	}

	a.executeStep(r, step, model.ModeExecute, nil, inputs, nav.StepMechanism(r.ins, step, r.recovery))
	return true
}

// executeStep runs the step program synchronously on inputs, the step's
// inputs as resolved from the replica, and navigates onward.
func (a *Agent) executeStep(r *replica, step model.StepID, mode model.ExecMode, prev *model.PrevExecution, inputs map[string]expr.Value, mech metrics.Mechanism) {
	s := r.schema.Steps[step]
	if s.Nested != "" {
		a.startNested(r, step, inputs, mech)
		return
	}
	prog, ok := a.cfg.Programs.Lookup(s.Program)
	if !ok {
		a.Logf("instance %s step %s: unknown program %q", r.ins.Key(), step, s.Program)
		a.onStepFailure(r, step, mech)
		return
	}
	if mode == model.ModeIncremental && prev == nil {
		prev = r.ins.StepRec(step).Prev()
	}
	r.ins.RecordExecuting(step, a.cfg.Name, inputs)
	r.executing[step] = true
	epochBefore := r.epoch
	a.execCount++
	a.addLoad(mech, 1) // navigation + scheduling at the agent
	out, err := prog(&model.ProgramContext{
		Workflow: r.ins.Workflow,
		Instance: r.ins.ID,
		Step:     step,
		Mode:     mode,
		Attempt:  r.ins.StepRec(step).Attempts,
		Inputs:   inputs,
		Prev:     prev,
	})
	r.executing[step] = false
	if r.resetEpoch[step] > epochBefore {
		// A rollback reset this step while it ran: discard the result, but
		// release any coordination resources the attempt held.
		a.releaseCoord(coord.Failed, r, step)
		return
	}
	if err != nil {
		r.ins.RecordFailed(step)
		a.releaseCoord(coord.Failed, r, step)
		a.onStepFailure(r, step, metrics.Failure)
		return
	}
	r.ins.RecordDone(step, out)
	r.doneEpoch[step] = r.epoch
	a.afterStepDone(r, step, mech)
}

// afterStepDone performs post-success navigation: coordination
// notifications, branch-switch compensation threads, loop arcs, terminal
// reporting and packet forwarding.
func (a *Agent) afterStepDone(r *replica, step model.StepID, mech metrics.Mechanism) {
	rec := r.ins.StepRec(step)
	if r.recovery != metrics.Normal && rec.Attempts <= 1 {
		r.recovery = metrics.Normal
	}

	a.releaseCoord(coord.Done, r, step)

	// Branch switch after re-execution: start compensation threads down the
	// branches no longer taken (CompensateThread WI).
	if r.schema.IsBranching(step) && rec.Attempts > 1 {
		taken := nav.ActiveBranchTargets(r.schema, r.ins, step)
		takenSet := make(map[model.StepID]bool, len(taken))
		for _, id := range taken {
			takenSet[id] = true
		}
		for _, arc := range r.schema.ControlSuccessors(step) {
			if takenSet[arc.To] {
				continue
			}
			a.addLoad(mech, 1)
			a.Send(a.executorOf(r, arc.To), mech, KindCompensateThread, compensateThread{
				Workflow:  r.ins.Workflow,
				Instance:  r.ins.ID,
				Step:      arc.To,
				Mechanism: mech,
			})
		}
	}

	// Loop arcs: on repeat, reset the body and re-dispatch the head.
	for _, arc := range r.schema.LoopArcs(step) {
		cond, err := r.schema.CondExpr(arc.Cond)
		if err != nil {
			continue
		}
		ok, err := cond.EvalBool(r.ins.Env())
		if err != nil || !ok {
			continue
		}
		a.addLoad(metrics.Normal, 1)
		body := nav.ApplyLoopBack(r.schema, r.ins, r.rules, arc.To, step)
		a.forwardPacketForStepWithReset(r, arc.To, body, metrics.Normal)
		a.persist(r)
		a.evaluate(r)
		return
	}

	// Terminal step: inform the coordination agent (StepCompleted WI).
	isTerminal := false
	for _, tid := range r.schema.TerminalSteps() {
		if tid == step {
			isTerminal = true
			break
		}
	}
	if isTerminal {
		a.addLoad(metrics.Normal, 1)
		a.Send(a.coordinatorOf(r), metrics.Normal, KindStepCompleted, stepCompleted{
			Workflow: r.ins.Workflow,
			Instance: r.ins.ID,
			Step:     step,
			Epoch:    r.epoch,
			Data:     cloneData(r.ins.Data),
			Events:   r.ins.Events.ValidNames(),
		})
	}

	// Forward workflow packets to the agents of every successor step.
	for _, arc := range r.schema.ControlSuccessors(step) {
		a.forwardPacketForStep(r, arc.To, mech)
	}
	a.persist(r)
	a.evaluate(r)
}

func cloneData(m map[string]expr.Value) map[string]expr.Value {
	out := make(map[string]expr.Value, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// buildPacket assembles the workflow packet for a target step.
func (a *Agent) buildPacket(r *replica, target model.StepID, reset []model.StepID) *Packet {
	return &Packet{
		Workflow:    r.ins.Workflow,
		Instance:    r.ins.ID,
		Epoch:       r.epoch,
		TargetStep:  target,
		Data:        cloneData(r.ins.Data),
		Events:      r.ins.Events.ValidNames(),
		ResetSteps:  reset,
		Leading:     append([]string(nil), r.leading...),
		Lagging:     append([]string(nil), r.lagging...),
		Coordinator: a.coordinatorOf(r),
	}
}

// forwardPacketForStep sends the packet for a successor step to all its
// eligible agents (the paper's s·a messages; the deterministic election
// picks the executor with no extra traffic). With ExplicitElection the
// agents' states are probed first and the packet goes only to the chosen
// agent.
func (a *Agent) forwardPacketForStep(r *replica, target model.StepID, mech metrics.Mechanism) {
	a.forwardPacketForStepWithReset(r, target, nil, mech)
}

func (a *Agent) forwardPacketForStepWithReset(r *replica, target model.StepID, reset []model.StepID, mech metrics.Mechanism) {
	s := r.schema.Steps[target]
	if s == nil {
		return
	}
	elig := nav.EffectiveAgents(s, a.cfg.Agents)
	pkt := a.buildPacket(r, target, reset)
	a.addLoad(mech, 1)
	if a.cfg.ExplicitElection {
		for _, ag := range elig {
			if ag != a.cfg.Name && a.alive(ag) {
				a.Send(ag, mech, KindStateInformation, stateInformation{ReplyTo: a.cfg.Name})
			}
		}
		chosen := a.executorOf(r, target)
		if chosen == "" {
			chosen = a.cfg.Name
		}
		a.Send(chosen, mech, KindStepExecute, stepExecute{Packet: pkt, Mechanism: mech})
		return
	}
	// One packet for every recipient: it is a snapshot nobody writes again
	// (the sender keeps no reference, receivers only read it).
	for _, ag := range elig {
		a.Send(ag, mech, KindStepExecute, stepExecute{Packet: pkt, Mechanism: mech})
	}
}

// ---------------------------------------------------------------------------
// Commit path

func (a *Agent) handleStepCompleted(p stepCompleted) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		if !errors.Is(err, errRetired) {
			a.Logf("StepCompleted: %v", err)
		}
		return
	}
	if r.ins.Status != wfdb.Running {
		return
	}
	if p.Epoch > r.epoch {
		r.epoch = p.Epoch
	}
	r.coordinator = a.cfg.Name
	a.addLoad(metrics.Normal, 1)
	a.mergeFiltered(r, p.Data, p.Events, p.Epoch)
	if nav.ShouldCommit(r.schema, r.ins) {
		a.commitInstance(r)
		return
	}
	a.evaluate(r)
}

func (a *Agent) commitInstance(r *replica) {
	a.addLoad(metrics.Normal, 1)
	r.ins.Status = wfdb.Committed
	r.ins.Events.Post(event.WorkflowDoneName)
	a.finishInstance(r)
}

func (a *Agent) finishInstance(r *replica) {
	if a.cfg.AGDB != nil {
		a.Tx().SaveSummary(r.ins.Workflow, r.ins.ID, r.ins.Status)
	}

	// Coordination clean-up at the home agent.
	if len(a.cfg.Library.Coord) > 0 {
		a.toHome(coord.Request{Op: coord.Forget, Inst: coord.InstanceRef{Workflow: r.ins.Workflow, ID: r.ins.ID}})
	}

	// Nested: report to the parent step's agent.
	if p := r.ins.Parent; p != nil && r.parentAgent != "" {
		a.Send(r.parentAgent, metrics.Normal, KindNestedResult, nestedResult{
			ParentWorkflow: p.Workflow,
			ParentInstance: p.ID,
			ParentStep:     p.Step,
			ChildWorkflow:  r.ins.Workflow,
			ChildInstance:  r.ins.ID,
			Committed:      r.ins.Status == wfdb.Committed,
			Data:           cloneData(r.ins.Data),
		})
	}

	if a.cfg.PurgeOnCommit {
		a.purges = append(a.purges, purgeEntry{Workflow: r.ins.Workflow, Instance: r.ins.ID, Status: r.ins.Status})
	}

	// Retire the coordination replica itself: archive the full final state,
	// publish the terminal status (waking completion waiters and letting the
	// other agents retire their replicas at their next turn, message-free)
	// and drop the instance from the live table.
	a.retireReplica(r, r.ins.Status)
}

// broadcastPurges is the sweep's purge broadcast: one note per peer naming
// every instance finished here since the last sweep. The peers share the
// entries, which nobody writes again.
func (a *Agent) broadcastPurges() {
	if len(a.purges) == 0 {
		return
	}
	note := purgeNote{Entries: a.purges}
	a.purges = nil
	for _, ag := range a.cfg.Agents {
		if ag != a.cfg.Name {
			a.Send(ag, metrics.Normal, KindPurge, note)
		}
	}
}

func (a *Agent) handlePurge(p purgeNote) {
	for _, e := range p.Entries {
		// Record the terminal outcome first so late packets find the instance
		// retired, not unknown (no-op when the registry is deployment-shared:
		// the sender already published it).
		if e.Status != wfdb.Running {
			a.term.Complete(e.Workflow, e.Instance, e.Status)
		}
		if r, ok := a.replicas[replicaKey(e.Workflow, e.Instance)]; ok {
			a.dropReplica(r)
		}
	}
}

// ---------------------------------------------------------------------------
// Failure handling

// onStepFailure applies the failure-handling specification at the agent
// where the step failed.
func (a *Agent) onStepFailure(r *replica, step model.StepID, mech metrics.Mechanism) {
	a.addLoad(metrics.Failure, 1)
	pol, ok := r.schema.OnFailure[step]
	r.rollbacks[step]++
	if !ok || r.rollbacks[step] > pol.Attempts() {
		a.Send(a.coordinatorOf(r), metrics.Failure, KindWorkflowAbort, workflowAbort{Workflow: r.ins.Workflow, Instance: r.ins.ID})
		return
	}
	r.recovery = metrics.Failure
	target := a.executorOf(r, pol.RollbackTo)
	a.Send(target, metrics.Failure, KindWorkflowRollback, workflowRollback{
		Workflow:  r.ins.Workflow,
		Instance:  r.ins.ID,
		Origin:    pol.RollbackTo,
		Epoch:     r.rollbacks[step],
		Initiator: a.cfg.Name + "/" + string(step),
		Mechanism: metrics.Failure,
	})
}

// handleWorkflowRollback runs at the agent owning the rollback origin: it
// resets local state, floods HaltThread probes down the affected threads,
// reports rollback-dependency triggers, and re-executes the origin through
// the OCR strategy.
func (a *Agent) handleWorkflowRollback(p workflowRollback) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		if errors.Is(err, errRetired) {
			// Late rollback for a finished instance: count the unpack
			// unit the pre-retirement path charged, skip the replica work.
			a.addLoad(p.Mechanism, 1)
		} else {
			a.Logf("WorkflowRollback: %v", err)
		}
		return
	}
	if r.ins.Status != wfdb.Running {
		return
	}
	mech := p.Mechanism
	r.recovery = mech
	r.epoch++
	if len(p.NewData) > 0 {
		r.ins.MergeData(p.NewData)
		r.resetEpoch["WF"] = r.epoch // stale packets must not undo the change
	}
	affected, invalidated := nav.ApplyRollback(r.schema, r.ins, r.rules, p.Origin)
	a.addLoad(mech, int64(len(affected))+1)
	_ = invalidated
	all := append(append([]model.StepID(nil), affected...), p.Origin)
	r.gate.Reset(all)
	for _, id := range all {
		r.resetEpoch[id] = r.epoch
		a.releaseCoord(coord.Failed, r, id)
	}

	r.lastHalt = &haltThread{
		Workflow:  p.Workflow,
		Instance:  p.Instance,
		Origin:    p.Origin,
		Epoch:     r.epoch,
		Initiator: p.Initiator,
		Mechanism: mech,
	}

	// Halt the affected threads: probe the agents of the origin's successor
	// steps, and of the successors of every affected step this agent itself
	// executed and forwarded packets from; the probes propagate onward
	// agent to agent.
	a.haltSuccessorsOf(r, p.Origin, p.Origin, r.epoch, p.Initiator, mech)
	a.propagateHalts(r, p.Origin, r.epoch, p.Initiator, mech)

	// Rollback dependencies are resolved at the coordination home agent.
	if a.hasRollbackDep {
		a.toHome(coord.Request{Op: coord.Rollback, Ref: model.StepRef{Workflow: p.Workflow}, Invalidated: all})
	}

	a.persist(r)
	a.evaluate(r)
}

// haltFlood identifies one HaltThread flood of an instance for
// deduplication.
type haltFlood struct {
	origin    model.StepID
	initiator string
}

// handleHaltThread quiesces the local thread state for a rollback and
// propagates the probe to agents of steps this agent forwarded packets to.
func (a *Agent) handleHaltThread(p haltThread) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		return
	}
	flood := haltFlood{origin: p.Origin, initiator: p.Initiator}
	if r.handledHalts[flood] >= p.Epoch {
		return
	}
	if r.handledHalts == nil {
		r.handledHalts = make(map[haltFlood]int)
	}
	r.handledHalts[flood] = p.Epoch
	if p.Epoch > r.epoch {
		r.epoch = p.Epoch
	}
	if r.lastHalt == nil || p.Epoch >= r.lastHalt.Epoch {
		cp := p
		r.lastHalt = &cp
	}
	set := nav.InvalidationSet(r.schema, p.Origin)
	// A probe must not clobber state the re-executed thread has already
	// re-established at (or after) the probe's epoch.
	stale := set[:0:0]
	for _, id := range set {
		if r.doneEpoch[id] < p.Epoch {
			stale = append(stale, id)
		}
	}
	set = stale
	n := nav.ResetSteps(r.ins, r.rules, set)
	a.addLoad(p.Mechanism, int64(n)+1)
	r.gate.Reset(set)
	for _, id := range set {
		r.resetEpoch[id] = r.epoch
		if a.coordSteps[model.StepRef{Workflow: p.Workflow, Step: id}] {
			nav.ClearMutexGrants(r.ins, id)
		}
	}

	// Propagate to successors of steps this agent executed and forwarded.
	a.propagateHalts(r, p.Origin, p.Epoch, p.Initiator, p.Mechanism)
	a.persist(r)
}

// haltSuccessorsOf sends HaltThread probes to the agents of a step's
// immediate successors (skipping this agent, whose state is already reset).
func (a *Agent) haltSuccessorsOf(r *replica, step, origin model.StepID, epoch int, initiator string, mech metrics.Mechanism) {
	for _, arc := range r.schema.ControlSuccessors(step) {
		for _, ag := range nav.EffectiveAgents(r.schema.Steps[arc.To], a.cfg.Agents) {
			if ag == a.cfg.Name {
				continue
			}
			a.Send(ag, mech, KindHaltThread, haltThread{
				Workflow:  r.ins.Workflow,
				Instance:  r.ins.ID,
				Origin:    origin,
				Step:      arc.To,
				Epoch:     epoch,
				Initiator: initiator,
				Mechanism: mech,
			})
		}
	}
}

// propagateHalts forwards HaltThread probes along the threads this agent
// itself drove: for every affected step it executed (and therefore forwarded
// packets from), the agents of that step's successors are probed.
func (a *Agent) propagateHalts(r *replica, origin model.StepID, epoch int, initiator string, mech metrics.Mechanism) {
	desc := r.schema.Descendants(origin)
	// Sorted iteration: haltSuccessorsOf emits HaltThread probes, and map
	// order would make the probe sequence differ run to run.
	ids := make([]model.StepID, 0, len(r.ins.Steps))
	for id, rec := range r.ins.Steps {
		if desc[id] && rec.Agent == a.cfg.Name && rec.Attempts > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		a.haltSuccessorsOf(r, id, origin, epoch, initiator, mech)
	}
}

// planCompSet computes the CompensateSet chain for revisiting a step of a
// compensation dependent set. Unlike the centralized engine, an agent knows
// only its own execution order, so set members that executed elsewhere are
// recognized by their valid step.done events and ordered by the schema's
// topological order (consistent with execution order along a path). The plan
// lists later members first and ends with the revisited step itself.
func (a *Agent) planCompSet(r *replica, step model.StepID) []model.StepID {
	set := r.schema.CompSetOf(step)
	if set == nil {
		return []model.StepID{step}
	}
	inSet := make(map[model.StepID]bool, len(set))
	for _, id := range set {
		inSet[id] = true
	}
	topo := r.schema.TopoOrder()
	pos := -1
	for i, id := range topo {
		if id == step {
			pos = i
			break
		}
	}
	if pos < 0 {
		return []model.StepID{step}
	}
	var later []model.StepID
	for _, id := range topo[pos+1:] {
		if !inSet[id] {
			continue
		}
		// The rollback has already invalidated done events, so executed-at-
		// some-point is recognized by the occurrence count (which survives
		// invalidation); members already compensated are skipped. Agents in
		// the chain no-op when they hold no results, so over-inclusion is
		// safe.
		rec := r.ins.Steps[id]
		executed := r.ins.Events.Count(r.schema.DoneEventOf(id)) > 0 &&
			!r.ins.Events.Has(r.schema.CompEventOf(id))
		if executed || (rec != nil && rec.HasResult) {
			later = append(later, id)
		}
	}
	plan := make([]model.StepID, 0, len(later)+1)
	for i := len(later) - 1; i >= 0; i-- {
		plan = append(plan, later[i])
	}
	return append(plan, step)
}

// startCompensateSetChain begins the reverse-order compensation of a
// dependent set: the CompensateSet WI travels to the agent of the last
// remaining step, which compensates and forwards, ending at the origin.
func (a *Agent) startCompensateSetChain(r *replica, origin model.StepID, plan []model.StepID, mech metrics.Mechanism) {
	// plan is already in compensation order (reverse execution order, ending
	// with origin); StepList keeps that order.
	first := plan[0]
	a.addLoad(mech, 1)
	a.Send(a.executorOf(r, first), mech, KindCompensateSet, compensateSet{
		Workflow:  r.ins.Workflow,
		Instance:  r.ins.ID,
		Origin:    origin,
		StepList:  plan,
		Mechanism: mech,
	})
}

// handleCompensateSet compensates the head of the StepList if this agent
// executed it, then forwards the chain; when the list is exhausted the
// origin's agent re-executes the origin.
func (a *Agent) handleCompensateSet(p compensateSet) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		return
	}
	// Learn about steps compensated earlier in the chain.
	for _, id := range p.Compensated {
		if rec := r.ins.Steps[id]; rec != nil && rec.HasResult {
			r.ins.RecordCompensated(id)
		} else {
			r.ins.Events.Invalidate(r.schema.DoneEventOf(id))
			r.ins.Events.Post(r.schema.CompEventOf(id))
		}
	}
	if len(p.StepList) == 0 {
		a.persist(r)
		a.evaluate(r)
		return
	}
	step := p.StepList[0]
	rest := p.StepList[1:]
	a.addLoad(p.Mechanism, 1)

	rec := r.ins.Steps[step]
	if rec != nil && rec.HasResult && rec.Agent == a.cfg.Name {
		a.compensateLocal(r, step, model.ModeCompensate, p.Mechanism)
	}
	compensated := append(append([]model.StepID(nil), p.Compensated...), step)

	if len(rest) == 0 {
		// The chain is done; the origin (== step) re-executes here.
		if step == p.Origin {
			r.recovery = p.Mechanism
			a.executeStep(r, step, model.ModeExecute, nil, nav.ResolveInputs(r.ins, r.schema.Steps[step]), p.Mechanism)
		}
		a.persist(r)
		return
	}
	a.Send(a.executorOf(r, rest[0]), p.Mechanism, KindCompensateSet, compensateSet{
		Workflow:    p.Workflow,
		Instance:    p.Instance,
		Origin:      p.Origin,
		StepList:    rest,
		Compensated: compensated,
		Mechanism:   p.Mechanism,
	})
	a.persist(r)
}

// compensateLocal runs a step's compensation program at this agent.
func (a *Agent) compensateLocal(r *replica, step model.StepID, mode model.ExecMode, mech metrics.Mechanism) {
	s := r.schema.Steps[step]
	rec := r.ins.Steps[step]
	if s == nil || rec == nil || !rec.HasResult {
		return
	}
	a.addLoad(mech, 1)
	if s.Compensation != "" && (mode == model.ModeCompensate || s.Incremental) {
		prog, ok := a.cfg.Programs.Lookup(s.Compensation)
		if ok {
			a.execCount++
			if _, err := prog(&model.ProgramContext{
				Workflow: r.ins.Workflow,
				Instance: r.ins.ID,
				Step:     step,
				Mode:     mode,
				Attempt:  rec.Attempts,
				Inputs:   rec.Inputs,
				Prev:     rec.Prev(),
			}); err != nil {
				a.Logf("instance %s: compensation of %s failed: %v", r.ins.Key(), step, err)
			}
		}
	}
	if mode == model.ModeCompensate {
		r.ins.RecordCompensated(step)
	}
}

// handleCompensateThread compensates an abandoned-branch step and forwards
// the thread until a confluence point.
func (a *Agent) handleCompensateThread(p compensateThread) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		return
	}
	a.addLoad(p.Mechanism, 1)
	rec := r.ins.Steps[p.Step]
	if rec != nil && rec.HasResult && rec.Agent == a.cfg.Name {
		a.compensateLocal(r, p.Step, model.ModeCompensate, p.Mechanism)
	} else {
		// Not executed here; drop stale knowledge so commit logic is clean.
		r.ins.Events.Invalidate(r.schema.DoneEventOf(p.Step))
		if rec != nil && rec.Status == wfdb.StepDone {
			rec.Status = wfdb.StepPending
		}
	}
	for _, arc := range r.schema.ControlSuccessors(p.Step) {
		if r.schema.IsConfluence(arc.To) {
			continue // stop before the confluence point
		}
		a.Send(a.executorOf(r, arc.To), p.Mechanism, KindCompensateThread, compensateThread{
			Workflow:  p.Workflow,
			Instance:  p.Instance,
			Step:      arc.To,
			Mechanism: p.Mechanism,
		})
	}
	a.persist(r)
}

// ---------------------------------------------------------------------------
// User-initiated operations at the coordination agent

func (a *Agent) handleWorkflowAbort(p workflowAbort) error {
	r, ok := a.replicas[replicaKey(p.Workflow, p.Instance)]
	if !ok {
		if st, done := a.term.Status(p.Workflow, p.Instance); done && st != wfdb.Running {
			return fmt.Errorf("%w: instance %s.%d is %v", cerrors.ErrNotRunning, p.Workflow, p.Instance, st)
		}
		return fmt.Errorf("%w: %s.%d", cerrors.ErrUnknownInstance, p.Workflow, p.Instance)
	}
	if r.ins.Status != wfdb.Running {
		return fmt.Errorf("%w: instance %s.%d is %v", cerrors.ErrNotRunning, p.Workflow, p.Instance, r.ins.Status)
	}
	if r.abort != nil {
		return nil // abort already in progress
	}
	a.addLoad(metrics.Abort, 1)

	// Quiesce the threads starting from the start steps.
	r.epoch++
	for _, sid := range r.schema.StartSteps() {
		for _, arc := range r.schema.ControlSuccessors(sid) {
			for _, ag := range nav.EffectiveAgents(r.schema.Steps[arc.To], a.cfg.Agents) {
				if ag == a.cfg.Name {
					continue
				}
				a.Send(ag, metrics.Abort, KindHaltThread, haltThread{
					Workflow:  p.Workflow,
					Instance:  p.Instance,
					Origin:    sid,
					Step:      arc.To,
					Epoch:     r.epoch,
					Initiator: a.cfg.Name + "/abort",
					Mechanism: metrics.Abort,
				})
			}
		}
	}

	// Determine the steps to compensate (schema spec or every compensable
	// step known to have executed), in reverse topological order.
	inCand := make(map[model.StepID]bool)
	for _, id := range nav.AbortCandidates(r.schema) {
		inCand[id] = true
	}
	// The coordination agent may not know which candidates actually
	// executed (state is distributed), so it probes all eligible agents of
	// every candidate step — the paper's w·a abort messages.
	topo := r.schema.TopoOrder()
	var queue []model.StepID
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		if inCand[id] {
			queue = append(queue, id)
		}
	}
	r.abort = &abortState{queue: queue}
	a.pumpAbort(r)
	return nil
}

// pumpAbort sends StepCompensate to all eligible agents of the next step in
// the abort queue and waits for their acknowledgements.
func (a *Agent) pumpAbort(r *replica) {
	ab := r.abort
	for ab.pending == 0 {
		if len(ab.queue) == 0 {
			r.ins.Status = wfdb.Aborted
			r.ins.Events.Post(event.WorkflowAbortName)
			a.finishInstance(r)
			return
		}
		step := ab.queue[0]
		ab.queue = ab.queue[1:]
		elig := nav.EffectiveAgents(r.schema.Steps[step], a.cfg.Agents)
		for _, ag := range elig {
			ab.pending++
			a.Send(ag, metrics.Abort, KindStepCompensate, stepCompensate{
				Workflow:  r.ins.Workflow,
				Instance:  r.ins.ID,
				Step:      step,
				ReplyTo:   a.cfg.Name,
				Mechanism: metrics.Abort,
			})
		}
	}
}

func (a *Agent) handleStepCompensate(p stepCompensate) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err == nil {
		rec := r.ins.Steps[p.Step]
		if rec != nil && rec.HasResult && rec.Agent == a.cfg.Name {
			a.compensateLocal(r, p.Step, model.ModeCompensate, p.Mechanism)
			a.persist(r)
		}
	}
	a.Send(p.ReplyTo, p.Mechanism, KindStepCompensated, stepCompensated{
		Workflow: p.Workflow,
		Instance: p.Instance,
		Step:     p.Step,
	})
}

func (a *Agent) handleStepCompensated(p stepCompensated) {
	r, ok := a.replicas[replicaKey(p.Workflow, p.Instance)]
	if !ok || r.abort == nil {
		return
	}
	a.addLoad(metrics.Abort, 1)
	r.abort.pending--
	a.pumpAbort(r)
}

func (a *Agent) handleWorkflowChangeInputs(p workflowChangeInputs) error {
	r, ok := a.replicas[replicaKey(p.Workflow, p.Instance)]
	if !ok {
		if st, done := a.term.Status(p.Workflow, p.Instance); done && st != wfdb.Running {
			return fmt.Errorf("%w: instance %s.%d is %v", cerrors.ErrNotRunning, p.Workflow, p.Instance, st)
		}
		return fmt.Errorf("%w: %s.%d", cerrors.ErrUnknownInstance, p.Workflow, p.Instance)
	}
	if r.ins.Status != wfdb.Running {
		return fmt.Errorf("%w: instance %s.%d is %v", cerrors.ErrNotRunning, p.Workflow, p.Instance, r.ins.Status)
	}
	a.addLoad(metrics.InputChange, 1)
	changed, origin := nav.InputChange(r.schema, r.ins, p.Inputs)
	if len(changed) == 0 {
		return nil
	}
	r.ins.MergeData(changed)
	r.epoch++
	r.resetEpoch["WF"] = r.epoch
	if origin == "" {
		return nil
	}
	r.inputEpoch++
	a.Send(a.executorOf(r, origin), metrics.InputChange, KindWorkflowRollback, workflowRollback{
		Workflow:  p.Workflow,
		Instance:  p.Instance,
		Origin:    origin,
		Epoch:     r.inputEpoch,
		Initiator: a.cfg.Name + "/inputs",
		NewData:   changed,
		Mechanism: metrics.InputChange,
	})
	return nil
}

// ---------------------------------------------------------------------------
// Nested workflows

func (a *Agent) startNested(r *replica, step model.StepID, inputs map[string]expr.Value, mech metrics.Mechanism) {
	s := r.schema.Steps[step]
	child := a.cfg.Library.Schema(s.Nested)
	if child == nil {
		a.Logf("instance %s step %s: unknown nested workflow %q", r.ins.Key(), step, s.Nested)
		return
	}
	r.ins.RecordExecuting(step, a.cfg.Name, inputs)
	childID := r.ins.ID*1000 + int(r.ins.StepRec(step).Attempts)
	a.addLoad(mech, 1)
	a.Send(a.electCoordinator(s.Nested, childID), mech, KindWorkflowStart, workflowStart{
		Workflow: s.Nested,
		Instance: childID,
		Inputs:   nav.NestedInputs(s, child, r.ins),
		Parent: &model.StepRef{
			Workflow: r.ins.Workflow,
			Step:     step,
		},
		ParentInst:  r.ins.ID,
		ParentAgent: a.cfg.Name,
	})
}

func (a *Agent) handleNestedResult(p nestedResult) {
	r, ok := a.replicas[replicaKey(p.ParentWorkflow, p.ParentInstance)]
	if !ok || r.ins.Status != wfdb.Running {
		return
	}
	a.addLoad(metrics.Normal, 1)
	if !p.Committed {
		r.ins.RecordFailed(p.ParentStep)
		a.onStepFailure(r, p.ParentStep, metrics.Failure)
		return
	}
	var outputs map[string]expr.Value
	if child := a.cfg.Library.Schema(p.ChildWorkflow); child != nil {
		outputs = nav.NestedOutputs(r.schema.Steps[p.ParentStep], child, p.Data)
	}
	r.ins.RecordDone(p.ParentStep, outputs)
	a.afterStepDone(r, p.ParentStep, metrics.Normal)
}

// ---------------------------------------------------------------------------
// Predecessor-failure detection (StepStatus polling)

// sweep is the agent's periodic anti-entropy pass: it re-evaluates running
// replicas (firing any rules re-armed by rollbacks whose packets raced past
// their probes), re-reports terminal steps this agent completed to the
// coordination agent (a lost or filtered StepCompleted must not prevent
// commit), and polls StepStatus for events that have been missing too long
// (the paper's predecessor-failure detection).
func (a *Agent) sweep() {
	a.sweepWakeups.Add(1)
	a.broadcastPurges()
	a.retireFinished()
	now := time.Now()
	for _, r := range a.sortedReplicas(nil) {
		if r.ins.Status != wfdb.Running || r.purged {
			continue
		}
		a.rearmUnexecuted(r)
		a.evaluate(r)
		// Backstop for coordination: a rollback can invalidate a grant after
		// the home issued it, so held-back steps ask again.
		for _, step := range r.gate.Recheck() {
			a.maybeExecute(r, step)
		}
		if now.Sub(r.lastReport) >= 2*a.cfg.sweepPeriod {
			r.lastReport = now
			a.reportTerminals(r)
		}
		a.pollOverdueRules(r, now)
	}
}

// retireFinished drops the replicas of instances completed since the agent
// last looked, read from the terminal registry's completion feed: with a
// deployment-shared registry a bystander learns the outcome at its next turn,
// for no message. An agent that fell further behind than the feed holds scans
// its replica table instead (dropFinished).
func (a *Agent) retireFinished() {
	refs, next, lagged := a.term.FinishedSince(a.cursor, a.finished[:0])
	a.cursor = next
	if lagged {
		a.dropFinished()
		return
	}
	for _, ref := range refs {
		if r, ok := a.replicas[ref]; ok {
			a.dropReplica(r)
		}
	}
	a.finished = refs[:0]
}

// dropFinished drops every replica whose instance the terminal registry
// records as finished: the lag fallback of retireFinished, and what
// System.Quiesce runs so that a quiesced deployment holds no replica of a
// finished instance.
func (a *Agent) dropFinished() {
	finished := a.sortedReplicas(func(r *replica) bool {
		st, ok := a.term.Status(r.ins.Workflow, r.ins.ID)
		return ok && st != wfdb.Running
	})
	for _, r := range finished {
		a.dropReplica(r)
	}
}

// rearmUnexecuted re-arms the execution rules of steps that never started
// executing anywhere this agent can see. Rules are edge-triggered, and the
// executor election is alive-aware: a rule firing consumed while another
// agent transiently won the election (crash windows flip the winner, and
// recovery flips it back) is otherwise lost for good — every agent's gate
// says "not my step" exactly when its rule fires, and no one ever executes
// it. Re-arming from the sweep lets the eventual winner retry; the election
// gate, the executing guard and the coordination dedup keep the retries
// idempotent for everyone else. Steps with failure or compensation state are
// left to the rollback path, which re-arms what it re-executes.
func (a *Agent) rearmUnexecuted(r *replica) {
	r.rules.RearmWhere(func(id string) bool {
		for _, sid := range r.schema.Order {
			if !rules.IsExecRuleFor(id, sid) {
				continue
			}
			if r.executing[sid] {
				return false
			}
			rec := r.ins.Steps[sid]
			return rec == nil || (rec.Status == wfdb.StepPending && !rec.HasResult)
		}
		return false
	})
}

// reportTerminals re-sends StepCompleted for terminal steps this agent
// holds results for while the instance is still running here.
func (a *Agent) reportTerminals(r *replica) {
	coordAgent := a.coordinatorOf(r)
	if coordAgent == a.cfg.Name {
		// We are the coordination agent: just re-check commit.
		if nav.ShouldCommit(r.schema, r.ins) {
			a.commitInstance(r)
		}
		return
	}
	for _, tid := range r.schema.TerminalSteps() {
		rec := r.ins.Steps[tid]
		if rec == nil || !rec.HasResult || rec.Agent != a.cfg.Name {
			continue
		}
		a.Send(coordAgent, metrics.Normal, KindStepCompleted, stepCompleted{
			Workflow: r.ins.Workflow,
			Instance: r.ins.ID,
			Step:     tid,
			Epoch:    r.epoch,
			Data:     cloneData(r.ins.Data),
			Events:   r.ins.Events.ValidNames(),
		})
	}
}

// pollOverdueRules polls the eligible agents of every step whose done event
// a pending rule has been missing for longer than two sweep periods.
func (a *Agent) pollOverdueRules(r *replica, now time.Time) {
	for _, w := range r.rules.WaitingRules(r.ins.Events) {
		for _, missing := range w.Missing {
			sid := event.StepOfDone(missing)
			if sid == "" {
				continue
			}
			key := w.Rule.ID + "|" + missing
			first, seen := r.waitSince[key]
			if !seen {
				r.waitSince[key] = now
				continue
			}
			if now.Sub(first) < 2*a.cfg.sweepPeriod || r.polled[key] {
				continue
			}
			r.polled[key] = true
			producer := model.StepID(sid)
			s := r.schema.Steps[producer]
			if s == nil {
				continue
			}
			forStep := w.Rule.Action.Step
			for _, ag := range nav.EffectiveAgents(s, a.cfg.Agents) {
				if ag == a.cfg.Name || !a.alive(ag) {
					continue
				}
				a.addLoad(metrics.Failure, 1)
				a.Send(ag, metrics.Failure, KindStepStatus, stepStatus{
					Workflow: r.ins.Workflow,
					Instance: r.ins.ID,
					Step:     producer,
					ForStep:  forStep,
					ReplyTo:  a.cfg.Name,
				})
			}
		}
	}
}

func (a *Agent) handleStepStatus(p stepStatus) {
	r, ok := a.replicas[replicaKey(p.Workflow, p.Instance)]
	status := "unknown"
	if ok {
		if rec := r.ins.Steps[p.Step]; rec != nil {
			switch {
			case rec.HasResult && rec.Agent == a.cfg.Name:
				status = "done"
			case r.executing[p.Step]:
				status = "executing"
			}
		}
	}
	a.Send(p.ReplyTo, metrics.Failure, KindStepStatusReply, stepStatusReply{
		Workflow: p.Workflow,
		Instance: p.Instance,
		Step:     p.Step,
		Status:   status,
		Agent:    a.cfg.Name,
	})
	// A responder holding the results re-sends the workflow packet so the
	// waiting agent can proceed.
	if status == "done" && ok {
		pkt := a.buildPacket(r, p.ForStep, nil)
		a.Send(p.ReplyTo, metrics.Failure, KindStepExecute, stepExecute{Packet: pkt, Mechanism: metrics.Failure})
	}
}

func (a *Agent) handleStepStatusReply(p stepStatusReply) {
	r, ok := a.replicas[replicaKey(p.Workflow, p.Instance)]
	if !ok || r.ins.Status != wfdb.Running {
		return
	}
	switch p.Status {
	case "done":
		// The packet re-send unblocks us; nothing more to do.
	case "executing":
		// Keep waiting: reset the age so the poll may repeat later.
		for key := range r.polled {
			if strings.HasSuffix(key, "|"+event.DoneName(string(p.Step))) {
				delete(r.polled, key)
				r.waitSince[key] = time.Now()
			}
		}
	case "unknown":
		// If the producing step is a query, re-execute it at an available
		// eligible agent; update steps must wait for the failed agent.
		s := r.schema.Steps[p.Step]
		if s == nil || s.Update {
			return
		}
		if r.ins.Events.Has(r.schema.DoneEventOf(p.Step)) {
			return
		}
		target := nav.ElectAgent(nav.EffectiveAgents(s, a.cfg.Agents), r.ins.Workflow, r.ins.ID, p.Step, a.alive)
		if target == "" {
			return
		}
		pkt := a.buildPacket(r, p.Step, nil)
		a.addLoad(metrics.Failure, 1)
		a.Send(target, metrics.Failure, KindStepExecute, stepExecute{Packet: pkt, Mechanism: metrics.Failure})
	}
}
