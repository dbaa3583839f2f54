package distributed

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"crew/internal/cerrors"
	"crew/internal/coord"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
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
		// The election is deterministic: the explicit election's probe
		// replies are counted traffic and choose nothing.
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
	r.Ins.NotifyTo = p.ReplyTo
	for name, v := range p.Inputs {
		r.Ins.Data[model.WorkflowInput(name)] = v
	}
	if p.Parent != nil {
		r.Ins.Parent = &wfdb.ParentRef{Workflow: p.Parent.Workflow, ID: p.ParentInst, Step: p.Parent.Step}
		r.parentAgent = p.ParentAgent
	}
	a.site.Rec.Add(metrics.Normal, 1)
	if a.cfg.AGDB != nil {
		a.Tx().SaveSummary(p.Workflow, p.Instance, wfdb.Running)
	}
	r.Ins.Events.Post(event.WorkflowStartName)

	// Dispatch start steps: the coordination agent is the executor of the
	// first start step; other start steps get packets.
	for i, sid := range schema.StartSteps() {
		if i == 0 {
			continue // handled by local evaluation below
		}
		a.forwardPacket(r, sid, nil, metrics.Normal)
	}
	nav.Evaluate(r)
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
			a.site.Rec.Add(p.Mechanism, 1)
		} else {
			a.Logf("StepExecute: %v", err)
		}
		return
	}
	if r.Retired || r.Ins.Status != wfdb.Running {
		return
	}
	if pkt.Coordinator != "" {
		r.coordinator = pkt.Coordinator
	}
	if pkt.Epoch > r.epoch {
		r.epoch = pkt.Epoch
	}
	a.site.Rec.Add(p.Mechanism, 1) // unpack + table updates
	if len(pkt.ResetSteps) > 0 {
		nav.ResetSteps(r.Ins, r.Rules, pkt.ResetSteps)
		for _, id := range pkt.ResetSteps {
			if rec := r.Ins.Steps[id]; rec != nil {
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
	nav.Evaluate(r)
	r.Persist()
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
		if old, exists := r.Ins.Data[k]; !exists || !old.Equal(v) {
			r.Ins.Data[k] = v
		}
	}
	for _, name := range events {
		sid := event.StepOfDone(name)
		if sid == "" {
			if !r.Ins.Events.Has(name) {
				r.Ins.Events.Post(name)
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
		if !r.Ins.Events.Has(name) {
			r.Ins.Events.Post(name)
		}
		if r.Schema.Steps[id] != nil {
			if rec := r.Ins.StepRec(id); rec.Status == wfdb.StepPending || rec.Status == wfdb.StepCompensated {
				rec.Status = wfdb.StepDone
			}
		}
	}
}

// Navigation: the agent's side of the core (nav.Owner). The agent runs a
// step itself, synchronously, and forwards packets; a revisit compensates
// locally or drives a CompensateSet chain.

// Stopped: an agent navigates while its coordination agent aborts; the abort
// protocol quiesces the threads.
func (r *replica) Stopped() bool { return false }

// MayRun admits a step that is not running here and whose executor this agent
// is elected to be.
func (r *replica) MayRun(step model.StepID) bool {
	return !r.executing[step] && r.a.executorOf(r, step) == r.a.cfg.Name
}

// Revisits: an agent revisits only the results it produced itself.
func (r *replica) Revisits(rec *wfdb.StepRecord) bool { return rec.Agent == r.a.cfg.Name }

func (r *replica) Run(step model.StepID, inputs map[string]expr.Value, mech metrics.Mechanism) bool {
	r.a.executeStep(r, step, model.ModeExecute, nil, inputs, mech)
	return true
}

func (r *replica) CompleteCR(step model.StepID, mech metrics.Mechanism) bool {
	a := r.a
	plan := a.planCompSet(r, step)
	if len(plan) > 1 {
		// Compensation dependent set: drive the CompensateSet chain
		// starting at the agent of the last step of the list.
		a.startCompensateSetChain(r, step, plan, mech)
		return false
	}
	a.compensateLocal(r, step, model.ModeCompensate, mech)
	// The compensation took the step's own outputs out of the data table; a
	// step that reads them must not see them again.
	a.executeStep(r, step, model.ModeExecute, nil, nav.ResolveInputs(r.Ins, r.Schema.Steps[step]), mech)
	return true
}

func (r *replica) IncrementalCR(step model.StepID, inputs map[string]expr.Value, mech metrics.Mechanism) bool {
	prev := r.Ins.StepRec(step).Prev()
	r.a.compensateLocal(r, step, model.ModePartialComp, mech)
	r.a.executeStep(r, step, model.ModeIncremental, prev, inputs, mech)
	return true
}

func (r *replica) Done(step model.StepID, mech metrics.Mechanism) {
	r.doneEpoch[step] = r.epoch
	r.a.afterStepDone(r, step, mech)
}

// Loop: the first loop whose condition holds is taken; its head's agents get
// a packet naming the reset body, and navigation goes on from there.
func (r *replica) Loop(head model.StepID, body []model.StepID) bool {
	r.a.forwardPacket(r, head, body, metrics.Normal)
	r.Persist()
	nav.Evaluate(r)
	return false
}

// Settle: commit is the coordination agent's, on StepCompleted.
func (r *replica) Settle() {}

// executeStep runs the step program synchronously on inputs, the step's
// inputs as resolved from the replica, and navigates onward.
func (a *Agent) executeStep(r *replica, step model.StepID, mode model.ExecMode, prev *model.PrevExecution, inputs map[string]expr.Value, mech metrics.Mechanism) {
	s := r.Schema.Steps[step]
	if s.Nested != "" {
		a.startNested(r, step, inputs, mech)
		return
	}
	prog, ok := a.cfg.Programs.Lookup(s.Program)
	if !ok {
		a.Logf("instance %s step %s: unknown program %q", r.Ins.Key(), step, s.Program)
		a.onStepFailure(r, step, mech)
		return
	}
	if mode == model.ModeIncremental && prev == nil {
		prev = r.Ins.StepRec(step).Prev()
	}
	r.Ins.RecordExecuting(step, a.cfg.Name, inputs)
	r.executing[step] = true
	epochBefore := r.epoch
	a.execCount++
	a.site.Rec.Add(mech, 1) // navigation + scheduling at the agent
	out, err := prog(&model.ProgramContext{
		Workflow: r.Ins.Workflow,
		Instance: r.Ins.ID,
		Step:     step,
		Mode:     mode,
		Attempt:  r.Ins.StepRec(step).Attempts,
		Inputs:   inputs,
		Prev:     prev,
	})
	r.executing[step] = false
	if r.resetEpoch[step] > epochBefore {
		// A rollback reset this step while it ran: discard the result, but
		// release any coordination resources the attempt held.
		nav.Release(r, coord.Failed, step)
		return
	}
	if err != nil {
		r.Ins.RecordFailed(step)
		nav.Release(r, coord.Failed, step)
		a.onStepFailure(r, step, metrics.Failure)
		return
	}
	r.Ins.RecordDone(step, out)
	r.doneEpoch[step] = r.epoch
	a.afterStepDone(r, step, mech)
}

// afterStepDone performs post-success navigation: coordination
// notifications, branch-switch compensation threads, loop arcs, terminal
// reporting and packet forwarding.
func (a *Agent) afterStepDone(r *replica, step model.StepID, mech metrics.Mechanism) {
	r.Ran(step)
	nav.Release(r, coord.Done, step)

	// Branch switch after re-execution: start compensation threads down the
	// branches no longer taken (CompensateThread WI).
	if r.Schema.IsBranching(step) && r.Ins.StepRec(step).Attempts > 1 {
		taken := nav.ActiveBranchTargets(r.Schema, r.Ins, step)
		for _, arc := range r.Schema.ControlSuccessors(step) {
			if slices.Contains(taken, arc.To) {
				continue
			}
			a.site.Rec.Add(mech, 1)
			a.Send(a.executorOf(r, arc.To), mech, KindCompensateThread, compensateThread{
				Workflow:  r.Ins.Workflow,
				Instance:  r.Ins.ID,
				Step:      arc.To,
				Mechanism: mech,
			})
		}
	}

	// Loop arcs: on repeat, the body is reset and the head re-dispatched.
	if nav.LoopBack(r, step) {
		return
	}

	// Terminal step: inform the coordination agent (StepCompleted WI).
	if slices.Contains(r.Schema.TerminalSteps(), step) {
		a.site.Rec.Add(metrics.Normal, 1)
		a.reportTerminal(r, a.coordinatorOf(r), step)
	}

	// Forward workflow packets to the agents of every successor step.
	for _, arc := range r.Schema.ControlSuccessors(step) {
		a.forwardPacket(r, arc.To, nil, mech)
	}
	r.Persist()
	nav.Evaluate(r)
}

// buildPacket assembles the workflow packet for a target step.
func (a *Agent) buildPacket(r *replica, target model.StepID, reset []model.StepID) *Packet {
	return &Packet{
		Workflow:    r.Ins.Workflow,
		Instance:    r.Ins.ID,
		Epoch:       r.epoch,
		TargetStep:  target,
		Data:        maps.Clone(r.Ins.Data),
		Events:      r.Ins.Events.ValidNames(),
		ResetSteps:  reset,
		Coordinator: a.coordinatorOf(r),
	}
}

// forwardPacket sends the packet for a successor step, naming the steps a
// loop iteration reset, to all its eligible agents (the paper's s·a messages;
// the deterministic election picks the executor with no extra traffic). With
// ExplicitElection the agents' states are probed first and the packet goes
// only to the chosen agent.
func (a *Agent) forwardPacket(r *replica, target model.StepID, reset []model.StepID, mech metrics.Mechanism) {
	s := r.Schema.Steps[target]
	if s == nil {
		return
	}
	elig := nav.EffectiveAgents(s, a.cfg.Agents)
	pkt := a.buildPacket(r, target, reset)
	a.site.Rec.Add(mech, 1)
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
	if r.Ins.Status != wfdb.Running {
		return
	}
	if p.Epoch > r.epoch {
		r.epoch = p.Epoch
	}
	r.coordinator = a.cfg.Name
	a.site.Rec.Add(metrics.Normal, 1)
	a.mergeFiltered(r, p.Data, p.Events, p.Epoch)
	if nav.ShouldCommit(r.Schema, r.Ins) {
		a.commitInstance(r)
		return
	}
	nav.Evaluate(r)
}

func (a *Agent) commitInstance(r *replica) {
	a.site.Rec.Add(metrics.Normal, 1)
	r.Ins.Status = wfdb.Committed
	r.Ins.Events.Post(event.WorkflowDoneName)
	a.finishInstance(r)
}

func (a *Agent) finishInstance(r *replica) {
	if a.cfg.AGDB != nil {
		a.Tx().SaveSummary(r.Ins.Workflow, r.Ins.ID, r.Ins.Status)
	}

	// Coordination clean-up at the home agent.
	if len(a.cfg.Library.Coord) > 0 {
		r.ToHome(coord.Request{Op: coord.Forget, Inst: coord.InstanceRef{Workflow: r.Ins.Workflow, ID: r.Ins.ID}})
	}

	// Nested: report to the parent step's agent.
	if p := r.Ins.Parent; p != nil && r.parentAgent != "" {
		a.Send(r.parentAgent, metrics.Normal, KindNestedResult, nestedResult{
			ParentWorkflow: p.Workflow,
			ParentInstance: p.ID,
			ParentStep:     p.Step,
			ChildWorkflow:  r.Ins.Workflow,
			ChildInstance:  r.Ins.ID,
			Committed:      r.Ins.Status == wfdb.Committed,
			Data:           maps.Clone(r.Ins.Data),
		})
	}

	if a.cfg.PurgeOnCommit {
		a.purges = append(a.purges, purgeEntry{Workflow: r.Ins.Workflow, Instance: r.Ins.ID, Status: r.Ins.Status})
	}

	// Retire the coordination replica itself: archive the full final state,
	// publish the terminal status (waking completion waiters and letting the
	// other agents retire their replicas at their next turn, message-free)
	// and drop the instance from the live table.
	a.retireReplica(r)
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
	a.site.Rec.Add(metrics.Failure, 1)
	origin, ok := r.Retry(step)
	if !ok {
		a.Send(a.coordinatorOf(r), metrics.Failure, KindWorkflowAbort, workflowAbort{Workflow: r.Ins.Workflow, Instance: r.Ins.ID})
		return
	}
	a.Send(a.executorOf(r, origin), metrics.Failure, KindWorkflowRollback, workflowRollback{
		Workflow:  r.Ins.Workflow,
		Instance:  r.Ins.ID,
		Origin:    origin,
		Epoch:     r.Rollbacks[step],
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
			a.site.Rec.Add(p.Mechanism, 1)
		} else {
			a.Logf("WorkflowRollback: %v", err)
		}
		return
	}
	if r.Ins.Status != wfdb.Running {
		return
	}
	mech := p.Mechanism
	r.epoch++
	if len(p.NewData) > 0 {
		r.Ins.MergeData(p.NewData)
		r.resetEpoch["WF"] = r.epoch // stale packets must not undo the change
	}
	all := r.Rollback(p.Origin, mech)
	r.Gate.Reset(all)
	for _, id := range all {
		r.resetEpoch[id] = r.epoch
		nav.Release(r, coord.Failed, id)
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
		r.ToHome(coord.Request{Op: coord.Rollback, Ref: model.StepRef{Workflow: p.Workflow}, Invalidated: all})
	}

	r.Persist()
	nav.Evaluate(r)
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
	// A probe must not clobber state the re-executed thread has already
	// re-established at (or after) the probe's epoch.
	set := slices.DeleteFunc(nav.InvalidationSet(r.Schema, p.Origin), func(id model.StepID) bool {
		return r.doneEpoch[id] >= p.Epoch
	})
	n := nav.ResetSteps(r.Ins, r.Rules, set)
	a.site.Rec.Add(p.Mechanism, int64(n)+1)
	r.Gate.Reset(set)
	for _, id := range set {
		r.resetEpoch[id] = r.epoch
		if a.site.Coordinated[model.StepRef{Workflow: p.Workflow, Step: id}] {
			nav.ClearMutexGrants(r.Ins, id)
		}
	}

	// Propagate to successors of steps this agent executed and forwarded.
	a.propagateHalts(r, p.Origin, p.Epoch, p.Initiator, p.Mechanism)
	r.Persist()
}

// haltSuccessorsOf sends HaltThread probes to the agents of a step's
// immediate successors (skipping this agent, whose state is already reset).
func (a *Agent) haltSuccessorsOf(r *replica, step, origin model.StepID, epoch int, initiator string, mech metrics.Mechanism) {
	for _, arc := range r.Schema.ControlSuccessors(step) {
		for _, ag := range nav.EffectiveAgents(r.Schema.Steps[arc.To], a.cfg.Agents) {
			if ag == a.cfg.Name {
				continue
			}
			a.Send(ag, mech, KindHaltThread, haltThread{
				Workflow:  r.Ins.Workflow,
				Instance:  r.Ins.ID,
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
	desc := r.Schema.Descendants(origin)
	// Sorted iteration: haltSuccessorsOf emits HaltThread probes, and map
	// order would make the probe sequence differ run to run.
	ids := make([]model.StepID, 0, len(r.Ins.Steps))
	for id, rec := range r.Ins.Steps {
		if desc[id] && rec.Agent == a.cfg.Name && rec.Attempts > 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
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
	set := r.Schema.CompSetOf(step)
	if set == nil {
		return []model.StepID{step}
	}
	topo := r.Schema.TopoOrder()
	pos := slices.Index(topo, step)
	if pos < 0 {
		return []model.StepID{step}
	}
	var later []model.StepID
	for _, id := range topo[pos+1:] {
		if !slices.Contains(set, id) {
			continue
		}
		// The rollback has already invalidated done events, so executed-at-
		// some-point is recognized by the occurrence count (which survives
		// invalidation); members already compensated are skipped. Agents in
		// the chain no-op when they hold no results, so over-inclusion is
		// safe.
		rec := r.Ins.Steps[id]
		executed := r.Ins.Events.Count(r.Schema.DoneEventOf(id)) > 0 &&
			!r.Ins.Events.Has(r.Schema.CompEventOf(id))
		if executed || (rec != nil && rec.HasResult) {
			later = append(later, id)
		}
	}
	slices.Reverse(later)
	return append(later, step)
}

// startCompensateSetChain begins the reverse-order compensation of a
// dependent set: the CompensateSet WI travels to the agent of the last
// remaining step, which compensates and forwards, ending at the origin.
func (a *Agent) startCompensateSetChain(r *replica, origin model.StepID, plan []model.StepID, mech metrics.Mechanism) {
	// plan is already in compensation order (reverse execution order, ending
	// with origin); StepList keeps that order.
	a.site.Rec.Add(mech, 1)
	a.Send(a.executorOf(r, plan[0]), mech, KindCompensateSet, compensateSet{
		Workflow:  r.Ins.Workflow,
		Instance:  r.Ins.ID,
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
		if rec := r.Ins.Steps[id]; rec != nil && rec.HasResult {
			r.Ins.RecordCompensated(id)
		} else {
			r.Ins.Events.Invalidate(r.Schema.DoneEventOf(id))
			r.Ins.Events.Post(r.Schema.CompEventOf(id))
		}
	}
	if len(p.StepList) == 0 {
		r.Persist()
		nav.Evaluate(r)
		return
	}
	step := p.StepList[0]
	rest := p.StepList[1:]
	a.site.Rec.Add(p.Mechanism, 1)

	a.compensateOwn(r, step, p.Mechanism)
	compensated := append(append([]model.StepID(nil), p.Compensated...), step)

	if len(rest) == 0 {
		// The chain is done; the origin (== step) re-executes here.
		if step == p.Origin {
			r.Recovery = p.Mechanism
			a.executeStep(r, step, model.ModeExecute, nil, nav.ResolveInputs(r.Ins, r.Schema.Steps[step]), p.Mechanism)
		}
		r.Persist()
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
	r.Persist()
}

// compensateOwn compensates a step completely if this agent holds its result,
// and reports whether it did.
func (a *Agent) compensateOwn(r *replica, step model.StepID, mech metrics.Mechanism) bool {
	rec := r.Ins.Steps[step]
	if rec == nil || !rec.HasResult || rec.Agent != a.cfg.Name {
		return false
	}
	a.compensateLocal(r, step, model.ModeCompensate, mech)
	return true
}

// compensateLocal runs a step's compensation program at this agent.
func (a *Agent) compensateLocal(r *replica, step model.StepID, mode model.ExecMode, mech metrics.Mechanism) {
	s := r.Schema.Steps[step]
	rec := r.Ins.Steps[step]
	if s == nil || rec == nil || !rec.HasResult {
		return
	}
	a.site.Rec.Add(mech, 1)
	if s.Compensation != "" && (mode == model.ModeCompensate || s.Incremental) {
		prog, ok := a.cfg.Programs.Lookup(s.Compensation)
		if ok {
			a.execCount++
			if _, err := prog(&model.ProgramContext{
				Workflow: r.Ins.Workflow,
				Instance: r.Ins.ID,
				Step:     step,
				Mode:     mode,
				Attempt:  rec.Attempts,
				Inputs:   rec.Inputs,
				Prev:     rec.Prev(),
			}); err != nil {
				a.Logf("instance %s: compensation of %s failed: %v", r.Ins.Key(), step, err)
			}
		}
	}
	if mode == model.ModeCompensate {
		r.Ins.RecordCompensated(step)
	}
}

// handleCompensateThread compensates an abandoned-branch step and forwards
// the thread until a confluence point.
func (a *Agent) handleCompensateThread(p compensateThread) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		return
	}
	a.site.Rec.Add(p.Mechanism, 1)
	if !a.compensateOwn(r, p.Step, p.Mechanism) {
		// Not executed here; drop stale knowledge so commit logic is clean.
		r.Ins.Events.Invalidate(r.Schema.DoneEventOf(p.Step))
		if rec := r.Ins.Steps[p.Step]; rec != nil && rec.Status == wfdb.StepDone {
			rec.Status = wfdb.StepPending
		}
	}
	for _, arc := range r.Schema.ControlSuccessors(p.Step) {
		if r.Schema.IsConfluence(arc.To) {
			continue // stop before the confluence point
		}
		a.Send(a.executorOf(r, arc.To), p.Mechanism, KindCompensateThread, compensateThread{
			Workflow:  p.Workflow,
			Instance:  p.Instance,
			Step:      arc.To,
			Mechanism: p.Mechanism,
		})
	}
	r.Persist()
}

// ---------------------------------------------------------------------------
// User-initiated operations at the coordination agent

// running returns the replica of a running instance, or the error a user
// operation on it gets: ErrNotRunning once it finished.
func (a *Agent) running(workflow string, id int) (*replica, error) {
	r, ok := a.replicas[replicaKey(workflow, id)]
	if !ok {
		if st, done := a.term.Status(workflow, id); done && st != wfdb.Running {
			return nil, fmt.Errorf("%w: instance %s.%d is %v", cerrors.ErrNotRunning, workflow, id, st)
		}
		return nil, fmt.Errorf("%w: %s.%d", cerrors.ErrUnknownInstance, workflow, id)
	}
	if r.Ins.Status != wfdb.Running {
		return nil, fmt.Errorf("%w: instance %s.%d is %v", cerrors.ErrNotRunning, workflow, id, r.Ins.Status)
	}
	return r, nil
}

func (a *Agent) handleWorkflowAbort(p workflowAbort) error {
	r, err := a.running(p.Workflow, p.Instance)
	if err != nil {
		return err
	}
	if r.abort != nil {
		return nil // abort already in progress
	}
	a.site.Rec.Add(metrics.Abort, 1)

	// Quiesce the threads starting from the start steps.
	r.epoch++
	for _, sid := range r.Schema.StartSteps() {
		a.haltSuccessorsOf(r, sid, sid, r.epoch, a.cfg.Name+"/abort", metrics.Abort)
	}

	// Determine the steps to compensate (schema spec or every compensable
	// step known to have executed), in reverse topological order.
	inCand := make(map[model.StepID]bool)
	for _, id := range nav.AbortCandidates(r.Schema) {
		inCand[id] = true
	}
	// The coordination agent may not know which candidates actually
	// executed (state is distributed), so it probes all eligible agents of
	// every candidate step — the paper's w·a abort messages.
	topo := r.Schema.TopoOrder()
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
			r.Ins.Status = wfdb.Aborted
			r.Ins.Events.Post(event.WorkflowAbortName)
			a.finishInstance(r)
			return
		}
		step := ab.queue[0]
		ab.queue = ab.queue[1:]
		elig := nav.EffectiveAgents(r.Schema.Steps[step], a.cfg.Agents)
		for _, ag := range elig {
			ab.pending++
			a.Send(ag, metrics.Abort, KindStepCompensate, stepCompensate{
				Workflow:  r.Ins.Workflow,
				Instance:  r.Ins.ID,
				Step:      step,
				ReplyTo:   a.cfg.Name,
				Mechanism: metrics.Abort,
			})
		}
	}
}

func (a *Agent) handleStepCompensate(p stepCompensate) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err == nil && a.compensateOwn(r, p.Step, p.Mechanism) {
		r.Persist()
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
	a.site.Rec.Add(metrics.Abort, 1)
	r.abort.pending--
	a.pumpAbort(r)
}

func (a *Agent) handleWorkflowChangeInputs(p workflowChangeInputs) error {
	r, err := a.running(p.Workflow, p.Instance)
	if err != nil {
		return err
	}
	a.site.Rec.Add(metrics.InputChange, 1)
	changed, origin := nav.InputChange(r.Schema, r.Ins, p.Inputs)
	if len(changed) == 0 {
		return nil
	}
	r.Ins.MergeData(changed)
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
	s := r.Schema.Steps[step]
	child := a.cfg.Library.Schema(s.Nested)
	if child == nil {
		a.Logf("instance %s step %s: unknown nested workflow %q", r.Ins.Key(), step, s.Nested)
		return
	}
	r.Ins.RecordExecuting(step, a.cfg.Name, inputs)
	childID := r.Ins.ID*1000 + int(r.Ins.StepRec(step).Attempts)
	a.site.Rec.Add(mech, 1)
	a.Send(a.electCoordinator(s.Nested, childID), mech, KindWorkflowStart, workflowStart{
		Workflow: s.Nested,
		Instance: childID,
		Inputs:   nav.NestedInputs(s, child, r.Ins),
		Parent: &model.StepRef{
			Workflow: r.Ins.Workflow,
			Step:     step,
		},
		ParentInst:  r.Ins.ID,
		ParentAgent: a.cfg.Name,
	})
}

func (a *Agent) handleNestedResult(p nestedResult) {
	r, ok := a.replicas[replicaKey(p.ParentWorkflow, p.ParentInstance)]
	if !ok || r.Ins.Status != wfdb.Running {
		return
	}
	a.site.Rec.Add(metrics.Normal, 1)
	if !p.Committed {
		r.Ins.RecordFailed(p.ParentStep)
		a.onStepFailure(r, p.ParentStep, metrics.Failure)
		return
	}
	var outputs map[string]expr.Value
	if child := a.cfg.Library.Schema(p.ChildWorkflow); child != nil {
		outputs = nav.NestedOutputs(r.Schema.Steps[p.ParentStep], child, p.Data)
	}
	r.Ins.RecordDone(p.ParentStep, outputs)
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
		if r.Ins.Status != wfdb.Running || r.Retired {
			continue
		}
		a.rearmUnexecuted(r)
		nav.Evaluate(r)
		// Backstop for coordination: a rollback can invalidate a grant after
		// the home issued it, so held-back steps ask again.
		for _, step := range r.Gate.Recheck() {
			nav.Admit(r, step)
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
		st, ok := a.term.Status(r.Ins.Workflow, r.Ins.ID)
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
	r.Rules.RearmWhere(func(sid model.StepID) bool {
		if r.executing[sid] {
			return false
		}
		rec := r.Ins.Steps[sid]
		return rec == nil || (rec.Status == wfdb.StepPending && !rec.HasResult)
	})
}

// reportTerminals re-sends StepCompleted for terminal steps this agent
// holds results for while the instance is still running here.
func (a *Agent) reportTerminals(r *replica) {
	coordAgent := a.coordinatorOf(r)
	if coordAgent == a.cfg.Name {
		// We are the coordination agent: just re-check commit.
		if nav.ShouldCommit(r.Schema, r.Ins) {
			a.commitInstance(r)
		}
		return
	}
	for _, tid := range r.Schema.TerminalSteps() {
		if rec := r.Ins.Steps[tid]; rec != nil && rec.HasResult && rec.Agent == a.cfg.Name {
			a.reportTerminal(r, coordAgent, tid)
		}
	}
}

// reportTerminal sends the coordination agent the replica's state after a
// terminal step (StepCompleted WI).
func (a *Agent) reportTerminal(r *replica, to string, step model.StepID) {
	a.Send(to, metrics.Normal, KindStepCompleted, stepCompleted{
		Workflow: r.Ins.Workflow,
		Instance: r.Ins.ID,
		Step:     step,
		Epoch:    r.epoch,
		Data:     maps.Clone(r.Ins.Data),
		Events:   r.Ins.Events.ValidNames(),
	})
}

// pollOverdueRules polls the eligible agents of every step whose done event
// a pending rule has been missing for longer than two sweep periods.
func (a *Agent) pollOverdueRules(r *replica, now time.Time) {
	for _, w := range r.Rules.WaitingRules(r.Ins.Events) {
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
			s := r.Schema.Steps[producer]
			if s == nil {
				continue
			}
			forStep := w.Rule.Step
			for _, ag := range nav.EffectiveAgents(s, a.cfg.Agents) {
				if ag == a.cfg.Name || !a.alive(ag) {
					continue
				}
				a.site.Rec.Add(metrics.Failure, 1)
				a.Send(ag, metrics.Failure, KindStepStatus, stepStatus{
					Workflow: r.Ins.Workflow,
					Instance: r.Ins.ID,
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
		if rec := r.Ins.Steps[p.Step]; rec != nil {
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
	if !ok || r.Ins.Status != wfdb.Running {
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
		s := r.Schema.Steps[p.Step]
		if s == nil || s.Update {
			return
		}
		if r.Ins.Events.Has(r.Schema.DoneEventOf(p.Step)) {
			return
		}
		target := nav.ElectAgent(nav.EffectiveAgents(s, a.cfg.Agents), r.Ins.Workflow, r.Ins.ID, p.Step, a.alive)
		if target == "" {
			return
		}
		pkt := a.buildPacket(r, p.Step, nil)
		a.site.Rec.Add(metrics.Failure, 1)
		a.Send(target, metrics.Failure, KindStepExecute, stepExecute{Packet: pkt, Mechanism: metrics.Failure})
	}
}
