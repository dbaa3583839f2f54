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
	case *workflowStart:
		if err := a.handleWorkflowStart(*p); err != nil {
			a.Logf("WorkflowStart: %v", err)
		}
	case *stepExecute:
		a.handleStepExecute(*p, m.From)
	case *stepCompleted:
		a.handleStepCompleted(*p)
	case *workflowRollback:
		a.handleWorkflowRollback(*p)
	case *haltThread:
		a.handleHaltThread(*p)
	case *compensateSet:
		a.handleCompensateSet(*p)
	case *compensateThread:
		a.handleCompensateThread(*p)
	case *stepCompensate:
		a.handleStepCompensate(*p)
	case *stepCompensated:
		a.handleStepCompensated(*p)
	case *workflowAbort:
		if err := a.handleWorkflowAbort(*p); err != nil {
			a.Logf("WorkflowAbort: %v", err)
		}
	case *workflowChangeInputs:
		if err := a.handleWorkflowChangeInputs(*p); err != nil {
			a.Logf("WorkflowChangeInputs: %v", err)
		}
	case *stepStatus:
		a.handleStepStatus(*p)
	case *stepStatusReply:
		a.handleStepStatusReply(*p)
	case *stateInformation:
		a.Send(p.ReplyTo, metrics.Normal, "StateResponse", &stateInformationReply{Agent: a.cfg.Name, Load: a.execCount})
	case *stateInformationReply:
		// The election is deterministic: the explicit election's probe
		// replies are counted traffic and choose nothing.
	case *nestedResult:
		a.handleNestedResult(*p)
	default:
		if !coord.Dispatch(p, a) {
			a.Logf("unhandled payload %T", p)
		}
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
	if pkt == nil {
		// The wire allows a StepExecute without a packet (its presence
		// byte), and no sender writes one.
		a.Logf("StepExecute from %s without a packet", from)
		return
	}
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
			r.markReset(id, r.epoch)
		}
	}
	a.mergeFiltered(r, pkt.Data, pkt.Events, pkt.Epoch)
	// Anti-entropy: a sender operating at an older epoch has missed a
	// rollback; tell it to catch up so its threads quiesce and re-execute.
	if pkt.Epoch < r.epoch && r.lastHalt != nil && from != "" && from != a.cfg.Name {
		h := *r.lastHalt
		a.Send(from, h.Mechanism, KindHaltThread, &h)
	}
	nav.Evaluate(r)
	r.Persist()
}

// mergeFiltered merges incoming state per step: entries belonging to a step
// that was reset at a later epoch than the sender's view are stale and
// skipped; everything else merges. The step of a data item is its name
// prefix ("S2" of "S2.O1"); events name their step directly. A sender at or
// above resetMax is stale for no step, and its entries are not looked up. A
// step whose done event merges is marked done in the replica's step table
// (knowledge of a step executed elsewhere). Every other writer of a done
// event records the step done as well, so a done event the replica holds
// already has its record (TestDoneEventsHaveDoneRecords), and at epoch 0
// there is nothing more to learn from it. Mutex grants do not merge: the
// home injects each one into every replica eligible for its step, so another
// replica's copy can only be stale. The incoming maps and slices are only
// read; a packet is shared by all its recipients.
func (a *Agent) mergeFiltered(r *replica, data map[string]expr.Value, events []string, senderEpoch int) {
	filter := senderEpoch < r.resetMax
	for k, v := range data {
		if filter {
			if stepName, _, ok := strings.Cut(k, "."); ok && senderEpoch < r.resetEpoch[model.StepID(stepName)] {
				continue // stale; includes "WF": inputs changed at a later epoch
			}
		}
		if old, exists := r.Ins.Data[k]; !exists || !old.Equal(v) {
			r.Ins.Data[k] = v
		}
	}
	for _, name := range events {
		held := r.Ins.Events.Has(name)
		if held && senderEpoch == 0 {
			continue
		}
		sid := event.StepOfDone(name)
		if sid == "" {
			if !held && !coord.IsGrant(name) {
				r.Ins.Events.Post(name)
			}
			continue
		}
		id := model.StepID(sid)
		if filter && senderEpoch < r.resetEpoch[id] {
			continue
		}
		r.markDone(id, senderEpoch)
		if held {
			continue
		}
		r.Ins.Events.Post(name)
		if r.Schema.Steps[id] != nil {
			if rec := r.Ins.StepRec(id); rec.Status == wfdb.StepPending || rec.Status == wfdb.StepCompensated {
				rec.Status = wfdb.StepDone
			}
		}
	}
}

// markReset records that the rollback of epoch reset step. An entry and
// resetMax only grow. A HaltThread passes its own epoch, not the replica's:
// a rollback of a later epoch that did not reset the step must not make the
// probe's re-executed thread look stale, or that thread's StepCompleted is
// dropped and the instance never commits.
func (r *replica) markReset(step model.StepID, epoch int) {
	if epoch > r.resetEpoch[step] {
		put(&r.resetEpoch, step, epoch)
	}
	r.resetMax = max(r.resetMax, epoch)
}

// markDone records that step's done state holds as of epoch. An entry only
// grows, and none is written for epoch 0, which no HaltThread probe carries.
func (r *replica) markDone(step model.StepID, epoch int) {
	if epoch > r.doneEpoch[step] {
		put(&r.doneEpoch, step, epoch)
	}
}

// put sets (*m)[k] = v, making the map at its first write.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// Navigation: the agent's side of the core (nav.Owner). The agent runs a
// step itself, synchronously, and forwards packets; a revisit compensates
// locally or drives a CompensateSet chain.

// Stopped: an agent navigates while its coordination agent aborts; the abort
// protocol quiesces the threads.
func (r *replica) Stopped() bool { return false }

// MayRun admits a step whose executor this agent is elected to be.
func (r *replica) MayRun(step model.StepID) bool {
	return r.a.executorOf(r, step) == r.a.cfg.Name
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
	r.markDone(step, r.epoch)
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

// Settle is the one place a distributed instance commits: at its coordination
// agent, once every reachable terminal step ran, and never during an abort.
// It runs after every pass of the rule loop, so a StepCompleted commits
// through the Evaluate that follows its merge. The checks run cheapest
// first: a replica that knows another coordinator stops at a compare, and
// the election runs only once the commit condition holds.
func (r *replica) Settle() {
	a := r.a
	if r.Retired || r.abort != nil || r.coordinator != "" && r.coordinator != a.cfg.Name {
		return
	}
	if !nav.ShouldCommit(r.Schema, r.Ins) || a.coordinatorOf(r) != a.cfg.Name {
		return
	}
	a.site.Rec.Add(metrics.Normal, 1)
	r.Ins.Status = wfdb.Committed
	r.Ins.Events.Post(event.WorkflowDoneName)
	a.finishInstance(r)
}

// executeStep runs the step program synchronously on inputs, the step's
// inputs as resolved from the replica, and navigates onward. Nothing guards
// the step against a second start while its program runs: the call is made
// inside the agent's turn, so no message, sweep or command of this agent can
// reach MayRun before it returns, and by then the step's record is done or
// failed.
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
	if err != nil {
		r.Ins.RecordFailed(step)
		nav.Release(r, coord.Failed, step)
		a.onStepFailure(r, step, metrics.Failure)
		return
	}
	r.Ins.RecordDone(step, out)
	r.Done(step, mech)
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
			a.Send(a.executorOf(r, arc.To), mech, KindCompensateThread, &compensateThread{
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
		a.Send(a.coordinatorOf(r), metrics.Normal, KindStepCompleted, &stepCompleted{
			Workflow: r.Ins.Workflow,
			Instance: r.Ins.ID,
			Step:     step,
			Epoch:    r.epoch,
			Data:     maps.Clone(r.Ins.Data),
			Events:   r.Ins.Events.ValidNames(),
		})
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
			if ag != a.cfg.Name && a.cfg.Alive(ag) {
				a.Send(ag, mech, KindStateInformation, &stateInformation{ReplyTo: a.cfg.Name})
			}
		}
		chosen := a.executorOf(r, target)
		if chosen == "" {
			chosen = a.cfg.Name
		}
		a.Send(chosen, mech, KindStepExecute, &stepExecute{Packet: pkt, Mechanism: mech})
		return
	}
	// One packet for every recipient: it is a snapshot nobody writes again
	// (the sender keeps no reference, receivers only read it).
	for _, ag := range elig {
		a.Send(ag, mech, KindStepExecute, &stepExecute{Packet: pkt, Mechanism: mech})
	}
}

// ---------------------------------------------------------------------------
// Commit path

// handleStepCompleted merges a terminal step's report at the coordination
// agent; the Evaluate that follows ends in Settle, which commits. The merge
// is persisted in this turn: across processes the delivery is acknowledged
// once the turn ends and is never replayed, and nothing re-sends the report,
// so a coordination agent killed before the other terminals report must find
// this one in its row.
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
	r.Persist()
	nav.Evaluate(r)
}

func (a *Agent) finishInstance(r *replica) {
	// Coordination clean-up at the home agent.
	if len(a.cfg.Library.Coord) > 0 {
		r.ToHome(coord.Request{Op: coord.Forget, Inst: coord.InstanceRef{Workflow: r.Ins.Workflow, ID: r.Ins.ID}})
	}

	// Nested: report to the parent step's agent.
	if p := r.Ins.Parent; p != nil && r.parentAgent != "" {
		a.Send(r.parentAgent, metrics.Normal, KindNestedResult, &nestedResult{
			ParentWorkflow: p.Workflow,
			ParentInstance: p.ID,
			ParentStep:     p.Step,
			ChildWorkflow:  r.Ins.Workflow,
			ChildInstance:  r.Ins.ID,
			Committed:      r.Ins.Status == wfdb.Committed,
			Data:           maps.Clone(r.Ins.Data),
		})
	}

	// Retire the coordination replica itself: archive the full final state,
	// publish the terminal status (waking completion waiters and letting the
	// other agents retire their replicas at their next turn, message-free)
	// and drop the instance from the live table.
	a.retireReplica(r)
}

// ---------------------------------------------------------------------------
// Failure handling

// onStepFailure applies the failure-handling specification at the agent
// where the step failed.
func (a *Agent) onStepFailure(r *replica, step model.StepID, mech metrics.Mechanism) {
	a.site.Rec.Add(metrics.Failure, 1)
	origin, ok := r.Retry(step)
	if !ok {
		a.Send(a.coordinatorOf(r), metrics.Failure, KindWorkflowAbort, &workflowAbort{Workflow: r.Ins.Workflow, Instance: r.Ins.ID})
		return
	}
	a.Send(a.executorOf(r, origin), metrics.Failure, KindWorkflowRollback, &workflowRollback{
		Workflow:  r.Ins.Workflow,
		Instance:  r.Ins.ID,
		Origin:    origin,
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
	r.epoch = a.nextEpoch(r.epoch)
	if len(p.NewData) > 0 {
		r.Ins.MergeData(p.NewData)
		r.markReset("WF", r.epoch) // stale packets must not undo the change
	}
	all := r.Rollback(p.Origin, mech)
	for _, id := range all {
		r.markReset(id, r.epoch)
	}
	nav.Reset(r, all)

	r.lastHalt = &haltThread{
		Workflow:  p.Workflow,
		Instance:  p.Instance,
		Origin:    p.Origin,
		Epoch:     r.epoch,
		Mechanism: mech,
	}

	// Halt the affected threads: probe the agents of the origin's successor
	// steps, and of the successors of every affected step this agent itself
	// executed and forwarded packets from; the probes propagate onward
	// agent to agent.
	a.haltSuccessorsOf(r, p.Origin, p.Origin, r.epoch, mech)
	a.propagateHalts(r, p.Origin, r.epoch, mech)

	// Rollback dependencies are resolved at the coordination home agent.
	if a.hasRollbackDep {
		r.ToHome(coord.Request{Op: coord.Rollback, Ref: model.StepRef{Workflow: p.Workflow}, Invalidated: all})
	}

	r.Persist()
	nav.Evaluate(r)
}

// handleHaltThread quiesces the local thread state for a rollback and
// propagates the probe to agents of steps this agent forwarded packets to.
// A flood is handled once per origin and epoch, and one below the highest
// handled for its origin not at all: two rollbacks to one origin are handled
// by its executor one after the other, so the later has the larger epoch,
// and the earlier one's probe would reset nothing the later left standing.
func (a *Agent) handleHaltThread(p haltThread) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err != nil {
		return
	}
	if r.handledHalts[p.Origin] >= p.Epoch {
		return
	}
	put(&r.handledHalts, p.Origin, p.Epoch)
	if p.Epoch > r.epoch {
		r.epoch = p.Epoch
	}
	if r.lastHalt == nil || p.Epoch >= r.lastHalt.Epoch {
		cp := p
		r.lastHalt = &cp
	}
	// A probe must not clobber state the re-executed thread has already
	// re-established at (or after) the probe's epoch. The set is the
	// schema's, and only read unless there are done epochs to filter by.
	set := nav.InvalidationSet(r.Schema, p.Origin)
	if len(r.doneEpoch) > 0 {
		set = slices.DeleteFunc(slices.Clone(set), func(id model.StepID) bool {
			return r.doneEpoch[id] >= p.Epoch
		})
	}
	n := nav.ResetSteps(r.Ins, r.Rules, set)
	a.site.Rec.Add(p.Mechanism, int64(n)+1)
	for _, id := range set {
		r.markReset(id, p.Epoch)
	}
	nav.Reset(r, set)

	// Propagate to successors of steps this agent executed and forwarded.
	a.propagateHalts(r, p.Origin, p.Epoch, p.Mechanism)
	r.Persist()
	if r.settled(&p) { // the re-executed thread's packet overtook the probe
		nav.Evaluate(r)
	}
}

// settled reports whether the packet of rollback h's re-executed origin has
// reached the replica (h nil: no rollback). Before it, a rule h's probe
// re-armed would fire on the origin's stale outputs; the packet evaluates.
func (r *replica) settled(h *haltThread) bool {
	return h == nil || r.doneEpoch[h.Origin] >= h.Epoch
}

// haltSuccessorsOf sends HaltThread probes to the agents of a step's
// immediate successors (skipping this agent, whose state is already reset).
func (a *Agent) haltSuccessorsOf(r *replica, step, origin model.StepID, epoch int, mech metrics.Mechanism) {
	for _, arc := range r.Schema.ControlSuccessors(step) {
		for _, ag := range nav.EffectiveAgents(r.Schema.Steps[arc.To], a.cfg.Agents) {
			if ag == a.cfg.Name {
				continue
			}
			a.Send(ag, mech, KindHaltThread, &haltThread{
				Workflow:  r.Ins.Workflow,
				Instance:  r.Ins.ID,
				Origin:    origin,
				Step:      arc.To,
				Epoch:     epoch,
				Mechanism: mech,
			})
		}
	}
}

// propagateHalts forwards HaltThread probes along the threads this agent
// itself drove: for every affected step it executed (and therefore forwarded
// packets from), the agents of that step's successors are probed.
func (a *Agent) propagateHalts(r *replica, origin model.StepID, epoch int, mech metrics.Mechanism) {
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
		a.haltSuccessorsOf(r, id, origin, epoch, mech)
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
	a.Send(a.executorOf(r, plan[0]), mech, KindCompensateSet, &compensateSet{
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
	a.Send(a.executorOf(r, rest[0]), p.Mechanism, KindCompensateSet, &compensateSet{
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
		a.Send(a.executorOf(r, arc.To), p.Mechanism, KindCompensateThread, &compensateThread{
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
	r.epoch = a.nextEpoch(r.epoch)
	for _, sid := range r.Schema.StartSteps() {
		a.haltSuccessorsOf(r, sid, sid, r.epoch, metrics.Abort)
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
// the abort queue and waits for their acknowledgements; once the queue is
// empty it finishes the instance, once. The coordination agent may be one of
// the eligible agents, and the StepCompensated it sends itself comes back
// inside the loop below: every agent is counted before the first send, so
// that reply cannot empty pending while others are outstanding, and the
// handler's call returns at once, leaving the loop to move on.
func (a *Agent) pumpAbort(r *replica) {
	ab := r.abort
	if ab.pumping {
		return
	}
	ab.pumping = true
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
		ab.pending = len(elig)
		for _, ag := range elig {
			a.Send(ag, metrics.Abort, KindStepCompensate, &stepCompensate{
				Workflow:  r.Ins.Workflow,
				Instance:  r.Ins.ID,
				Step:      step,
				ReplyTo:   a.cfg.Name,
				Mechanism: metrics.Abort,
			})
		}
	}
	ab.pumping = false
}

func (a *Agent) handleStepCompensate(p stepCompensate) {
	r, err := a.getReplica(p.Workflow, p.Instance)
	if err == nil && a.compensateOwn(r, p.Step, p.Mechanism) {
		r.Persist()
	}
	a.Send(p.ReplyTo, p.Mechanism, KindStepCompensated, &stepCompensated{
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
	r.epoch = a.nextEpoch(r.epoch)
	r.markReset("WF", r.epoch)
	if origin == "" {
		return nil
	}
	a.Send(a.executorOf(r, origin), metrics.InputChange, KindWorkflowRollback, &workflowRollback{
		Workflow:  p.Workflow,
		Instance:  p.Instance,
		Origin:    origin,
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
	a.Send(a.electCoordinator(s.Nested, childID), mech, KindWorkflowStart, &workflowStart{
		Workflow: s.Nested,
		Instance: childID,
		Inputs:   nav.NestedInputs(s, child, r.Ins),
		Parent: &model.StepRef{
			Workflow: r.Ins.Workflow,
			Step:     step,
		},
		ParentInst:  r.Ins.ID,
		ParentAgent: a.cfg.Name,
		// In agent processes the front end hears of the child too, and the
		// hub relays what it hears to every process.
		ReplyTo: a.cfg.Notify,
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

// sweep is the agent's periodic pass: it retires the replicas of finished
// instances and polls StepStatus for events missing too long (the paper's
// predecessor-failure detection). It arms, evaluates and commits nothing.
func (a *Agent) sweep() {
	a.sweepWakeups.Add(1)
	a.retireFinished()
	now := time.Now()
	for _, r := range a.sortedReplicas(nil) {
		if r.Ins.Status != wfdb.Running || r.Retired {
			continue
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

// LivenessChanged is told that node name crashed or came back, once the
// agent's liveness view says so. Rules are edge-triggered and the executor
// election is alive-aware, so a rule that fired while another agent won the
// election is spent. Each running replica re-arms the rules of steps that
// never started executing anywhere this agent can see (failure and
// compensation are the rollback path's) and, once settled, evaluates: the
// new winner runs the step, and the election gate and the coordination dedup
// keep the retry idempotent for everyone else. A respawned home (every
// recovery across processes, none in process) has forgotten its queues and
// grants, so each held step withdraws and asks again.
func (a *Agent) LivenessChanged(name string, respawned bool) {
	a.DoAsync(func() {
		a.retireFinished()
		for _, r := range a.sortedReplicas(nil) {
			if r.Retired || r.Ins.Status != wfdb.Running {
				continue
			}
			if respawned && name == a.homeNode {
				held := r.Gate.Blocked()
				nav.Reset(r, held)
				for _, step := range held {
					nav.Admit(r, step)
				}
			}
			r.Rules.RearmWhere(func(sid model.StepID) bool {
				rec := r.Ins.Steps[sid]
				return rec == nil || (rec.Status == wfdb.StepPending && !rec.HasResult)
			})
			if r.settled(r.lastHalt) {
				nav.Evaluate(r)
			}
		}
	})
}

// waitKey is a rule's wait for a done event, which ends when it is posted.
type waitKey struct {
	rule, event string
	posts       int
}

// pollOverdueRules polls, once per wait, the eligible agents of a step whose
// done event a rule has been missing for over two sweep periods.
func (a *Agent) pollOverdueRules(r *replica, now time.Time) {
	maps.DeleteFunc(r.waits, func(k waitKey, _ time.Time) bool { return r.Ins.Events.Count(k.event) != k.posts })
	for _, w := range r.Rules.WaitingRules(r.Ins.Events) {
		for _, missing := range w.Missing {
			sid := event.StepOfDone(missing)
			if sid == "" {
				continue
			}
			key := waitKey{w.Rule.ID, missing, r.Ins.Events.Count(missing)}
			since, seen := r.waits[key]
			if !seen {
				put(&r.waits, key, now)
				continue
			}
			if since.IsZero() || now.Sub(since) < 2*a.cfg.sweepPeriod {
				continue
			}
			r.waits[key] = time.Time{} // polled
			producer := model.StepID(sid)
			s := r.Schema.Steps[producer]
			if s == nil {
				continue
			}
			for _, ag := range nav.EffectiveAgents(s, a.cfg.Agents) {
				if ag == a.cfg.Name || !a.cfg.Alive(ag) {
					continue
				}
				a.site.Rec.Add(metrics.Failure, 1)
				a.Send(ag, metrics.Failure, KindStepStatus, &stepStatus{
					Workflow: r.Ins.Workflow,
					Instance: r.Ins.ID,
					Step:     producer,
					ForStep:  w.Rule.Step,
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
		if rec := r.Ins.Steps[p.Step]; rec != nil && rec.HasResult && rec.Agent == a.cfg.Name {
			status = "done"
		}
	}
	a.Send(p.ReplyTo, metrics.Failure, KindStepStatusReply, &stepStatusReply{
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
		a.Send(p.ReplyTo, metrics.Failure, KindStepExecute, &stepExecute{Packet: pkt, Mechanism: metrics.Failure})
	}
}

func (a *Agent) handleStepStatusReply(p stepStatusReply) {
	r, ok := a.replicas[replicaKey(p.Workflow, p.Instance)]
	if !ok || r.Ins.Status != wfdb.Running || p.Status == "done" {
		return // a "done" responder's packet re-send unblocks us
	}
	// If the producing step is a query, re-execute it at an available
	// eligible agent; update steps must wait for the failed agent.
	s := r.Schema.Steps[p.Step]
	if s == nil || s.Update || r.Ins.Events.Has(r.Schema.DoneEventOf(p.Step)) {
		return
	}
	target := nav.ElectAgent(nav.EffectiveAgents(s, a.cfg.Agents), r.Ins.Workflow, r.Ins.ID, p.Step, a.cfg.Alive)
	if target == "" {
		return
	}
	pkt := a.buildPacket(r, p.Step, nil)
	a.site.Rec.Add(metrics.Failure, 1)
	a.Send(target, metrics.Failure, KindStepExecute, &stepExecute{Packet: pkt, Mechanism: metrics.Failure})
}
