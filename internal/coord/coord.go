// Package coord implements the coordinated-execution requirements across
// concurrent workflows: relative ordering, mutual exclusion, and rollback
// dependencies. The paper has one mechanism for them, placed three ways, and
// so does this package:
//
//   - Tracker is the pure decision core: the relative-order queues, the mutex
//     queues and the rollback-dependency registry of a library's specs.
//   - Home owns the tracker and the tombstones of finished instances. It takes
//     a Request (Check, Done, Failed, Rollback, Forget) and speaks only
//     through its Host: a Resolve to the requester, Injections to waiting
//     instances, RollbackOrders to dependent classes. The paper's names for
//     these are AddRule, AddPrecondition and AddEvent.
//   - Gate is the waiter's side, one per instance: which coordinated steps
//     have asked the home, what it answered, which are held back.
//   - Request, Resolve, Inject and Order are the protocol's four payloads,
//     registered with the transport here; Dispatch hands a received one to
//     the Node it reached.
//
// An architecture supplies only placement: which node holds the Home, how a
// request reaches it (a call in the centralized engine, a message between
// engines in the parallel one, an AddRule message between agents in the
// distributed one), how an injection finds the instance, and which load units
// the requester's side charges. Nothing in this package knows which of the
// three it is running under.
//
// Relative ordering follows the paper's Figure 4 protocol: the first pair of
// conflicting steps is ordered by whichever instance the home grants its
// member first, establishing a leading and a lagging workflow; every later
// conflicting pair must then execute in the same relative order, enforced by
// making the lagging step's rule wait for an injected event from the leading
// workflow. A step runs only after its grant, so two pair-0 executions that
// did not overlap are ordered as they ran.
package coord

import (
	"fmt"
	"slices"
	"strings"

	"crew/internal/binenc"
	"crew/internal/model"
)

// InstanceRef identifies a workflow instance.
type InstanceRef struct {
	Workflow string
	ID       int
}

// String renders WF.id.
func (r InstanceRef) String() string { return fmt.Sprintf("%s.%d", r.Workflow, r.ID) }

// Walk is the reference's wire form.
func (r *InstanceRef) Walk(w *binenc.Walker) {
	w.String(&r.Workflow)
	w.Int(&r.ID)
}

// Injection is an event to inject into another instance's event table (the
// AddEvent() call the caller must perform, locally or via a message).
type Injection struct {
	Target InstanceRef
	Event  string
	// Step names the step of the target instance whose rule waits on the
	// event, when known. Distributed control uses it to route the AddEvent
	// message to the agents eligible for that step; architectures with a
	// single state holder per instance ignore it.
	Step model.StepID
}

// RollbackOrder instructs the caller to roll a dependent workflow class back
// to a target step (applied to that class's running instances).
type RollbackOrder struct {
	TargetWorkflow string
	TargetStep     model.StepID
}

// Walk is the order's wire form.
func (o *RollbackOrder) Walk(w *binenc.Walker) {
	w.String(&o.TargetWorkflow)
	o.TargetStep.Walk(w)
}

// OrderEventName is the event a lagging instance waits on: "the leading
// instance completed its pair-k step".
func OrderEventName(specName string, pair int, leader InstanceRef) string {
	return fmt.Sprintf("ro:%s:%d:%s", specName, pair, leader)
}

// GrantEventName is the event that grants a mutex to an instance's step.
func GrantEventName(specName string, ref InstanceRef, step model.StepID) string {
	return fmt.Sprintf("mx:%s:%s:%s", specName, ref, step)
}

// IsGrant reports whether an event is a mutex grant.
func IsGrant(event string) bool { return strings.HasPrefix(event, "mx:") }

// roState tracks one relative-order spec: the enrollment queue and which
// pair-steps each enrolled instance has completed.
type roState struct {
	queue []InstanceRef
	pos   map[InstanceRef]int
	done  map[InstanceRef]map[int]bool
}

// muState tracks one mutex spec: the current holder and FIFO waiters.
type muState struct {
	held    bool
	holder  InstanceRef
	holding model.StepID
	waiters []muWaiter
}

type muWaiter struct {
	ref  InstanceRef
	step model.StepID
}

// Tracker holds the runtime coordination state for a library's specs. It is
// not safe for concurrent use; each owner serializes access (the central
// engine goroutine, or a spec's home node).
type Tracker struct {
	specs []model.CoordSpec
	ro    map[int]*roState
	mu    map[int]*muState
}

// NewTracker builds a tracker for the library's coordination specs.
func NewTracker(lib *model.Library) *Tracker {
	t := &Tracker{
		specs: append([]model.CoordSpec(nil), lib.Coord...),
		ro:    make(map[int]*roState),
		mu:    make(map[int]*muState),
	}
	for i, c := range t.specs {
		switch c.Kind {
		case model.RelativeOrder:
			t.ro[i] = &roState{pos: make(map[InstanceRef]int), done: make(map[InstanceRef]map[int]bool)}
		case model.Mutex:
			t.mu[i] = &muState{}
		}
	}
	return t
}

// pairIndex returns which conflict pair (if any) of spec i the step belongs
// to, or -1.
func (t *Tracker) pairIndex(i int, ref model.StepRef) int {
	for k, p := range t.specs[i].Pairs {
		if p.A == ref || p.B == ref {
			return k
		}
	}
	return -1
}

// pairStepFor returns the pair-k member belonging to the given workflow
// class, so the tracker can tell which step a queued instance must complete.
func pairStepFor(spec model.CoordSpec, k int, workflow string) (model.StepID, bool) {
	p := spec.Pairs[k]
	if p.A.Workflow == workflow {
		return p.A.Step, true
	}
	if p.B.Workflow == workflow {
		return p.B.Step, true
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Relative ordering

// OrderWait reports what the instance must wait for before executing the
// given step. If the step is a pair-k member (k >= 1) of a relative-order
// spec and the instance's predecessor in the spec's queue has not yet
// completed its own pair-k step, OrderWait returns the event name the
// caller must add as a precondition (AddPrecondition).
//
// Instances that have not enrolled (not yet granted a pair-0 step) never
// wait: the first conflicting pair *establishes* the order.
func (t *Tracker) OrderWait(ref model.StepRef, inst InstanceRef) (events []string) {
	for i, spec := range t.specs {
		if spec.Kind != model.RelativeOrder {
			continue
		}
		k := t.pairIndex(i, ref)
		if k < 1 {
			continue
		}
		st := t.ro[i]
		pos, enrolled := st.pos[inst]
		if !enrolled || pos == 0 {
			continue
		}
		pred := st.queue[pos-1]
		if st.done[pred][k] {
			continue
		}
		events = append(events, OrderEventName(spec.Name, k, pred))
	}
	return events
}

// OrderEnroll enrolls the instance in the queue of every relative-order spec
// of which the step is a pair-0 member, when the home grants the step: grant
// order is queue order. A place, once taken, is kept until OrderForget: a
// pair-0 attempt that fails or is reset keeps it, since the instance's other
// branches may run its later pairs in it meanwhile.
func (t *Tracker) OrderEnroll(ref model.StepRef, inst InstanceRef) {
	for i, spec := range t.specs {
		if spec.Kind == model.RelativeOrder && t.pairIndex(i, ref) == 0 {
			t.ro[i].enroll(inst)
		}
	}
}

func (st *roState) enroll(inst InstanceRef) {
	if _, enrolled := st.pos[inst]; !enrolled {
		st.pos[inst] = len(st.queue)
		st.queue = append(st.queue, inst)
		st.done[inst] = make(map[int]bool)
	}
}

// OrderStepDone records completion of a step for relative ordering and
// returns the injections to deliver: for a pair-k completion (k >= 1), the
// successor instance in the queue (if any) receives the order event it may
// be waiting on. Nobody waits on pair 0. An instance completing a pair-0
// step the home has not granted it (a home restarted without its queues)
// enrolls now.
func (t *Tracker) OrderStepDone(ref model.StepRef, inst InstanceRef) []Injection {
	var out []Injection
	for i, spec := range t.specs {
		if spec.Kind != model.RelativeOrder {
			continue
		}
		k := t.pairIndex(i, ref)
		if k < 0 {
			continue
		}
		st := t.ro[i]
		if _, enrolled := st.pos[inst]; !enrolled {
			if k != 0 {
				continue // later pair without enrollment: spec starts at pair 0
			}
			st.enroll(inst)
		}
		st.done[inst][k] = true
		// Notify the successor instance, if enrolled, that its wait for
		// this pair is satisfied.
		pos := st.pos[inst]
		if k > 0 && pos+1 < len(st.queue) {
			out = append(out, release(spec, k, inst, st.queue[pos+1]))
		}
	}
	return out
}

// release is the injection that satisfies succ's wait for inst's pair k.
func release(spec model.CoordSpec, k int, inst, succ InstanceRef) Injection {
	inj := Injection{Target: succ, Event: OrderEventName(spec.Name, k, inst)}
	if step, ok := pairStepFor(spec, k, succ.Workflow); ok {
		inj.Step = step
	}
	return inj
}

// OrderQueue returns the enrollment queue of a relative-order spec.
func (t *Tracker) OrderQueue(specName string) []InstanceRef {
	for i, spec := range t.specs {
		if spec.Kind == model.RelativeOrder && spec.Name == specName {
			return append([]InstanceRef(nil), t.ro[i].queue...)
		}
	}
	return nil
}

// OrderForget removes a terminated instance from all relative-order queues.
// Later instances' waits against it are satisfied by injections for every
// pair, as a vanished leader must not block the queue.
func (t *Tracker) OrderForget(inst InstanceRef) []Injection {
	var out []Injection
	for i, spec := range t.specs {
		if spec.Kind != model.RelativeOrder {
			continue
		}
		st := t.ro[i]
		pos, ok := st.pos[inst]
		if !ok {
			continue
		}
		// Release the successor from all pair waits on this instance.
		for k := 1; k < len(spec.Pairs) && pos+1 < len(st.queue); k++ {
			if !st.done[inst][k] {
				out = append(out, release(spec, k, inst, st.queue[pos+1]))
			}
		}
		// Compact the queue.
		st.queue = append(st.queue[:pos], st.queue[pos+1:]...)
		delete(st.pos, inst)
		delete(st.done, inst)
		for j := pos; j < len(st.queue); j++ {
			st.pos[st.queue[j]] = j
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Mutual exclusion

// mutexSpecsFor returns the indices of mutex specs containing the step.
func (t *Tracker) mutexSpecsFor(ref model.StepRef) []int {
	var out []int
	for i, spec := range t.specs {
		if spec.Kind != model.Mutex {
			continue
		}
		for _, r := range spec.MutexSteps {
			if r == ref {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// MutexAcquire requests the mutexes covering a step for an instance. It
// returns the grant injections that are immediately available; if the step
// needs a lock that is held, the instance is queued and the grant arrives
// from a later MutexRelease. The caller gates step execution on having
// received grants for all returned waitEvents.
func (t *Tracker) MutexAcquire(ref model.StepRef, inst InstanceRef) (grants []Injection, waitEvents []string) {
	for _, i := range t.mutexSpecsFor(ref) {
		spec := t.specs[i]
		st := t.mu[i]
		ev := GrantEventName(spec.Name, inst, ref.Step)
		waitEvents = append(waitEvents, ev)
		if !st.held {
			st.held = true
			st.holder = inst
			st.holding = ref.Step
			grants = append(grants, Injection{Target: inst, Event: ev, Step: ref.Step})
			continue
		}
		if st.holder == inst && st.holding == ref.Step {
			grants = append(grants, Injection{Target: inst, Event: ev, Step: ref.Step})
			continue
		}
		queued := false
		for _, w := range st.waiters {
			if w.ref == inst && w.step == ref.Step {
				queued = true
				break
			}
		}
		if !queued {
			st.waiters = append(st.waiters, muWaiter{ref: inst, step: ref.Step})
		}
	}
	return grants, waitEvents
}

// MutexRelease releases the mutexes covering a step, or gives up the
// instance's place in their queues, and returns grant injections for the
// next waiters.
func (t *Tracker) MutexRelease(ref model.StepRef, inst InstanceRef) []Injection {
	var out []Injection
	for _, i := range t.mutexSpecsFor(ref) {
		spec := t.specs[i]
		st := t.mu[i]
		st.waiters = slices.DeleteFunc(st.waiters, func(w muWaiter) bool { return w.ref == inst && w.step == ref.Step })
		if !st.held || st.holder != inst || st.holding != ref.Step {
			continue
		}
		if len(st.waiters) == 0 {
			st.held = false
			st.holder = InstanceRef{}
			st.holding = ""
			continue
		}
		next := st.waiters[0]
		st.waiters = st.waiters[1:]
		st.holder = next.ref
		st.holding = next.step
		out = append(out, Injection{Target: next.ref, Event: GrantEventName(spec.Name, next.ref, next.step), Step: next.step})
	}
	return out
}

// MutexForget releases any mutexes held by a terminated instance and drops
// it from waiter queues.
func (t *Tracker) MutexForget(inst InstanceRef) []Injection {
	var out []Injection
	for i, spec := range t.specs {
		if spec.Kind != model.Mutex {
			continue
		}
		st := t.mu[i]
		// Drop from waiters.
		kept := st.waiters[:0]
		for _, w := range st.waiters {
			if w.ref != inst {
				kept = append(kept, w)
			}
		}
		st.waiters = kept
		if st.held && st.holder == inst {
			out = append(out, t.MutexRelease(model.StepRef{Workflow: inst.Workflow, Step: st.holding}, inst)...)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Rollback dependency

// RollbackTriggered reports the rollback orders caused by invalidating the
// given steps of one instance during a rollback: for every rollback-
// dependency spec whose trigger is among the invalidated steps, dependent
// workflow classes must roll back to their target step.
func (t *Tracker) RollbackTriggered(workflow string, invalidated []model.StepID) []RollbackOrder {
	inv := make(map[model.StepID]bool, len(invalidated))
	for _, id := range invalidated {
		inv[id] = true
	}
	var out []RollbackOrder
	for _, spec := range t.specs {
		if spec.Kind != model.RollbackDep {
			continue
		}
		if spec.Trigger.Workflow == workflow && inv[spec.Trigger.Step] {
			out = append(out, RollbackOrder{
				TargetWorkflow: spec.Target.Workflow,
				TargetStep:     spec.Target.Step,
			})
		}
	}
	return out
}

// CoordinatedSteps returns all step refs mentioned by any spec; agents use
// it to know which steps carry coordination work (the paper's me+ro+rd).
func (t *Tracker) CoordinatedSteps() map[model.StepRef]bool {
	out := make(map[model.StepRef]bool)
	for _, spec := range t.specs {
		switch spec.Kind {
		case model.Mutex:
			for _, r := range spec.MutexSteps {
				out[r] = true
			}
		case model.RelativeOrder:
			for _, p := range spec.Pairs {
				out[p.A] = true
				out[p.B] = true
			}
		case model.RollbackDep:
			out[spec.Trigger] = true
			out[spec.Target] = true
		}
	}
	return out
}

// MutexDebug renders the mutex state of every mutex spec, for diagnostics.
func (t *Tracker) MutexDebug() []string {
	var out []string
	for i, spec := range t.specs {
		if spec.Kind != model.Mutex {
			continue
		}
		st := t.mu[i]
		line := fmt.Sprintf("%s held=%v holder=%s holding=%s waiters=[", spec.Name, st.held, st.holder, st.holding)
		for j, w := range st.waiters {
			if j > 0 {
				line += " "
			}
			line += w.ref.String() + ":" + string(w.step)
		}
		out = append(out, line+"]")
	}
	return out
}
