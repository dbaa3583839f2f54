package coord

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"crew/internal/model"
)

// Op says what a Request asks of the home.
type Op uint8

const (
	// Check asks what Ref must wait for before Inst executes it, and takes
	// the mutexes covering it; the home answers ReplyTo with a Resolve.
	Check Op = iota
	// Done reports that Inst completed Ref: order queues advance, mutexes
	// pass to the next waiter.
	Done
	// Failed releases what a failed or reset attempt of Ref held, or gives
	// up its place in the mutex queues, without advancing the order queues.
	// It leaves from the gate that asked, so it cannot overtake that gate's
	// newer Check for the same step; when two gates asked, it takes effect
	// with the last of them to withdraw.
	Failed
	// Rollback reports that an instance of Ref.Workflow rolled back past the
	// Invalidated steps (rollback-dependency triggers).
	Rollback
	// Forget removes the finished Inst from every queue.
	Forget
	numOps
)

// The four payloads of the coordination protocol. A Request goes to the home
// (the paper's AddRule); the home answers a Check with a Resolve
// (AddPrecondition), releases waiters with an Inject (AddEvent) and enforces
// rollback dependencies with an Order.
type (
	Request struct {
		Op          Op
		Ref         model.StepRef
		Inst        InstanceRef
		ReplyTo     string
		Invalidated []model.StepID
	}
	// Resolve carries the events Step of Inst must see valid before it runs.
	Resolve struct {
		Inst       InstanceRef
		Step       model.StepID
		WaitEvents []string
	}
	Inject Injection
	Order  RollbackOrder
)

// Host is how a Home speaks: the node it lives on. Each architecture
// implements it with its own routing, message labels and load accounting.
type Host interface {
	// Charge counts the home's one unit of coordination load for a request.
	Charge()
	// Resolve answers a Check at the node that asked.
	Resolve(to string, r Resolve)
	// Inject delivers an event to wherever the target instance's waiting
	// rule is held.
	Inject(inj Injection)
	// Order has every running instance of the order's class rolled back.
	Order(ord RollbackOrder)
}

// Home is the one place a library's coordination state lives: the tracker
// and the tombstones of finished instances. Like the tracker it is owned by
// one goroutine, its host's.
type Home struct {
	host    Host
	tracker *Tracker
	// tombs tombstones finished instances, per class: a request that arrives
	// after an instance's Forget (a late re-acquire from a replica that has
	// not yet learned of the commit) must not take resources nobody will
	// release.
	tombs map[string]*tombstones
	// askers lists, per instance and mutex step, the nodes whose gates have
	// asked and not withdrawn. After an election flip two replicas' gates
	// may both have asked, on two links, so one's Failed must not cancel
	// the other's Check.
	askers map[InstanceRef]map[model.StepID][]string
}

// NewHome builds the home for a library's specs.
func NewHome(lib *model.Library, host Host) *Home {
	return &Home{host: host, tracker: NewTracker(lib), tombs: make(map[string]*tombstones),
		askers: make(map[InstanceRef]map[model.StepID][]string)}
}

// Tracker exposes the decision core (diagnostics and tests).
func (h *Home) Tracker() *Tracker { return h.tracker }

// Handle processes one request, whichever way it reached the home.
func (h *Home) Handle(req Request) {
	h.host.Charge()
	t := h.tracker
	switch req.Op {
	case Rollback:
		for _, ord := range t.RollbackTriggered(req.Ref.Workflow, req.Invalidated) {
			h.host.Order(ord)
		}
		return
	case Forget:
		ts := h.tombs[req.Inst.Workflow]
		if ts == nil {
			ts = new(tombstones)
			h.tombs[req.Inst.Workflow] = ts
		}
		ts.add(req.Inst.ID)
		delete(h.askers, req.Inst)
		h.inject(t.OrderForget(req.Inst))
		h.inject(t.MutexForget(req.Inst))
		return
	}
	if h.forgotten(req.Inst) {
		if req.Op == Check {
			// The instance has finished: answer with no waits so the requester
			// unblocks (its replica refuses execution once it learns the final
			// status) without taking a lock.
			h.host.Resolve(req.ReplyTo, Resolve{Inst: req.Inst, Step: req.Ref.Step})
		}
		return
	}
	switch req.Op {
	case Check:
		// The answer leaves before the grants, so a gate can tell a grant
		// that answers this Check from one left over from a withdrawn one.
		waits := t.OrderWait(req.Ref, req.Inst)
		t.OrderEnroll(req.Ref, req.Inst)
		grants, mutexWaits := t.MutexAcquire(req.Ref, req.Inst)
		if len(mutexWaits) > 0 {
			h.asked(req)
		}
		h.host.Resolve(req.ReplyTo, Resolve{Inst: req.Inst, Step: req.Ref.Step, WaitEvents: append(waits, mutexWaits...)})
		h.inject(grants)
	case Done:
		delete(h.askers[req.Inst], req.Ref.Step)
		h.inject(t.OrderStepDone(req.Ref, req.Inst))
		h.inject(t.MutexRelease(req.Ref, req.Inst))
	case Failed:
		if h.withdraw(req) {
			h.inject(t.MutexRelease(req.Ref, req.Inst))
		}
	}
}

// asked records the requester among the step's askers.
func (h *Home) asked(req Request) {
	steps := h.askers[req.Inst]
	if steps == nil {
		steps = make(map[model.StepID][]string)
		h.askers[req.Inst] = steps
	}
	if !slices.Contains(steps[req.Ref.Step], req.ReplyTo) {
		steps[req.Ref.Step] = append(steps[req.Ref.Step], req.ReplyTo)
	}
}

// withdraw drops the requester from the step's askers and reports whether it
// was the last of them.
func (h *Home) withdraw(req Request) bool {
	nodes := h.askers[req.Inst][req.Ref.Step]
	i := slices.Index(nodes, req.ReplyTo)
	if i < 0 {
		return false
	}
	if len(nodes) > 1 {
		h.askers[req.Inst][req.Ref.Step] = slices.Delete(nodes, i, i+1)
		return false
	}
	delete(h.askers[req.Inst], req.Ref.Step)
	return true
}

func (h *Home) inject(injs []Injection) {
	for _, inj := range injs {
		h.host.Inject(inj)
	}
}

// forgotten reports whether the instance's Forget has been handled.
func (h *Home) forgotten(inst InstanceRef) bool {
	ts := h.tombs[inst.Workflow]
	return ts != nil && ts.has(inst.ID)
}

// tombstones is an exact set of one class's forgotten instance IDs, compact
// because IDs are handed out 1, 2, 3, ... and instances finish roughly in that
// order: every ID in 1..upTo is in the set, and above holds the others. A
// stream of instances retains one entry per instance that finished ahead of
// an older one still running, not one per instance ever finished.
type tombstones struct {
	upTo  int
	above map[int]struct{}
}

func (ts *tombstones) has(id int) bool {
	if id >= 1 && id <= ts.upTo {
		return true
	}
	_, ok := ts.above[id]
	return ok
}

func (ts *tombstones) add(id int) {
	if ts.has(id) {
		return
	}
	if id != ts.upTo+1 {
		if ts.above == nil {
			ts.above = make(map[int]struct{})
		}
		ts.above[id] = struct{}{}
		return
	}
	for ts.upTo++; ; ts.upTo++ {
		if _, next := ts.above[ts.upTo+1]; !next {
			return
		}
		delete(ts.above, ts.upTo+1)
	}
}

// String renders the order queues, the mutex state and the tombstone sizes,
// one line each, for diagnostics.
func (h *Home) String() string {
	var b strings.Builder
	for _, spec := range h.tracker.specs {
		if spec.Kind == model.RelativeOrder {
			fmt.Fprintf(&b, "home queue %s: %v\n", spec.Name, h.tracker.OrderQueue(spec.Name))
		}
	}
	for _, line := range h.tracker.MutexDebug() {
		b.WriteString("home " + line + "\n")
	}
	classes := make([]string, 0, len(h.tombs))
	for wf := range h.tombs {
		classes = append(classes, wf)
	}
	sort.Strings(classes)
	for _, wf := range classes {
		ts := h.tombs[wf]
		fmt.Fprintf(&b, "home forgot %s: 1..%d and %d above\n", wf, ts.upTo, len(ts.above))
	}
	return strings.TrimSuffix(b.String(), "\n")
}
