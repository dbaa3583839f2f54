package coord

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"crew/internal/binenc"
	"crew/internal/model"
)

// The exhaustive delivery-order test: one Home and a Gate per instance, each
// instance on a waiter node of its own, joined by hand-held FIFO queues (one
// per sender and receiver, which is what the transport guarantees). No
// network, no goroutine, no clock. Every order in which the queued Request,
// Resolve and Inject values can be delivered is run, with a re-check of an
// instance's held-back steps (what an agent's sweep does) and, in one
// scenario, a rollback as further schedulable events. No instance beyond the
// scenario's ever arrives. The property is liveness: whenever nothing is in
// flight, every instance has finished — a waiter is released by the event it
// waits for, not by bystander traffic and not by the re-check, which is
// allowed to stay unused.

const simHome = "home"

type simEvents map[string]bool

func (e simEvents) Has(name string) bool { return e[name] }

// simInst is one instance on its waiter node: a script of coordinated steps
// executed in order, each as soon as its gate opens.
type simInst struct {
	node   string
	ref    InstanceRef
	steps  []model.StepID
	next   int
	done   bool
	gate   Gate
	events simEvents
}

type simLink struct {
	from, to string
	queue    []any
}

type sim struct {
	home  *Home
	links []*simLink
	insts []*simInst
	// rechecks is how many re-checks may still be scheduled; rollback, when
	// non-nil, is the instance that may roll back to its first step once the
	// home has issued it a mutex grant.
	rechecks int
	rollback *simInst
	granted  bool
	trace    []simEvent
}

func newSim(lib *model.Library, rechecks int, insts ...*simInst) *sim {
	s := &sim{rechecks: rechecks, insts: insts}
	s.home = NewHome(lib, s)
	for _, in := range insts {
		in.events = simEvents{}
		s.links = append(s.links, &simLink{from: in.node, to: simHome}, &simLink{from: simHome, to: in.node})
	}
	for _, in := range insts {
		s.advance(in)
	}
	return s
}

func (s *sim) send(from, to string, payload any) {
	for _, l := range s.links {
		if l.from == from && l.to == to {
			l.queue = append(l.queue, payload)
			return
		}
	}
	panic("no link " + from + ">" + to)
}

func (s *sim) instOf(ref InstanceRef) *simInst {
	for _, in := range s.insts {
		if in.ref == ref {
			return in
		}
	}
	return nil
}

// The home's host: everything it says is queued towards the node holding the
// instance.
func (s *sim) Charge()                      {}
func (s *sim) Resolve(to string, r Resolve) { s.send(simHome, to, r) }
func (s *sim) Order(RollbackOrder)          {}
func (s *sim) Inject(inj Injection) {
	if in := s.instOf(inj.Target); in != nil {
		if in == s.rollback && strings.HasPrefix(inj.Event, "mx:") {
			s.granted = true
		}
		s.send(simHome, in.node, Inject(inj))
	}
}

func (s *sim) request(in *simInst, op Op, step model.StepID) {
	s.send(in.node, simHome, Request{Op: op, Ref: model.StepRef{Workflow: in.ref.Workflow, Step: step}, Inst: in.ref, ReplyTo: in.node})
}

func clearGrants(in *simInst, step model.StepID) {
	for ev := range in.events {
		if strings.HasPrefix(ev, "mx:") && strings.HasSuffix(ev, ":"+string(step)) {
			delete(in.events, ev)
		}
	}
}

// advance is the waiter's navigation: run the script as far as the gate lets
// it, the way maybeExecute and afterStepDone do.
func (s *sim) advance(in *simInst) {
	for !in.done {
		if in.next == len(in.steps) {
			in.done = true
			s.send(in.node, simHome, Request{Op: Forget, Inst: in.ref})
			return
		}
		step := in.steps[in.next]
		switch in.gate.Admit(step, in.events) {
		case AskHome:
			s.request(in, Check, step)
			return
		case Blocked:
			return
		}
		s.request(in, Done, step)
		clearGrants(in, step)
		in.gate.Release(step)
		in.next++
	}
}

// simEvent is one schedulable event: the head of a link's queue delivered, or
// an instance's re-check, or its rollback.
type simEvent struct {
	link     int // index into links; -1 for the other two
	payload  any
	inst     int // index into insts
	rollback bool
}

func (e simEvent) String() string {
	switch {
	case e.link >= 0:
		return fmt.Sprintf("deliver %T %+v", e.payload, e.payload)
	case e.rollback:
		return fmt.Sprintf("rollback of instance %d", e.inst)
	}
	return fmt.Sprintf("re-check of instance %d", e.inst)
}

// enabled lists what can happen next, deliveries first, and how many of them
// are deliveries.
func (s *sim) enabled() (events []simEvent, deliveries int) {
	for i, l := range s.links {
		if len(l.queue) > 0 {
			events = append(events, simEvent{link: i, payload: l.queue[0]})
		}
	}
	deliveries = len(events)
	for i, in := range s.insts {
		if s.rechecks > 0 && len(in.gate.Blocked()) > 0 {
			events = append(events, simEvent{link: -1, inst: i})
		}
		if in == s.rollback && s.granted && !in.done {
			events = append(events, simEvent{link: -1, inst: i, rollback: true})
		}
	}
	return events, deliveries
}

func (s *sim) run(e simEvent) {
	s.trace = append(s.trace[:len(s.trace):len(s.trace)], e)
	in := s.insts[e.inst]
	switch {
	case e.link >= 0:
		l := s.links[e.link]
		l.queue = l.queue[1:]
		switch p := e.payload.(type) {
		case Request:
			s.home.Handle(p)
		case Resolve:
			in = s.instOf(p.Inst)
			in.gate.Resolved(p.Step, p.WaitEvents)
			s.advance(in)
		case Inject:
			in = s.instOf(p.Target)
			in.events[p.Event] = true
			s.advance(in)
		}
	case e.rollback:
		// What a rollback to the first step does to the coordinated steps it
		// resets (resetDispatchState, handleWorkflowRollback).
		s.rollback = nil
		in.gate.Reset(in.steps)
		for _, step := range in.steps {
			clearGrants(in, step)
			s.request(in, Failed, step)
		}
		in.next = 0
		s.advance(in)
	default:
		s.rechecks--
		in.gate.Recheck()
		s.advance(in)
	}
}

// clone copies everything a run changes.
func (s *sim) clone() *sim {
	c := &sim{rechecks: s.rechecks, granted: s.granted, trace: s.trace}
	t := &Tracker{specs: s.home.tracker.specs, ro: map[int]*roState{}, mu: map[int]*muState{}}
	for i, ro := range s.home.tracker.ro {
		cp := &roState{queue: append([]InstanceRef(nil), ro.queue...), pos: map[InstanceRef]int{}, done: map[InstanceRef]map[int]bool{}}
		for inst, pos := range ro.pos {
			cp.pos[inst] = pos
			cp.done[inst] = map[int]bool{}
			for k := range ro.done[inst] {
				cp.done[inst][k] = true
			}
		}
		t.ro[i] = cp
	}
	for i, mu := range s.home.tracker.mu {
		cp := *mu
		cp.waiters = append([]muWaiter(nil), mu.waiters...)
		t.mu[i] = &cp
	}
	c.home = &Home{host: c, tracker: t, tombs: map[string]*tombstones{}}
	for wf, ts := range s.home.tombs {
		cp := &tombstones{upTo: ts.upTo, above: map[int]struct{}{}}
		for id := range ts.above {
			cp.above[id] = struct{}{}
		}
		c.home.tombs[wf] = cp
	}
	for _, l := range s.links {
		c.links = append(c.links, &simLink{from: l.from, to: l.to, queue: l.queue[:len(l.queue):len(l.queue)]})
	}
	for _, in := range s.insts {
		cp := &simInst{node: in.node, ref: in.ref, steps: in.steps, next: in.next, done: in.done, events: simEvents{}}
		for ev := range in.events {
			cp.events[ev] = true
		}
		for step, st := range in.gate.steps {
			cp.gate.set(step, st)
		}
		if in == s.rollback {
			c.rollback = cp
		}
		c.insts = append(c.insts, cp)
	}
	return c
}

// fingerprint encodes everything the future of a run depends on.
func (s *sim) fingerprint() string {
	var w binenc.Walker
	w.Encode(make([]byte, 0, 512))
	mark := func(c byte) { w.Byte(&c) }
	flags := func(vs ...bool) {
		for i := range vs {
			w.Bool(&vs[i])
		}
	}
	t := s.home.tracker
	for i, spec := range t.specs {
		if ro := t.ro[i]; ro != nil {
			for _, inst := range ro.queue {
				inst.Walk(&w)
				for k := range spec.Pairs {
					flags(ro.done[inst][k])
				}
			}
		}
		if mu := t.mu[i]; mu != nil {
			flags(mu.held)
			mu.holder.Walk(&w)
			mu.holding.Walk(&w)
			for _, wt := range mu.waiters {
				wt.ref.Walk(&w)
				wt.step.Walk(&w)
			}
		}
		mark('|')
	}
	for _, in := range s.insts {
		w.Int(&in.next)
		flags(in.done, s.home.forgotten(in.ref))
		for _, step := range in.steps {
			st := in.gate.steps[step]
			flags(st.asked, st.known, st.blocked)
			binenc.Strings(&w, &st.waits)
		}
		evs := make([]string, 0, len(in.events))
		for ev := range in.events {
			evs = append(evs, ev)
		}
		sort.Strings(evs)
		binenc.Strings(&w, &evs)
	}
	for _, l := range s.links {
		for _, payload := range l.queue {
			switch p := payload.(type) {
			case Request:
				mark('q')
				p.Walk(&w)
			case Resolve:
				mark('r')
				p.Walk(&w)
			case Inject:
				mark('i')
				p.Walk(&w)
			}
		}
		mark('|')
	}
	w.Int(&s.rechecks)
	flags(s.rollback != nil, s.granted)
	return string(w.Bytes())
}

// explore runs every schedule from s on, pruning states already seen, and
// returns the number of distinct states.
func explore(t *testing.T, s *sim) int {
	t.Helper()
	seen := map[string]bool{}
	var visit func(s *sim)
	visit = func(s *sim) {
		if fp := s.fingerprint(); seen[fp] {
			return
		} else {
			seen[fp] = true
		}
		events, deliveries := s.enabled()
		if deliveries == 0 {
			for _, in := range s.insts {
				if !in.done {
					t.Fatalf("nothing in flight and %s is held at %s (%v)\norder: %v\nhome:\n%v",
						in.ref, in.steps[in.next], &in.gate, s.trace, s.home)
				}
			}
		}
		for _, e := range events {
			c := s.clone()
			c.run(e)
			visit(c)
		}
	}
	visit(s)
	return len(seen)
}

func simOrderLib() *model.Library {
	lib := model.NewLibrary()
	lib.Add(model.NewSchema("A").Step("S1", "p").Step("S2", "p").Seq("S1", "S2").MustBuild())
	lib.Add(model.NewSchema("B").Step("T1", "p").Step("T2", "p").Seq("T1", "T2").MustBuild())
	lib.AddCoord(model.CoordSpec{Kind: model.RelativeOrder, Name: "ro", Pairs: []model.ConflictPair{
		{A: model.StepRef{Workflow: "A", Step: "S1"}, B: model.StepRef{Workflow: "B", Step: "T1"}},
		{A: model.StepRef{Workflow: "A", Step: "S2"}, B: model.StepRef{Workflow: "B", Step: "T2"}},
	}})
	return lib
}

func simMutexLib() *model.Library {
	lib := model.NewLibrary()
	lib.Add(model.NewSchema("A").Step("S1", "p").MustBuild())
	lib.Add(model.NewSchema("B").Step("T1", "p").MustBuild())
	lib.AddCoord(model.CoordSpec{Kind: model.Mutex, Name: "mx", MutexSteps: []model.StepRef{
		{Workflow: "A", Step: "S1"}, {Workflow: "B", Step: "T1"},
	}})
	return lib
}

func TestEveryDeliveryOrderReleasesEveryWaiter(t *testing.T) {
	a1 := func() *simInst {
		return &simInst{node: "w1", ref: InstanceRef{Workflow: "A", ID: 1}, steps: []model.StepID{"S1", "S2"}}
	}
	b1 := func() *simInst {
		return &simInst{node: "w2", ref: InstanceRef{Workflow: "B", ID: 1}, steps: []model.StepID{"T1", "T2"}}
	}
	ma := func(node string, id int) *simInst {
		return &simInst{node: node, ref: InstanceRef{Workflow: "A", ID: id}, steps: []model.StepID{"S1"}}
	}
	mb := func() *simInst {
		return &simInst{node: "w2", ref: InstanceRef{Workflow: "B", ID: 1}, steps: []model.StepID{"T1"}}
	}
	orderLib, mutexLib := simOrderLib(), simMutexLib()
	withRollback := newSim(mutexLib, 1, ma("w1", 1), mb())
	withRollback.rollback = withRollback.insts[0]
	for _, sc := range []struct {
		name  string
		start *sim
	}{
		{"relative order, two instances", newSim(orderLib, 2, a1(), b1())},
		{"mutex, two waiters behind a holder", newSim(mutexLib, 1, ma("w1", 1), mb(), ma("w3", 2))},
		{"mutex, a rollback clears a grant the home issued", withRollback},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Logf("%d states", explore(t, sc.start))
		})
	}
}
