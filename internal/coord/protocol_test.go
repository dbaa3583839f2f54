package coord

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"crew/internal/binenc"
	"crew/internal/model"
)

// The exhaustive delivery-order test: one Home and a Gate per instance
// replica, each replica on a waiter node of its own, joined by hand-held FIFO
// queues (one per sender and receiver, which is what the transport
// guarantees). No network, no goroutine, no clock. Every order in which the
// queued Request, Resolve, Inject, halt and recovery values can be delivered
// is run, together with the scenario's other schedulable events: a mutex
// step's exit, a rollback, an election flip, a restart of the home that loses
// its state. No instance beyond the scenario's ever arrives. Three
// properties are checked. Liveness: whenever nothing is in flight and no step
// is executing, every instance has finished, so a waiter is released by the
// event it waits for, not by bystander traffic or a timer. Mutual exclusion:
// no two instances are ever inside steps of one mutex at once. Relative
// order: an instance whose pair-0 step ran before another's was granted runs
// each later pair before the other does.

const simHome = "home"

type simEvents map[string]bool

func (e simEvents) Has(name string) bool { return e[name] }

// simReplica is one copy of an instance: a gate and an event table on a
// node. Every replica receives the instance's injections; only the elected
// one executes.
type simReplica struct {
	node   string
	gate   Gate
	events simEvents
}

// simInst is one instance: a script of coordinated steps executed in order,
// each as soon as its winner replica's gate opens. A mutex step's execution
// is an enter and a later exit, during which its node takes no turn.
type simInst struct {
	ref      InstanceRef
	steps    []model.StepID
	next     int
	done     bool
	inside   bool // the winner is executing steps[next], a mutex step
	halting  bool // a rollback has not reset the instance yet: it cannot finish
	halts    int  // halts in flight
	replicas []*simReplica
	winner   int // index of the replica elected to execute
}

func (in *simInst) exec() *simReplica { return in.replicas[in.winner] }

// simHalt resets an instance at the node it reaches: the HaltThread a
// rollback's origin sends to the executor of the steps it resets.
type simHalt struct{ inst InstanceRef }

// simRecovered is the hub's announcement that the home is back after a
// restart that lost its state.
type simRecovered struct{}

const simHub = "hub"

type simLink struct {
	from, to string
	queue    []any
}

// simRollback is the one rollback a scenario may take: its instance rolls
// back to its first step, once the home has granted it a mutex (whileQueued
// false) or while it is queued for one (true). With an origin node of its
// own, the reset reaches every replica as a halt on the origin's links;
// without, it runs at the executor.
type simRollback struct {
	inst        int
	origin      string
	whileQueued bool
}

type sim struct {
	home     *Home
	links    []*simLink
	insts    []*simInst
	rollback *simRollback // nil once taken, or in a scenario without one
	granted  bool         // the home has granted the rollback's instance a mutex
	flips    int          // election flips still allowed
	restarts int          // home restarts still allowed
	// amnesia is set once the home restarted. A home that forgets a holder
	// can grant its mutex again, since nothing persists the home's state, so
	// from then on only liveness is checked.
	amnesia bool
	trace   []simEvent
	broken  string // the first mutual-exclusion or relative-order violation
	// leads[y][x]: instance y's pair-0 step ran before the home granted
	// x's, so y must run every later pair first.
	leads [][]bool
}

// newSim builds a scenario; each instance's replicas are named by their
// nodes, the first one elected.
func newSim(lib *model.Library, rb *simRollback, flips, restarts int, insts ...*simInst) *sim {
	s := &sim{insts: insts, rollback: rb, flips: flips, restarts: restarts}
	s.home = NewHome(lib, s)
	s.leads = make([][]bool, len(insts))
	for i := range insts {
		s.leads[i] = make([]bool, len(insts))
	}
	for _, in := range insts {
		for _, rep := range in.replicas {
			rep.events = simEvents{}
			s.links = append(s.links, &simLink{from: rep.node, to: simHome}, &simLink{from: simHome, to: rep.node})
			if restarts > 0 {
				s.links = append(s.links, &simLink{from: simHub, to: rep.node})
			}
		}
	}
	if rb != nil && rb.origin != "" {
		s.links = append(s.links, &simLink{from: rb.origin, to: simHome})
		for _, rep := range insts[rb.inst].replicas {
			s.links = append(s.links, &simLink{from: rb.origin, to: rep.node})
		}
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

func (in *simInst) replicaAt(node string) *simReplica {
	for _, rep := range in.replicas {
		if rep.node == node {
			return rep
		}
	}
	return nil
}

// The home's host: a Resolve goes to the node that asked, an injection to
// every replica of the target.
func (s *sim) Charge()                      {}
func (s *sim) Resolve(to string, r Resolve) { s.send(simHome, to, r) }
func (s *sim) Order(RollbackOrder)          {}
func (s *sim) Inject(inj Injection) {
	in := s.instOf(inj.Target)
	if in == nil {
		return
	}
	if s.rollback != nil && in == s.insts[s.rollback.inst] && strings.HasPrefix(inj.Event, "mx:") {
		s.granted = true
	}
	for _, rep := range in.replicas {
		s.send(simHome, rep.node, Inject(inj))
	}
}

func (s *sim) request(in *simInst, rep *simReplica, op Op, step model.StepID) {
	s.send(rep.node, simHome, Request{Op: op, Ref: model.StepRef{Workflow: in.ref.Workflow, Step: step}, Inst: in.ref, ReplyTo: rep.node})
}

func clearGrants(events simEvents, step model.StepID) {
	for ev := range events {
		if strings.HasPrefix(ev, "mx:") && strings.HasSuffix(ev, ":"+string(step)) {
			delete(events, ev)
		}
	}
}

// mutexes lists the mutex specs covering a step.
func (s *sim) mutexes(in *simInst, step model.StepID) []int {
	return s.home.tracker.mutexSpecsFor(model.StepRef{Workflow: in.ref.Workflow, Step: step})
}

// advance is the winner's navigation: run the script as far as the gate lets
// it, the way nav.Admit and the owners' Done do.
func (s *sim) advance(in *simInst) {
	rep := in.exec()
	for !in.done && !in.inside {
		if in.next == len(in.steps) {
			if in.halting {
				return
			}
			in.done = true
			s.send(rep.node, simHome, Request{Op: Forget, Inst: in.ref})
			return
		}
		step := in.steps[in.next]
		switch rep.gate.Admit(step, rep.events) {
		case AskHome:
			s.request(in, rep, Check, step)
			return
		case Blocked:
			return
		}
		if specs := s.mutexes(in, step); len(specs) > 0 {
			s.enter(in, specs)
			return
		}
		s.finish(in)
	}
}

// enter starts executing a mutex step, and records a violation if another
// instance is inside a step of one of the same mutexes.
func (s *sim) enter(in *simInst, specs []int) {
	in.inside = true
	for _, other := range s.insts {
		if other == in || !other.inside {
			continue
		}
		for _, i := range s.mutexes(other, other.steps[other.next]) {
			for _, j := range specs {
				if i == j && s.broken == "" && !s.amnesia {
					s.broken = fmt.Sprintf("mutual exclusion: %s entered %s while %s is inside %s", in.ref, in.steps[in.next], other.ref, other.steps[other.next])
				}
			}
		}
	}
}

// pair returns the pair index of the instance's step i in a relative-order
// spec, or -1.
func (s *sim) pair(in *simInst, i int) int {
	t := s.home.tracker
	for spec := range t.specs {
		if t.specs[spec].Kind == model.RelativeOrder {
			if k := t.pairIndex(spec, model.StepRef{Workflow: in.ref.Workflow, Step: in.steps[i]}); k >= 0 {
				return k
			}
		}
	}
	return -1
}

// ran reports whether the instance has run its pair-k step.
func (s *sim) ran(in *simInst, k int) bool {
	for i := range in.next {
		if s.pair(in, i) == k {
			return true
		}
	}
	return false
}

// granting notes, as the home handles a Check of x's pair-0 step, which
// instances ran theirs before it.
func (s *sim) granting(x int, step model.StepID) {
	in := s.insts[x]
	if i := slices.Index(in.steps, step); i < 0 || s.pair(in, i) != 0 {
		return
	}
	for y, other := range s.insts {
		if y != x && s.ran(other, 0) {
			s.leads[y][x] = true
		}
	}
}

// finish completes the current step: Done, grants cleared, gate released
// (nav.Release).
func (s *sim) finish(in *simInst) {
	rep, step := in.exec(), in.steps[in.next]
	if k := s.pair(in, in.next); k > 0 && !s.amnesia && s.broken == "" {
		x := slices.Index(s.insts, in)
		for y, other := range s.insts {
			if s.leads[y][x] && !s.ran(other, k) {
				s.broken = fmt.Sprintf("%s ran pair %d before %s, whose pair 0 ran before %s was granted its own", in.ref, k, other.ref, in.ref)
			}
		}
	}
	s.request(in, rep, Done, step)
	clearGrants(rep.events, step)
	rep.gate.Release(step)
	in.next++
}

// reset is nav.Reset at one replica, for a rollback to the first step. The
// instance starts over at the elected replica's reset, or at the last one if
// the election moved away from each replica before its halt arrived.
func (s *sim) reset(in *simInst, rep *simReplica) {
	for _, step := range rep.gate.Reset(in.steps) {
		clearGrants(rep.events, step)
		s.request(in, rep, Failed, step)
	}
	if in.halting && (rep == in.exec() || in.halts == 0) {
		in.next, in.halting = 0, false
		s.advance(in)
	}
}

// busy reports whether a node is in a turn that runs a step program.
func (s *sim) busy(node string) bool {
	for _, in := range s.insts {
		if in.inside && in.exec().node == node {
			return true
		}
	}
	return false
}

// restartable reports whether the home may restart: while no step is
// executing, and before any instance finished, since a respawned home has no
// tombstones and a finished instance's late Check would take its mutex for
// good.
func (s *sim) restartable() bool {
	for _, in := range s.insts {
		if in.inside || in.done {
			return false
		}
	}
	return true
}

// queued reports whether the home has the instance waiting for a mutex.
func (s *sim) queued(ref InstanceRef) bool {
	for _, mu := range s.home.tracker.mu {
		for _, w := range mu.waiters {
			if w.ref == ref {
				return true
			}
		}
	}
	return false
}

type simEventKind uint8

const (
	evDeliver simEventKind = iota
	evExit
	evRollback
	evFlip
	evRestart
)

// simEvent is one schedulable event: the head of a link's queue delivered,
// or an instance's exit from a mutex step, rollback or election flip.
type simEvent struct {
	kind    simEventKind
	link    int // index into links, for a delivery
	payload any
	inst    int // index into insts, for the others
}

func (e simEvent) String() string {
	switch e.kind {
	case evDeliver:
		return fmt.Sprintf("deliver %T %+v", e.payload, e.payload)
	case evExit:
		return fmt.Sprintf("exit of instance %d", e.inst)
	case evRollback:
		return fmt.Sprintf("rollback of instance %d", e.inst)
	case evRestart:
		return "home restart"
	}
	return fmt.Sprintf("election flip of instance %d", e.inst)
}

// enabled lists what can happen next, and how many of those events are in
// flight: deliveries and exits, which happen whatever else does.
func (s *sim) enabled() (events []simEvent, inFlight int) {
	for i, l := range s.links {
		if len(l.queue) > 0 && !s.busy(l.to) {
			events = append(events, simEvent{kind: evDeliver, link: i, payload: l.queue[0]})
		}
	}
	for i, in := range s.insts {
		if in.inside {
			events = append(events, simEvent{kind: evExit, inst: i})
		}
	}
	inFlight = len(events)
	if rb := s.rollback; rb != nil {
		in := s.insts[rb.inst]
		ready := s.granted
		if rb.whileQueued {
			ready = s.queued(in.ref)
		}
		if ready && !in.done && (rb.origin != "" || !in.inside) {
			events = append(events, simEvent{kind: evRollback, inst: rb.inst})
		}
	}
	for i, in := range s.insts {
		if s.flips > 0 && len(in.replicas) > 1 && !in.done && !in.inside {
			events = append(events, simEvent{kind: evFlip, inst: i})
		}
	}
	if s.restarts > 0 && s.restartable() {
		events = append(events, simEvent{kind: evRestart})
	}
	return events, inFlight
}

func (s *sim) run(e simEvent) {
	s.trace = append(s.trace[:len(s.trace):len(s.trace)], e)
	in := s.insts[e.inst]
	switch e.kind {
	case evDeliver:
		l := s.links[e.link]
		l.queue = l.queue[1:]
		switch p := e.payload.(type) {
		case Request:
			if p.Op == Check && !s.home.forgotten(p.Inst) {
				s.granting(slices.Index(s.insts, s.instOf(p.Inst)), p.Ref.Step)
			}
			s.home.Handle(p)
		case Resolve:
			// nav.Resolved: a taken answer clears the step's grants and
			// retries it.
			in = s.instOf(p.Inst)
			rep := in.replicaAt(l.to)
			if rep.gate.Resolved(p.Step, p.WaitEvents) {
				clearGrants(rep.events, p.Step)
				if rep == in.exec() {
					s.advance(in)
				}
			}
		case Inject:
			in = s.instOf(p.Target)
			rep := in.replicaAt(l.to)
			rep.events[p.Event] = true
			if rep == in.exec() {
				s.advance(in)
			}
		case simHalt:
			// handleHaltThread at one replica; a finished instance's replica
			// is gone.
			if in = s.instOf(p.inst); !in.done {
				in.halts--
				s.reset(in, in.replicaAt(l.to))
			}
		case simRecovered:
			// distributed.(*Agent).LivenessChanged for a respawned home:
			// every held step withdraws its request and asks again.
			for _, in := range s.insts {
				rep := in.replicaAt(l.to)
				if rep == nil || in.done {
					continue
				}
				for _, step := range rep.gate.Reset(rep.gate.Blocked()) {
					clearGrants(rep.events, step)
					s.request(in, rep, Failed, step)
				}
				if rep == in.exec() {
					s.advance(in)
				}
			}
		}
	case evExit:
		in.inside = false
		s.finish(in)
		s.advance(in)
	case evRollback:
		// handleWorkflowRollback at the origin: nav.Reset over the origin's
		// own gate, which never asked, so no Failed leaves from it.
		rb := s.rollback
		s.rollback = nil
		in.halting = true
		if rb.origin == "" {
			s.reset(in, in.exec())
			return
		}
		// The HaltThread flood reaches every agent eligible for the steps.
		in.halts = len(in.replicas)
		for _, rep := range in.replicas {
			s.send(rb.origin, rep.node, simHalt{inst: in.ref})
		}
	case evFlip:
		// The new winner re-admits its fired step, as the sweep's re-arm
		// makes it do.
		s.flips--
		in.winner = 1 - in.winner
		s.advance(in)
	case evRestart:
		// The home's process is killed and respawned: requests queued for it
		// are replayed to the new one, which knows nothing.
		s.restarts--
		s.amnesia = true
		s.home = NewHome(&model.Library{Coord: s.home.tracker.specs}, s)
		for _, l := range s.links {
			if l.from == simHub {
				s.send(simHub, l.to, simRecovered{})
			}
		}
	}
}

// clone copies everything a run changes.
func (s *sim) clone() *sim {
	c := &sim{rollback: s.rollback, granted: s.granted, flips: s.flips, restarts: s.restarts, amnesia: s.amnesia, trace: s.trace, broken: s.broken}
	for _, row := range s.leads {
		c.leads = append(c.leads, slices.Clone(row))
	}
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
	c.home = &Home{host: c, tracker: t, tombs: map[string]*tombstones{}, askers: map[InstanceRef]map[model.StepID][]string{}}
	for inst, steps := range s.home.askers {
		c.home.askers[inst] = map[model.StepID][]string{}
		for step, nodes := range steps {
			c.home.askers[inst][step] = slices.Clone(nodes)
		}
	}
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
		cp := *in
		cp.replicas = nil
		for _, rep := range in.replicas {
			rc := &simReplica{node: rep.node, events: simEvents{}}
			for ev := range rep.events {
				rc.events[ev] = true
			}
			for step, st := range rep.gate.steps {
				rc.gate.set(step, st)
			}
			cp.replicas = append(cp.replicas, rc)
		}
		c.insts = append(c.insts, &cp)
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
		for _, step := range in.steps {
			askers := s.home.askers[in.ref][step]
			binenc.Strings(&w, &askers)
		}
		w.Int(&in.next)
		w.Int(&in.winner)
		w.Int(&in.halts)
		flags(in.done, in.inside, in.halting, s.home.forgotten(in.ref))
		for _, rep := range in.replicas {
			for _, step := range in.steps {
				st := rep.gate.steps[step]
				flags(st.asked, st.known, st.blocked)
				w.Int(&st.stale)
				binenc.Strings(&w, &st.waits)
			}
			evs := make([]string, 0, len(rep.events))
			for ev := range rep.events {
				evs = append(evs, ev)
			}
			sort.Strings(evs)
			binenc.Strings(&w, &evs)
		}
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
			case simHalt:
				mark('h')
				p.inst.Walk(&w)
			case simRecovered:
				mark('a')
			}
		}
		mark('|')
	}
	for _, row := range s.leads {
		flags(row...)
	}
	w.Int(&s.flips)
	w.Int(&s.restarts)
	flags(s.rollback != nil, s.granted, s.broken != "", s.amnesia)
	return string(w.Bytes())
}

// explore runs every schedule from s on, pruning states already seen, and
// returns the number of distinct states.
func explore(t *testing.T, s *sim) int {
	t.Helper()
	seen := map[string]bool{}
	var visit func(s *sim)
	visit = func(s *sim) {
		if s.broken != "" {
			t.Fatalf("%s\norder: %v\nhome:\n%v", s.broken, s.trace, s.home)
		}
		if fp := s.fingerprint(); seen[fp] {
			return
		} else {
			seen[fp] = true
		}
		events, inFlight := s.enabled()
		if inFlight == 0 {
			for _, in := range s.insts {
				if !in.done {
					t.Fatalf("nothing in flight and %s is held at %s (%v)\norder: %v\nhome:\n%v",
						in.ref, in.steps[in.next], &in.exec().gate, s.trace, s.home)
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

func simInstance(workflow string, id int, steps []model.StepID, nodes ...string) *simInst {
	in := &simInst{ref: InstanceRef{Workflow: workflow, ID: id}, steps: steps}
	for _, node := range nodes {
		in.replicas = append(in.replicas, &simReplica{node: node})
	}
	return in
}

func TestEveryDeliveryOrderReleasesEveryWaiter(t *testing.T) {
	a1 := func() *simInst { return simInstance("A", 1, []model.StepID{"S1", "S2"}, "w1") }
	b1 := func() *simInst { return simInstance("B", 1, []model.StepID{"T1", "T2"}, "w2") }
	ma := func(id int, nodes ...string) *simInst { return simInstance("A", id, []model.StepID{"S1"}, nodes...) }
	mb := func() *simInst { return simInstance("B", 1, []model.StepID{"T1"}, "w2") }
	orderLib, mutexLib := simOrderLib(), simMutexLib()
	for _, sc := range []struct {
		name  string
		start *sim
	}{
		{"relative order, two instances", newSim(orderLib, nil, 0, 0, a1(), b1())},
		{"relative order, three instances whose pair-0 Done notes cross",
			newSim(orderLib, nil, 0, 0, a1(), b1(), simInstance("A", 2, []model.StepID{"S1", "S2"}, "w3"))},
		{"mutex, two waiters behind a holder", newSim(mutexLib, nil, 0, 0, ma(1, "w1"), mb(), ma(2, "w3"))},
		{"mutex, a rollback clears a grant the home issued",
			newSim(mutexLib, &simRollback{inst: 0}, 0, 0, ma(1, "w1"), mb())},
		{"mutex, a rollback from another agent resets the holder",
			newSim(mutexLib, &simRollback{inst: 0, origin: "o"}, 0, 0, ma(1, "w1"), mb())},
		{"mutex, a rollback from another agent resets a queued waiter",
			newSim(mutexLib, &simRollback{inst: 0, origin: "o", whileQueued: true}, 0, 0, ma(1, "w1"), mb())},
		{"mutex, the executor election flips twice",
			newSim(mutexLib, nil, 2, 0, ma(1, "w1", "w1b"), mb())},
		{"mutex, the home restarts with its state lost",
			newSim(mutexLib, nil, 0, 1, ma(1, "w1"), mb())},
		{"relative order, the home restarts with its state lost", newSim(orderLib, nil, 0, 1, a1(), b1())},
		{"mutex, a rollback after the election flipped reaches both replicas",
			newSim(mutexLib, &simRollback{inst: 0, origin: "o", whileQueued: true}, 1, 0, ma(1, "w1", "w1b"), mb())},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Logf("%d states", explore(t, sc.start))
		})
	}
}
