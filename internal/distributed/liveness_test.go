package distributed

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// newSweptSystem is newSystem with the agents' sweep period set.
func newSweptSystem(t *testing.T, cfg SystemConfig, sweep time.Duration) *System {
	t.Helper()
	cfg.Collector = metrics.NewCollector()
	cfg.sweepPeriod = sweep
	cfg.Logf = t.Logf
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// setAlive installs an agent's liveness view (Config.Alive) inside one of its
// turns.
func setAlive(a *Agent, alive func(string) bool) {
	a.Do(func() { a.cfg.Alive = alive })
}

// inReplica runs f on an agent's replica of an instance inside one of its
// turns and returns its answer; false if the agent holds no replica.
func inReplica(a *Agent, workflow string, id int, f func(r *replica) bool) bool {
	var ok bool
	a.Do(func() {
		if r := a.replicas[replicaKey(workflow, id)]; r != nil {
			ok = f(r)
		}
	})
	return ok
}

// waitUntil polls cond until it holds, failing the test after waitTimeout.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// latch holds a program until it is opened. Opening it twice is harmless,
// so a test defers an open: a failing test then leaves no agent blocked in a
// program while its deployment closes.
type latch struct {
	ch   chan struct{}
	once sync.Once
}

func newLatch() *latch { return &latch{ch: make(chan struct{})} }
func (l *latch) wait() { <-l.ch }
func (l *latch) open() { l.once.Do(func() { close(l.ch) }) }

// waitCommitted waits for an instance to commit, logging every agent's view
// of it if it does not.
func waitCommitted(t *testing.T, sys *System, wf string, id int) {
	t.Helper()
	if st, err := sys.Wait(wf, id, waitTimeout); err != nil || st != wfdb.Committed {
		for _, name := range sys.SchedulingNodes() {
			t.Logf("%s: %s", name, sys.Agent(name).DebugState(wf, id))
		}
		t.Fatalf("%s.%d = (%v, %v)", wf, id, st, err)
	}
}

// TestLivenessChangeFiresDeclinedRule: an agent whose liveness view is stale
// declines a step whose election winner is down, and its rule is spent. When
// its view catches up, the step runs there in the turn that learns of the
// change (Agent.LivenessChanged), with no sweep to re-arm the rule.
func TestLivenessChangeFiresDeclinedRule(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	s := model.NewSchema("EF").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2", "a3")).
		Seq("A", "B").
		MustBuild()
	sys := newSweptSystem(t, SystemConfig{Library: lib1(s), Programs: reg, Agents: []string{"a1", "a2", "a3"}}, time.Hour)
	winner := nav.ElectAgent([]string{"a2", "a3"}, "EF", 1, "B", nil)
	other := map[string]string{"a2": "a3", "a3": "a2"}[winner]
	ag := sys.Agent(other)
	var caughtUp atomic.Bool
	setAlive(ag, func(n string) bool {
		return n == winner && !caughtUp.Load() || sys.Network().Alive(n)
	})

	sys.HaltNode(winner)
	id, err := sys.Start("EF", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The packet that makes the replica is evaluated in the same turn: once
	// the replica exists, its rule for B has fired and been declined.
	waitUntil(t, other+" holding a replica", func() bool { return ag.HasReplica("EF", id) })
	if n := rec.count("b"); n != 0 {
		t.Fatalf("B ran %d times while %s's view had %s up", n, other, winner)
	}
	if st, _ := sys.Status("EF", id); st != wfdb.Running {
		t.Fatalf("instance is %v before the view caught up", st)
	}

	caughtUp.Store(true)
	ag.LivenessChanged(winner, false)
	waitCommitted(t, sys, "EF", id)
	if n := rec.count("b"); n != 1 {
		t.Errorf("B ran %d times, want 1", n)
	}
}

// TestHaltThreadAfterPacketFiresRearmedRule: a rollback re-executes B at
// another agent than before, so the re-executed thread's packet reaches C's
// agent before the HaltThread probe, which comes from B's first executor. The
// probe re-arms C's rule with B's new done event already held, and C runs in
// the probe's turn, with no sweep to evaluate the replica.
func TestHaltThreadAfterPacketFiresRearmedRule(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	reg.Register("pc", tracked(rec, "c", nil))
	entered, release := make(chan struct{}), newLatch()
	defer release.open()
	var fCalls atomic.Int32
	reg.Register("pf", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		if fCalls.Add(1) > 1 {
			return nil, nil
		}
		close(entered)
		release.wait()
		return nil, model.Fail("injected failure")
	})
	s := model.NewSchema("HT").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2", "a4")).
		Step("C", "pc", model.WithAgents("a3")).
		Step("F", "pf", model.WithAgents("a1")).
		Seq("A", "B", "C", "F").
		OnFailure("F", "A", 3).
		MustBuild()
	sys := newSweptSystem(t, SystemConfig{Library: lib1(s), Programs: reg, Agents: []string{"a1", "a2", "a3", "a4"}}, time.Hour)
	first := nav.ElectAgent([]string{"a2", "a4"}, "HT", 1, "B", nil)
	// Every view comes to suspect B's first executor when it crashes, and
	// still does after the network has it back: it relays the probe it held
	// but runs B no more.
	var suspect atomic.Bool
	for _, name := range sys.SchedulingNodes() {
		setAlive(sys.Agent(name), func(n string) bool {
			return !(n == first && suspect.Load()) && sys.Network().Alive(n)
		})
	}

	id, err := sys.Start("HT", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	// The other eligible agent declined B (its replica is made in the turn
	// that evaluates the packet) before anyone suspects the first executor.
	second := map[string]string{"a2": "a4", "a4": "a2"}[first]
	waitUntil(t, second+" holding a replica", func() bool { return sys.Agent(second).HasReplica("HT", id) })
	suspect.Store(true)
	sys.Network().Crash(first) // holds the probe B's first executor relays
	release.open()

	a3 := sys.Agent("a3")
	waitUntil(t, "C's agent merging B's re-executed packet", func() bool {
		return inReplica(a3, "HT", id, func(r *replica) bool { return r.doneEpoch["B"] >= 1 })
	})
	if inReplica(a3, "HT", id, func(r *replica) bool { return len(r.handledHalts) > 0 }) {
		t.Fatal("the probe reached C's agent before the re-executed packet")
	}
	sys.Network().Recover(first)
	waitCommitted(t, sys, "HT", id)
	if n := fCalls.Load(); n != 2 {
		t.Errorf("F ran %d times, want 2 (one rollback)", n)
	}
}

// crashOnPacket crashes node (through System.HaltNode) as the first packet of
// a rollback epoch is accepted for it once installed, so that the packet
// waits at the crashed node.
type crashOnPacket struct {
	sys     *System
	node    string
	crashed atomic.Bool
}

func (p *crashOnPacket) OnMessage(m transport.Message, _ int64) transport.Verdict {
	msgs := []transport.Message{m}
	if env, ok := m.Payload.(*transport.Envelope); ok {
		msgs = env.Msgs
	}
	for _, lm := range msgs {
		se, ok := lm.Payload.(*stepExecute)
		if ok && lm.To == p.node && se.Packet.Epoch > 0 && p.crashed.CompareAndSwap(false, true) {
			p.sys.HaltNode(p.node)
		}
	}
	return transport.Verdict{}
}

// TestRepolledWaitReexecutesQueryAfterRollback: each wait for a done event
// is polled once, and a wait that begins after a rollback is a new one. J's
// agent polls for B2 while B2's first run takes long; after a first rollback
// to R the survivor S, which the HaltThread flood told of the instance, polls
// for A. A second rollback to R invalidates both events again, and B2's
// executor crashes holding the re-executed packet. J's agent and S each poll
// again, and the query step B2 re-executes at S while the crashed agent stays
// down. The explicit election sends packets to the executor alone, so a poll
// is the only way S learns what it needs.
func TestRepolledWaitReexecutesQueryAfterRollback(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	for _, p := range []string{"r", "a", "b1", "j"} {
		reg.Register("p"+p, tracked(rec, p, nil))
	}
	b2Entered, b2Release := make(chan struct{}), newLatch()
	defer b2Release.open()
	var b2Calls atomic.Int32
	reg.Register("pb2", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		if b2Calls.Add(1) == 1 {
			close(b2Entered)
			b2Release.wait()
		}
		return nil, nil
	})
	fEntered, fRelease := make(chan struct{}), newLatch()
	defer fRelease.open()
	var fCalls atomic.Int32
	reg.Register("pf", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		switch fCalls.Add(1) {
		case 1:
			return nil, model.Fail("injected failure")
		case 2:
			close(fEntered)
			fRelease.wait()
			return nil, model.Fail("injected failure")
		}
		return nil, nil
	})
	s := model.NewSchema("RP").
		Step("R", "pr", model.WithAgents("a1")).
		Step("A", "pa", model.WithAgents("a2")).
		Step("B1", "pb1", model.WithAgents("a2")).
		Step("B2", "pb2", model.WithAgents("a3", "a5")).
		Step("J", "pj", model.WithJoin(model.JoinAll), model.WithAgents("a4")).
		Step("F", "pf", model.WithAgents("a1")).
		Arc("R", "A").Arc("A", "B1").Arc("A", "B2").
		Arc("B1", "J").Arc("B2", "J").Arc("J", "F").
		OnFailure("F", "R", 5).
		MustBuild()
	sys := newSweptSystem(t, SystemConfig{
		Library:          lib1(s),
		Programs:         reg,
		Agents:           []string{"a1", "a2", "a3", "a4", "a5"},
		ExplicitElection: true,
	}, 20*time.Millisecond)
	executor := nav.ElectAgent([]string{"a3", "a5"}, "RP", 1, "B2", nil)
	survivor := map[string]string{"a3": "a5", "a5": "a3"}[executor]
	var jPolled, sPolled, ranAtSurvivor atomic.Bool
	sys.Network().Trace(func(m transport.Message) {
		switch p := m.Payload.(type) {
		case *stepStatus:
			jPolled.CompareAndSwap(false, m.From == "a4" && p.Step == "B2")
			sPolled.CompareAndSwap(false, m.From == survivor && p.Step == "A")
		case *stepExecute:
			ranAtSurvivor.CompareAndSwap(false, m.From == survivor && p.Packet.TargetStep == "J")
		}
	})

	id, err := sys.Start("RP", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-b2Entered
	waitUntil(t, "J's agent polling for B2", jPolled.Load)
	b2Release.open()
	<-fEntered // the first rollback has run
	waitUntil(t, survivor+" polling for A", sPolled.Load)
	if ranAtSurvivor.Load() {
		t.Fatalf("B2 ran at %s with %s up", survivor, executor)
	}
	sys.Network().SetFaultPolicy(&crashOnPacket{sys: sys, node: executor})
	fRelease.open()

	waitCommitted(t, sys, "RP", id)
	if sys.Network().Alive(executor) {
		t.Fatalf("%s is up: the crash never came", executor)
	}
	if !ranAtSurvivor.Load() {
		t.Errorf("B2 did not re-execute at the survivor %s", survivor)
	}
	if n := b2Calls.Load(); n != 2 {
		t.Errorf("B2's program ran %d times, want 2 (once at each agent)", n)
	}
}
