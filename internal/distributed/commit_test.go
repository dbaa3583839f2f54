package distributed

import (
	"sync/atomic"
	"testing"
	"time"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// twoTerminals is A at a1, its coordination agent, then parallel terminals T1
// at a2 and T2 at a3; T2's program records "t2" and waits on hold. With
// compensable set, every step has a compensation recording c<step>.
func twoTerminals(rec *recorder, hold *latch, compensable bool) (*model.Library, *model.Registry) {
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("p1", tracked(rec, "t1", nil))
	reg.Register("p2", func(*model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("t2")
		hold.wait()
		return nil, nil
	})
	opts := func(agent, comp string) []model.StepOption {
		o := []model.StepOption{model.WithAgents(agent)}
		if compensable {
			reg.Register(comp, tracked(rec, comp, nil))
			o = append(o, model.WithCompensation(comp))
		}
		return o
	}
	s := model.NewSchema("Two").
		Step("A", "pa", opts("a1", "ca")...).
		Step("T1", "p1", opts("a2", "c1")...).
		Step("T2", "p2", opts("a3", "c2")...).
		Arc("A", "T1").Arc("A", "T2").
		MustBuild()
	return lib1(s), reg
}

// TestAbortRacingLastTerminalAborts: a user abort reaches the coordination
// agent while the last terminal step still runs. The StepCompleted that step
// sends afterwards must not commit the instance: the abort compensates every
// step once and ends it aborted (replica.Settle commits no replica with an
// abort under way).
func TestAbortRacingLastTerminalAborts(t *testing.T) {
	rec, hold := &recorder{}, newLatch()
	defer hold.open()
	lib, reg := twoTerminals(rec, hold, true)
	sys := newSweptSystem(t, SystemConfig{Library: lib, Programs: reg, Agents: []string{"a1", "a2", "a3"}}, time.Hour)
	id, err := sys.Start("Two", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "t2")
	waitUntil(t, "a1 learning that T1 ran", func() bool {
		return inReplica(sys.Agent("a1"), "Two", id, func(r *replica) bool { return r.Ins.Executed("T1") })
	})
	if err := sys.Abort("Two", id); err != nil {
		t.Fatal(err)
	}
	hold.open()
	if st, err := sys.Wait("Two", id, waitTimeout); err != nil || st != wfdb.Aborted {
		t.Fatalf("Two.%d = (%v, %v), want aborted; ran %v", id, st, err, rec.list())
	}
	for _, c := range []string{"c2", "c1", "ca"} {
		if n := rec.count(c); n != 1 {
			t.Errorf("%s ran %d times, want 1: %v", c, n, rec.list())
		}
	}
}

// TestTerminalReportedOnce: each terminal step is reported to the coordination
// agent once, by the StepCompleted of the turn that ran it, however long the
// instance then waits for its other terminal; no sweep re-reports it.
func TestTerminalReportedOnce(t *testing.T) {
	const period = 10 * time.Millisecond
	rec, hold := &recorder{}, newLatch()
	defer hold.open()
	lib, reg := twoTerminals(rec, hold, false)
	sys := newSweptSystem(t, SystemConfig{Library: lib, Programs: reg, Agents: []string{"a1", "a2", "a3"}}, period)
	var reports atomic.Int64
	sys.Network().Trace(func(m transport.Message) {
		if m.Kind == KindStepCompleted {
			reports.Add(1)
		}
	})
	id, err := sys.Start("Two", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "t2")
	waitUntil(t, "a1 learning that T1 ran", func() bool {
		return inReplica(sys.Agent("a1"), "Two", id, func(r *replica) bool { return r.Ins.Executed("T1") })
	})
	time.Sleep(10 * period)
	hold.open()
	waitCommitted(t, sys, "Two", id)
	sys.Network().Trace(nil)
	if n := reports.Load(); n != 2 {
		t.Errorf("%d StepCompleted messages for two terminal steps, want 2", n)
	}
}

// TestProbeBelowReplicaEpochKeepsLaterReport: the coordination agent's epoch
// is 3, from T1's own rollback, which reset nothing else. A probe of an
// earlier rollback (epoch 2) then resets T2, and T2's re-execution reports
// at epoch 2. That report is fresh for the probe that reset T2 and must
// merge, so the instance commits; marking T2 reset at the replica's epoch
// dropped it for good. The order is the one a hung TestStressDistributedSeeds
// instance showed.
func TestProbeBelowReplicaEpochKeepsLaterReport(t *testing.T) {
	rec, hold := &recorder{}, newLatch()
	hold.open()
	lib, reg := twoTerminals(rec, hold, false)
	sys := newSweptSystem(t, SystemConfig{Library: lib, Programs: reg, Agents: []string{"a1", "a2", "a3"}}, time.Hour)
	a := sys.Agent("a1")
	var st wfdb.Status
	a.Do(func() {
		r, err := a.getReplica("Two", 1)
		if err != nil {
			t.Error(err)
			return
		}
		r.coordinator = "a1"
		a.handleStepCompleted(stepCompleted{Workflow: "Two", Instance: 1, Step: "T1", Epoch: 3, Events: []string{"A.done", "T1.done"}})
		a.handleHaltThread(haltThread{Workflow: "Two", Instance: 1, Origin: "A", Epoch: 2, Mechanism: metrics.Failure})
		a.handleStepCompleted(stepCompleted{Workflow: "Two", Instance: 1, Step: "T2", Epoch: 2, Events: []string{"A.done", "T2.done"}})
		st = r.Ins.Status
	})
	if st != wfdb.Committed {
		t.Fatalf("Two.1 is %v after both terminals reported, want committed", st)
	}
}

// TestNestedAbortReportsOnce: a child's abort reports to the parent once. The
// child's steps run at its coordination agent, a3, so every StepCompensate of
// its abort is one a3 sends itself, and the last reply comes back inside the
// abort's own pump. The instance must finish there once: a second finish sent
// the parent a second NestedResult, and the parent spent its retry budget
// twice as fast.
func TestNestedAbortReportsOnce(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pp1", tracked(rec, "p1", nil))
	reg.Register("cp1", tracked(rec, "cp1", nil))
	reg.Register("pc0", tracked(rec, "c0", nil))
	reg.Register("cc0", tracked(rec, "cc0", nil))
	reg.Register("pc1", model.FailNTimes(1000, tracked(rec, "c1", nil)))
	child := model.NewSchema("Child").
		Step("C0", "pc0", model.WithCompensation("cc0"), model.WithAgents("a3")).
		Step("C1", "pc1", model.WithAgents("a3")).
		Seq("C0", "C1").
		MustBuild()
	parent := model.NewSchema("Parent").
		Step("P1", "pp1", model.WithCompensation("cp1"), model.WithAgents("a1")).
		NestedStep("N", "Child", model.WithAgents("a2")).
		Seq("P1", "N").
		OnFailure("N", "P1", 3).
		MustBuild()
	sys := newSystem(t, lib1(parent, child), reg)
	var starts, results atomic.Int64
	sys.Network().Trace(func(m transport.Message) {
		switch p := m.Payload.(type) {
		case *workflowStart:
			if p.Workflow == "Child" {
				starts.Add(1)
			}
		case *nestedResult:
			results.Add(1)
		}
	})
	runToStatus(t, sys, "Parent", nil, wfdb.Aborted)
	sys.Network().Trace(nil)
	if s, r := starts.Load(), results.Load(); r != s || s != 4 {
		t.Errorf("%d child runs sent %d NestedResults, want 4 runs (a first try and three retries) and one result each; ran %v", s, r, rec.list())
	}
	if n := rec.count("cc0"); n != 4 {
		t.Errorf("C0 compensated %d times in 4 child aborts: %v", n, rec.list())
	}
}

// TestAbortWaitsForEveryEligibleAgent: X's eligible agents are a1, the
// coordination agent, and a2, whose turn is held in H's program. a1's own
// StepCompensated for X comes back inside the abort's pump; it must not count
// for a2's, so the instance is still running when Abort returns and aborts
// only once a2 has answered.
func TestAbortWaitsForEveryEligibleAgent(t *testing.T) {
	rec, hold := &recorder{}, newLatch()
	defer hold.open()
	reg := model.NewRegistry()
	reg.Register("ps", tracked(rec, "s", nil))
	reg.Register("cs", tracked(rec, "cs", nil))
	reg.Register("px", tracked(rec, "x", nil))
	reg.Register("cx", tracked(rec, "cx", nil))
	reg.Register("ph", func(*model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("h")
		hold.wait()
		return nil, nil
	})
	s := model.NewSchema("Wide").
		Step("S", "ps", model.WithCompensation("cs"), model.WithAgents("a1")).
		Step("X", "px", model.WithCompensation("cx"), model.WithAgents("a1", "a2")).
		Step("H", "ph", model.WithAgents("a2")).
		Arc("S", "X").Arc("S", "H").
		MustBuild()
	sys := newSweptSystem(t, SystemConfig{Library: lib1(s), Programs: reg, Agents: []string{"a1", "a2", "a3"}}, time.Hour)
	id, err := sys.Start("Wide", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "h")
	if err := sys.Abort("Wide", id); err != nil {
		t.Fatal(err)
	}
	if st, ok := sys.Status("Wide", id); !ok || st != wfdb.Running {
		t.Errorf("Wide.%d = (%v, %v) while a2 has not answered its StepCompensate, want running", id, st, ok)
	}
	hold.open()
	if st, err := sys.Wait("Wide", id, waitTimeout); err != nil || st != wfdb.Aborted {
		t.Fatalf("Wide.%d = (%v, %v), want aborted; ran %v", id, st, err, rec.list())
	}
	if n := rec.count("cs"); n != 1 {
		t.Errorf("S compensated %d times, want 1: %v", n, rec.list())
	}
}
