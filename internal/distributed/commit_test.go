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
		a.handleHaltThread(haltThread{Workflow: "Two", Instance: 1, Origin: "A", Epoch: 2, Initiator: "a2/T1", Mechanism: metrics.Failure})
		a.handleStepCompleted(stepCompleted{Workflow: "Two", Instance: 1, Step: "T2", Epoch: 2, Events: []string{"A.done", "T2.done"}})
		st = r.Ins.Status
	})
	if st != wfdb.Committed {
		t.Fatalf("Two.1 is %v after both terminals reported, want committed", st)
	}
}
