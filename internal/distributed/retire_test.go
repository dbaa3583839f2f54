package distributed

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"crew/internal/binenc"
	"crew/internal/coord"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// oneTurnEach gives every agent one message turn, a load report that changes
// nothing, and waits until the deployment has handled it. The
// transport's quiesce, not System.Quiesce: that one drops finished replicas
// itself.
func oneTurnEach(t *testing.T, sys *System, names ...string) {
	t.Helper()
	if len(names) == 0 {
		names = sys.SchedulingNodes()
	}
	for _, name := range names {
		m := transport.Message{From: "test", To: name, Mechanism: metrics.Normal, Kind: "StateResponse", Payload: &stateInformationReply{}}
		if err := sys.Network().Send(m); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := sys.Network().Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// hourSweepSystem builds a deployment whose sweep never fires during a test.
func hourSweepSystem(t *testing.T, lib *model.Library, reg *model.Registry, agents []string) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		Library:     lib,
		Programs:    reg,
		Collector:   metrics.NewCollector(),
		Agents:      agents,
		sweepPeriod: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// TestBystanderDropsReplicaAtNextTurn: a bystander's replica dies with its
// instance. Ten agents each run one step of a chain, so nine of them are left
// holding a replica when the first commits; with the sweep an hour away, the
// next message turn each takes is what must let go of it.
func TestBystanderDropsReplicaAtNextTurn(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	var agents []string
	b := model.NewSchema("Chain")
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("a%d", i)
		agents = append(agents, name)
		b = b.Step(model.StepID(fmt.Sprintf("S%d", i)), "p", model.WithAgents(name))
		if i > 0 {
			b = b.Arc(model.StepID(fmt.Sprintf("S%d", i-1)), model.StepID(fmt.Sprintf("S%d", i)))
		}
	}
	sys := hourSweepSystem(t, lib1(b.MustBuild()), reg, agents)

	runToStatus(t, sys, "Chain", nil, wfdb.Committed)
	oneTurnEach(t, sys)
	for _, name := range agents {
		if n := sys.Agent(name).ReplicaCount(); n != 0 {
			t.Errorf("%s holds %d replicas one turn after the commit", name, n)
		}
		if n := sys.Agent(name).SweepWakeups(); n != 0 {
			t.Errorf("%s swept %d times with the sweep an hour away", name, n)
		}
	}
}

// TestLaggingBystanderDropsThroughScan: more instances finish than the
// completion feed holds while a bystander takes no turn. Its next turn finds
// its cursor off the ring and drops every finished replica by scanning.
func TestLaggingBystanderDropsThroughScan(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	hold := model.NewSchema("Hold").
		Step("A", "p", model.WithAgents("a1")).
		Step("B", "p", model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	other := model.NewSchema("Other").Step("X", "p", model.WithAgents("a1")).MustBuild()
	sys := hourSweepSystem(t, lib1(hold, other), reg, []string{"a1", "a2"})

	runToStatus(t, sys, "Hold", nil, wfdb.Committed)
	bystander := sys.Agent("a2")
	if n := bystander.ReplicaCount(); n != 1 {
		t.Fatalf("a2 holds %d replicas before its next turn, want 1", n)
	}
	const ring = 1024
	for i := 0; i < ring+10; i++ {
		runToStatus(t, sys, "Other", nil, wfdb.Committed)
	}
	var lagged bool
	bystander.Do(func() {
		_, _, lagged = bystander.term.FinishedSince(bystander.cursor, nil)
	})
	if !lagged {
		t.Fatalf("a2's cursor is still on the ring after %d completions", ring+11)
	}

	oneTurnEach(t, sys, "a2")
	if n := bystander.ReplicaCount(); n != 0 {
		t.Errorf("a2 holds %d replicas after the turn that found it lagging", n)
	}
}

// TestSharedPacketIsNotMutated: a forward sends one packet to every eligible
// agent, and while they handle it (and the sender runs on, mutating its
// replica as results come back) nobody writes to it: its encoding is the same
// after the run as when it was sent. Run under -race, concurrent reads of
// the shared maps are fine and any write is reported.
func TestSharedPacketIsNotMutated(t *testing.T) {
	reg := model.NewRegistry()
	for _, p := range []string{"pa", "pb", "pc", "pd", "pe"} {
		reg.Register(p, model.NopProgram("O1"))
	}
	s := model.NewSchema("Fan", "I1").
		Step("A", "pa", model.WithInputs("WF.I1"), model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithAgents("a2", "a3")).
		Step("C", "pc", model.WithInputs("B.O1"), model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("D", "pd", model.WithInputs("C.O1"), model.WithOutputs("O1"), model.WithAgents("a2", "a3")).
		Step("E", "pe", model.WithInputs("D.O1"), model.WithAgents("a1")).
		Seq("A", "B", "C", "D", "E").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)

	type sent struct {
		pkt *Packet
		enc []byte
		to  []string
	}
	var mu sync.Mutex
	byPkt := make(map[*Packet]*sent)
	var w binenc.Walker
	sys.Network().Trace(func(m transport.Message) {
		p, ok := m.Payload.(*stepExecute)
		if !ok || m.From != "a1" {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		e := byPkt[p.Packet]
		if e == nil {
			e = &sent{pkt: p.Packet, enc: w.Append(nil, p)}
			byPkt[p.Packet] = e
		}
		e.to = append(e.to, m.To)
	})

	const n = 20
	ids := make([]int, n)
	for i := range ids {
		id, err := sys.Start("Fan", map[string]expr.Value{"I1": expr.Num(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if st, err := sys.Wait("Fan", id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("Fan.%d = (%v, %v)", id, st, err)
		}
	}
	sys.Network().Trace(nil)

	mu.Lock()
	defer mu.Unlock()
	shared := 0
	for _, e := range byPkt {
		if len(e.to) == 2 {
			shared++
		}
		if now := w.Append(nil, &stepExecute{Packet: e.pkt, Mechanism: metrics.Normal}); !bytes.Equal(now, e.enc) {
			t.Errorf("packet %s.%d for %s changed after it was sent to %v", e.pkt.Workflow, e.pkt.Instance, e.pkt.TargetStep, e.to)
		}
	}
	// Two fan-outs per instance (to B and to D), each one packet for a2 and a3.
	if shared != 2*n {
		t.Errorf("%d packets went to both eligible agents, want %d", shared, 2*n)
	}
}

// checkDoneRecords is the invariant that lets the merge alone keep the step
// table in step with the events: after every message turn, each valid done
// event of a schema step has a done record.
func checkDoneRecords(t *testing.T) func(a *Agent) {
	return func(a *Agent) {
		for key, r := range a.replicas {
			r.Ins.Events.RangeValid(func(name string) {
				id := model.StepID(event.StepOfDone(name))
				if id == "" || r.Schema.Steps[id] == nil {
					return
				}
				if rec := r.Ins.Steps[id]; rec == nil || rec.Status != wfdb.StepDone {
					st := "no record"
					if rec != nil {
						st = rec.Status.String()
					}
					t.Errorf("%s: %s.%d has %s valid with %s", a.Name(), key.Workflow, key.ID, name, st)
				}
			})
		}
	}
}

// TestDoneEventsHaveDoneRecords runs the scenario tests with the invariant
// checked after every message turn of every agent: normal navigation,
// branches, joins, loops, rollbacks with halt probes, compensation chains,
// aborts, input changes and nested instances.
func TestDoneEventsHaveDoneRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"Linear", TestLinearDistributedCommits},
		{"BranchJoin", TestParallelBranchJoinDistributed},
		{"IfThenElse", TestIfThenElseDistributed},
		{"Loop", TestLoopDistributed},
		{"Figure3", TestFigure3Distributed},
		{"OCRReuse", TestOCRReuseDistributed},
		{"CompensateSet", TestCompensateSetChainDistributed},
		{"UserAbort", TestUserAbortDistributed},
		{"InputChange", TestInputChangeDistributed},
		{"Nested", TestNestedDistributed},
		{"NestedChildFailure", TestNestedChildFailureFailsParentStep},
		{"HaltProbeOrder", TestHaltProbeOrderDeterministic},
		{"ManyInstances", TestManyInstancesDistributed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			afterMessage = checkDoneRecords(t)
			// Registered first, so it runs after the scenario's own cleanup
			// has stopped every agent that could still call the hook.
			t.Cleanup(func() { afterMessage = nil })
			tc.run(t)
		})
	}
}

// TestMergeFiltered pins the per-step merge of an incoming packet: what it
// posts, and which step records it marks done.
func TestMergeFiltered(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	s := model.NewSchema("M").
		Step("S1", "p", model.WithOutputs("O1")).
		Step("S2", "p", model.WithOutputs("O1")).
		Seq("S1", "S2").
		MustBuild()
	a := &Agent{cfg: Config{Name: "a1", Agents: []string{"a1"}}}
	var held, heldWas wfdb.StepRecord // the "held done event" row's record

	for _, tc := range []struct {
		name   string
		prep   func(r *replica)
		epoch  int
		want   wfdb.StepStatus
		posted bool
		check  func(t *testing.T, r *replica) // more, after the common checks
	}{
		{"fresh replica", func(*replica) {}, 0, wfdb.StepDone, true, nil},
		{"pending record", func(r *replica) { r.Ins.StepRec("S1") }, 0, wfdb.StepDone, true, nil},
		{"compensated record", func(r *replica) {
			r.Ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(1)})
			r.Ins.RecordCompensated("S1")
		}, 0, wfdb.StepDone, true, nil},
		{"failed record keeps its status", func(r *replica) { r.Ins.RecordFailed("S1") }, 0, wfdb.StepFailed, true, nil},
		{"stale epoch", func(r *replica) {
			r.Ins.StepRec("S1")
			r.epoch = 2
			r.markReset("S1", r.epoch)
		}, 1, wfdb.StepPending, false, nil},
		{"held done event", func(r *replica) {
			r.Ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(1)})
			held, heldWas = *r.Ins.Steps["S1"], *r.Ins.Steps["S1"]
			r.Ins.Steps["S1"] = &held
		}, 0, wfdb.StepDone, true, func(t *testing.T, r *replica) {
			if r.Ins.Steps["S1"] != &held || !reflect.DeepEqual(held, heldWas) || r.doneEpoch != nil {
				t.Errorf("a held done event touched its record (%+v, was %+v) or done epochs (%v)", held, heldWas, r.doneEpoch)
			}
		}},
		{"sender at resetMax", func(r *replica) {
			r.epoch = 1
			r.markReset("S1", r.epoch)
			r.epoch = 2
			r.markReset("S2", r.epoch)
		}, 2, wfdb.StepDone, true, func(t *testing.T, r *replica) {
			// Below resetMax the filter goes step by step: S1 was reset at
			// epoch 1 and merges from a sender at 1, S2 at 2 and does not.
			a.mergeFiltered(r, map[string]expr.Value{"S1.O1": expr.Num(8), "S2.O1": expr.Num(9)}, []string{"S2.done"}, 1)
			if v := r.Ins.Data["S1.O1"]; !v.Equal(expr.Num(8)) {
				t.Errorf("S1.O1 = %v from a sender at S1's reset epoch, want 8", v)
			}
			if _, ok := r.Ins.Data["S2.O1"]; ok || r.Ins.Events.Has("S2.done") {
				t.Error("a sender below S2's reset epoch merged S2's entries")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := a.newReplica(s, wfdb.NewInstance("M", 1, nil))
			tc.prep(r)
			data := map[string]expr.Value{"S1.O1": expr.Num(7)}
			grant := coord.GrantEventName("mx", coord.InstanceRef{Workflow: "M", ID: 1}, "S2")
			events := []string{event.WorkflowStartName, "S1.done", grant}
			a.mergeFiltered(r, data, events, tc.epoch)

			if got := r.Ins.Events.Has("S1.done"); got != tc.posted {
				t.Errorf("S1.done valid = %v, want %v", got, tc.posted)
			}
			if _, got := r.Ins.Data["S1.O1"]; got != tc.posted {
				t.Errorf("S1.O1 merged = %v, want %v", got, tc.posted)
			}
			if !r.Ins.Events.Has(event.WorkflowStartName) {
				t.Error("an event of no step was not merged")
			}
			if r.Ins.Events.Has(grant) {
				t.Error("another replica's mutex grant was merged")
			}
			if rec := r.Ins.Steps["S1"]; rec == nil || rec.Status != tc.want {
				t.Errorf("S1 record = %+v, want status %v", rec, tc.want)
			}
			if r.Ins.Steps["S2"] != nil {
				t.Error("a step the packet did not name got a record")
			}
			if tc.posted && r.doneEpoch["S1"] != tc.epoch {
				t.Errorf("doneEpoch[S1] = %d, want %d", r.doneEpoch["S1"], tc.epoch)
			}
			// The packet is only read.
			if len(data) != 1 || len(events) != 3 || events[1] != "S1.done" {
				t.Error("the merge wrote to the incoming state")
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}
