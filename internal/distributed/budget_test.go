package distributed

import (
	"slices"
	"sync/atomic"
	"testing"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// Allocation budgets of a replica's life at an agent: built by its first
// packet, fed packets it already holds, and probed by HaltThreads.
const (
	replicaBuildAllocs = 13 // getReplica and the merge of the first packet
	replicaReuseAllocs = 0  // the same, the replica built out of a spare
	heldMergeAllocs    = 0  // a merge of a packet the replica already holds
	haltAllocs         = 2  // a HaltThread with no done epoch: lastHalt, propagateHalts's list
)

// budgetAgent is the one agent of a system running a four-step chain.
func budgetAgent(t *testing.T) (*Agent, *model.Schema) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	s := model.NewSchema("Chain", "I1").
		Step("A", "p", model.WithOutputs("O1")).
		Step("B", "p", model.WithInputs("A.O1"), model.WithOutputs("O1")).
		Step("C", "p", model.WithInputs("B.O1"), model.WithOutputs("O1")).
		Step("D", "p", model.WithInputs("C.O1"), model.WithOutputs("O1")).
		Seq("A", "B", "C", "D").
		MustBuild()
	return newSystem(t, lib1(s), reg, "a1").Agent("a1"), s
}

// TestReplicaAllocBudget: a replica built by its first StepExecute packet,
// including the merge, a merge of a packet it already holds, and a
// HaltThread on a replica with no done epoch stay within their budgets; the
// invalidation set of a validated schema costs nothing.
func TestReplicaAllocBudget(t *testing.T) {
	a, s := budgetAgent(t)
	data := map[string]expr.Value{"WF.I1": expr.Num(1), "A.O1": expr.Num(2)}
	events := []string{event.WorkflowStartName, "A.done"}
	a.Do(func() {
		key := replicaKey("Chain", 1)
		build := testing.AllocsPerRun(100, func() {
			delete(a.replicas, key)
			r, err := a.getReplica("Chain", 1)
			if err != nil {
				t.Fatal(err)
			}
			a.mergeFiltered(r, data, events, 0)
		})
		r := a.replicas[key]
		held := testing.AllocsPerRun(100, func() { a.mergeFiltered(r, data, events, 0) })
		epoch := 0
		halt := testing.AllocsPerRun(100, func() {
			epoch++
			a.handleHaltThread(haltThread{Workflow: "Chain", Instance: 1, Origin: "A", Epoch: epoch, Mechanism: metrics.Failure})
		})
		set := testing.AllocsPerRun(100, func() { nav.InvalidationSet(s, "A") })
		delete(a.replicas, key)
		t.Logf("allocs: replica build %.0f, held merge %.0f, halt %.0f, invalidation set %.0f", build, held, halt, set)
		if build > replicaBuildAllocs {
			t.Errorf("a replica built by its first packet: %.0f allocs, budget %d", build, replicaBuildAllocs)
		}
		if held > heldMergeAllocs {
			t.Errorf("a merge of a packet the replica holds: %.0f allocs, budget %d", held, heldMergeAllocs)
		}
		if halt > haltAllocs {
			t.Errorf("a HaltThread with no done epoch: %.0f allocs, budget %d", halt, haltAllocs)
		}
		if set > 0 {
			t.Errorf("nav.InvalidationSet on a validated schema: %.0f allocs, want 0", set)
		}
	})
}

// TestReplicaReuseAllocBudget: a replica built out of a spare (the one of the
// instance before), with the merge of its first packet, stays within its
// budget. It calls reuseReplica where getReplica would take the spare from
// the pool: under the race detector the pool drops a put now and then, and
// the fresh build that follows would be counted.
func TestReplicaReuseAllocBudget(t *testing.T) {
	a, s := budgetAgent(t)
	data := map[string]expr.Value{"WF.I1": expr.Num(1), "A.O1": expr.Num(2)}
	events := []string{event.WorkflowStartName, "A.done"}
	a.Do(func() {
		r, err := a.getReplica("Chain", 1)
		if err != nil {
			t.Error(err)
			return
		}
		id := 1
		reuse := testing.AllocsPerRun(100, func() {
			delete(a.replicas, replicaKey("Chain", id))
			id++
			a.reuseReplica(r, s, id)
			a.replicas[replicaKey("Chain", id)] = r
			a.mergeFiltered(r, data, events, 0)
		})
		delete(a.replicas, replicaKey("Chain", id))
		t.Logf("allocs: replica reuse %.0f", reuse)
		if reuse > replicaReuseAllocs {
			t.Errorf("a replica built out of a spare by its first packet: %.0f allocs, budget %d", reuse, replicaReuseAllocs)
		}
	})
}

// TestInvalidationSetsSurviveRollbacks runs rollbacks and the HaltThread
// probes they send on a validated schema, then checks every invalidation set the
// schema caches: it still equals a fresh walk of the graph, its cap is its
// len, and an append to it leaves the cache as it was.
func TestInvalidationSetsSurviveRollbacks(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	reg.Register("f", model.FailNTimes(2, model.NopProgram("O1")))
	s := model.NewSchema("Halts", "I1").
		Step("A", "p", model.WithAgents("a1")).
		Step("B", "p", model.WithAgents("a2")).
		Step("C", "p", model.WithAgents("a3")).
		Step("F", "f", model.WithAgents("a1")).
		Arc("A", "B").Arc("A", "C").Arc("B", "F").Arc("C", "F").
		OnFailure("F", "A", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg, "a1", "a2", "a3")
	var halts atomic.Int64
	sys.Network().Trace(func(m transport.Message) {
		if _, ok := m.Payload.(*haltThread); ok {
			halts.Add(1)
		}
	})
	for i := 0; i < 3; i++ {
		runToStatus(t, sys, "Halts", nil, wfdb.Committed)
	}
	sys.Network().Trace(nil)
	if halts.Load() == 0 {
		t.Fatal("no HaltThread was sent")
	}
	// A probe arriving after the re-executed thread passed through B: B is
	// filtered out of the set, and the rest reset.
	a := sys.Agent("a2")
	a.Do(func() {
		r, err := a.getReplica("Halts", 99)
		if err != nil {
			t.Fatal(err)
		}
		r.epoch = 2
		r.markDone("B", 2)
		a.handleHaltThread(haltThread{Workflow: "Halts", Instance: 99, Origin: "A", Epoch: 2, Mechanism: metrics.Failure})
		if r.resetEpoch["B"] != 0 || r.resetEpoch["C"] != 2 || r.resetEpoch["F"] != 2 {
			t.Errorf("reset epochs %v after a probe at 2 with B done at 2, want C and F at 2", r.resetEpoch)
		}
		a.dropReplica(r)
	})
	for _, id := range s.Order {
		want := freshDescendants(s, id)
		set := nav.InvalidationSet(s, id)
		if !slices.Equal(set, want) || cap(set) != len(set) {
			t.Errorf("InvalidationSet(%s) = %v (cap %d), want %v with cap == len", id, set, cap(set), want)
		}
		grown := append(set, "X")
		grown[0] = "Y"
		if got := nav.InvalidationSet(s, id); !slices.Equal(got, want) {
			t.Errorf("an append to InvalidationSet(%s) wrote into the cache: %v", id, got)
		}
	}
}

// freshDescendants walks the schema's non-loop control arcs from origin and
// lists what it reaches in schema order.
func freshDescendants(s *model.Schema, origin model.StepID) []model.StepID {
	seen := map[model.StepID]bool{}
	for todo := []model.StepID{origin}; len(todo) > 0; todo = todo[1:] {
		for _, a := range s.Arcs {
			if a.Kind == model.Control && !a.Loop && a.From == todo[0] && !seen[a.To] {
				seen[a.To] = true
				todo = append(todo, a.To)
			}
		}
	}
	return slices.DeleteFunc(slices.Clone(s.Order), func(id model.StepID) bool { return !seen[id] })
}
