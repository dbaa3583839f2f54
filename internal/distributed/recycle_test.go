package distributed

import (
	"context"
	"maps"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"crew/internal/binenc"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/wfdb"
)

// replicaView is what a replica holds, with each map, table and slice down to
// its size and the instance down to its row, so that a replica built afresh
// and one emptied in place compare equal when they hold the same.
type replicaView struct {
	agent                         *Agent
	schema                        *model.Schema
	site                          *nav.Site
	recovery                      metrics.Mechanism
	retired, dirty, abort, halt   bool
	coordinator, parentAgent      string
	epoch, resetMax               int
	waits, resetEpoch, doneEpoch  int
	handledHalts, rollbacks, gate int
	eventSeq                      int
	row                           string
}

func viewOf(r *replica) replicaView {
	return replicaView{
		agent: r.a, schema: r.Schema, site: r.Site, recovery: r.Recovery,
		retired: r.Retired, dirty: r.dirty, abort: r.abort != nil, halt: r.lastHalt != nil,
		coordinator: r.coordinator, parentAgent: r.parentAgent,
		epoch: r.epoch, resetMax: r.resetMax,
		waits: len(r.waits), resetEpoch: len(r.resetEpoch), doneEpoch: len(r.doneEpoch),
		handledHalts: len(r.handledHalts), rollbacks: len(r.Rollbacks),
		gate:     reflect.ValueOf(r.Gate).Field(0).Len(), // the gate's steps
		eventSeq: r.Ins.Events.Seq(),
		row:      string(new(binenc.Walker).Append(nil, r.Ins)),
	}
}

// TestRecycledReplicaIsFresh takes replicas through a rollback, the HaltThread
// it sends, two coordinated steps and an abort, then builds replicas out of
// them as spares. Each must equal a replica built afresh for the same
// instance: epoch 0, empty tables and maps, an empty gate, every rule
// unfired and the same row. The collector is off for the test, so the spares
// stay in the pool; it starts empty, so every spare is one the deployment
// used, as the agents' turns record.
func TestRecycledReplicaIsFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for spares.Get() != nil {
	}
	var mu sync.Mutex
	used := map[*replica]bool{}
	afterMessage = func(a *Agent) {
		mu.Lock()
		for _, r := range a.replicas {
			used[r] = true
		}
		mu.Unlock()
	}
	// Registered first, so it runs after the deployment has stopped.
	t.Cleanup(func() { afterMessage = nil })
	rec := &recorder{}
	release := make(chan struct{})
	defer close(release)
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(1)}))
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("pb", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		if ctx.Attempt == 1 {
			return nil, model.Fail("first try")
		}
		return map[string]expr.Value{"O1": expr.Num(2)}, nil
	})
	reg.Register("pm", func(*model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("m")
		<-release
		return nil, nil
	})
	reg.Register("cm", tracked(rec, "cm", nil))
	s := model.NewSchema("Life", "I1").
		Step("A", "pa", model.WithOutputs("O1"), model.WithCompensation("ca"), model.WithAgents("a1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithAgents("a2")).
		Step("M", "pm", model.WithInputs("B.O1"), model.WithCompensation("cm"), model.WithAgents("a3")).
		Seq("A", "B", "M").
		OnFailure("B", "A", 3).
		MustBuild()
	lib := lib1(s)
	lib.AddCoord(model.CoordSpec{Kind: model.Mutex, Name: "res", MutexSteps: []model.StepRef{
		{Workflow: "Life", Step: "B"}, {Workflow: "Life", Step: "M"},
	}})
	sys := newSweptSystem(t, SystemConfig{Library: lib, Programs: reg, Agents: []string{"a1", "a2", "a3"}}, time.Hour)

	// Each instance fails B once, rolls back to A (a HaltThread reaches a2),
	// passes the mutex at B and M, and is aborted while M runs.
	for i := 1; i <= 4; i++ {
		id, err := sys.Start("Life", map[string]expr.Value{"I1": expr.Num(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "M running", func() bool { return rec.count("m") == i })
		if err := sys.Abort("Life", id); err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		if st, err := sys.Wait("Life", id, waitTimeout); err != nil || st != wfdb.Aborted {
			t.Fatalf("Life.%d = (%v, %v), want aborted; ran %v", id, st, err, rec.list())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := sys.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if n := rec.count("ca"); n != 4 {
		t.Fatalf("A compensated %d times in 4 aborts: %v", n, rec.list())
	}

	// Hand the spares back one at a time, each until getReplica builds out of
	// it: the race detector has the pool drop a put now and then.
	var taken []*replica
	for r, _ := spares.Get().(*replica); r != nil; r, _ = spares.Get().(*replica) {
		taken = append(taken, r)
	}
	if len(taken) == 0 {
		t.Fatal("no replica was left in the pool")
	}
	mu.Lock()
	seen := maps.Clone(used)
	mu.Unlock()
	a := sys.Agent("a1")
	a.Do(func() {
		for i, spare := range taken {
			if !seen[spare] {
				t.Errorf("spare %p held no replica of the deployment's instances", spare)
			}
			id := 1000 + i
			var got *replica
			for try := 0; try < 20 && got != spare; try++ {
				if got != nil {
					a.dropReplica(got) // built afresh: the put was dropped
				}
				spares.Put(spare)
				var err error
				if got, err = a.getReplica("Life", id); err != nil {
					t.Error(err)
					return
				}
			}
			if got != spare {
				t.Errorf("spare %p was never built into a replica", spare)
				continue
			}
			fresh := a.newReplica(s, wfdb.NewInstanceOf(s, id, nil))
			if g, f := viewOf(got), viewOf(fresh); g != f {
				t.Errorf("recycled replica\n%+v\nwant\n%+v", g, f)
			}
			if !reflect.DeepEqual(got.Rules, fresh.Rules) {
				t.Errorf("recycled replica's rules differ from a fresh replica's")
			}
			a.dropReplica(got)
		}
	})
}
