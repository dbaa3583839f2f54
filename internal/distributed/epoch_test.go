package distributed

import (
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/wfdb"
)

// TestNextEpoch: a new rollback epoch lies above every epoch its issuer has
// seen, and two agents issuing from one epoch get two, ordered by agent index.
func TestNextEpoch(t *testing.T) {
	agent := func(index int) *Agent { return &Agent{self: index} }
	for _, c := range []struct {
		name   string
		lo, hi func() int // want lo() < hi()
	}{
		{"above the epoch seen, issued by a higher index",
			func() int { return agent(7).nextEpoch(0) },
			func() int { return agent(3).nextEpoch(agent(7).nextEpoch(0)) }},
		{"two agents from one epoch, ordered by index",
			func() int { return agent(2).nextEpoch(agent(5).nextEpoch(0)) },
			func() int { return agent(8).nextEpoch(agent(5).nextEpoch(0)) }},
		{"a replica recovered from its row issues above the saved epoch",
			func() int { return agent(9).nextEpoch(agent(9).nextEpoch(0)) },
			func() int {
				db := wfdb.NewMemory()
				ins := wfdb.NewInstance("Tie", 1, nil)
				ins.Epoch = agent(9).nextEpoch(agent(9).nextEpoch(0))
				if err := db.SaveInstance(ins); err != nil {
					t.Fatal(err)
				}
				back, ok, err := db.LoadInstance("Tie", 1)
				if err != nil || !ok {
					t.Fatalf("LoadInstance = (%v, %v)", ok, err)
				}
				return agent(1).nextEpoch(back.Epoch) // r.epoch = ins.Epoch, as RecoverReplicas sets it
			}},
		{"an epoch counted by an older build is exceeded",
			func() int { return 41 },
			func() int { return agent(1).nextEpoch(41) }},
	} {
		if lo, hi := c.lo(), c.hi(); lo >= hi {
			t.Errorf("%s: %d is not below %d", c.name, lo, hi)
		}
	}
}

// TestNewAgentRejectsUnindexableConfig: an agent must find itself in the
// deployment's agent list, and the list must fit the epoch's agent field.
// Both are refused before anything is built or started.
func TestNewAgentRejectsUnindexableConfig(t *testing.T) {
	base := Config{Library: model.NewLibrary(), Programs: model.NewRegistry(), Terminal: new(itable.Terminal)}
	huge := make([]string, maxAgents+1)
	for i := range huge {
		huge[i] = fmt.Sprintf("a%d", i)
	}
	for _, c := range []struct {
		name   string
		self   string
		agents []string
	}{
		{"name not in the agent list", "a9", []string{"a1", "a2"}},
		{"more agents than the epoch can index", "a0", huge},
	} {
		cfg := base
		cfg.Name, cfg.Agents = c.self, c.agents
		if _, err := NewAgent(cfg, nil); !errors.Is(err, cerrors.ErrInvalidConfig) {
			t.Errorf("%s: NewAgent error %v, want ErrInvalidConfig", c.name, err)
		}
	}
}

// tieSchema is A at a1, the coordination agent, then S1 -> S3 -> T1 and
// S1 -> T2, terminals T1 and T2 at a4. S1 runs at outer and S3 at inner, so
// a rollback to S1 is handled at outer and one to S3, nested inside it, at
// inner.
func tieSchema(outer, inner string) *model.Library {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	s := model.NewSchema("Tie").
		Step("A", "p", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("S1", "p", model.WithOutputs("O1"), model.WithAgents(outer)).
		Step("S3", "p", model.WithOutputs("O1"), model.WithAgents(inner)).
		Step("T1", "p", model.WithOutputs("O1"), model.WithAgents("a4")).
		Step("T2", "p", model.WithOutputs("O1"), model.WithAgents("a4")).
		Arc("A", "S1").Arc("S1", "S3").Arc("S3", "T1").Arc("S1", "T2").
		MustBuild()
	return lib1(s)
}

// TestTiedRollbacksEndTheSameInEveryOrder replays the shape of a traced
// stress hang: two rollbacks of one instance, to nested origins (S3 inside
// S1), handled at two agents that had both seen the same epoch e. T2 had
// reported at e and T1 failed, which rolled back to S3; a rollback to S1
// came from elsewhere. The coordination agent then receives both HaltThread
// floods and three re-executed terminal reports: T1 after the S3 rollback,
// T1 again after the S1 rollback (that thread passed S3's agent, which had
// issued the S3 epoch, so it carries the larger of the two), and T2 after
// the S1 rollback. Every one of the 120 delivery orders, with either agent
// holding the larger index, must end the instance committed with the same
// data.
func TestTiedRollbacksEndTheSameInEveryOrder(t *testing.T) {
	val := func(step string) expr.Value { return expr.Str(step + " output") }
	report := func(step model.StepID, epoch int, steps ...string) stepCompleted {
		p := stepCompleted{Workflow: "Tie", Step: step, Epoch: epoch, Data: map[string]expr.Value{}}
		for _, s := range steps {
			p.Data[s+".O1"] = val(s)
			p.Events = append(p.Events, s+".done")
		}
		return p
	}
	want := report("", 0, "A", "S1", "S3", "T1", "T2").Data

	for _, placement := range []struct{ outer, inner string }{{"a2", "a3"}, {"a3", "a2"}} {
		lib := tieSchema(placement.outer, placement.inner)
		sys := newSweptSystem(t, SystemConfig{Library: lib, Programs: model.NewRegistry(), Agents: []string{"a1", "a2", "a3", "a4"}}, time.Hour)
		e := sys.Agent("a4").nextEpoch(0) // an earlier rollback both agents saw
		eOuter := sys.Agent(placement.outer).nextEpoch(e)
		eInner := sys.Agent(placement.inner).nextEpoch(e)
		if eOuter == eInner {
			t.Errorf("rollbacks issued at %s and %s from epoch %d both got epoch %d", placement.outer, placement.inner, e, eOuter)
		}
		deliveries := []func(*Agent, int){
			func(a *Agent, id int) { // the S3 rollback's flood
				a.handleHaltThread(haltThread{Workflow: "Tie", Instance: id, Origin: "S3", Step: "T1", Epoch: eInner, Mechanism: metrics.Failure})
			},
			func(a *Agent, id int) { // the S1 rollback's flood
				a.handleHaltThread(haltThread{Workflow: "Tie", Instance: id, Origin: "S1", Step: "T2", Epoch: eOuter, Mechanism: metrics.Failure})
			},
			func(a *Agent, id int) { // T1 re-executed after the S3 rollback
				p := report("T1", eInner, "A", "S1", "S3", "T1")
				p.Instance = id
				a.handleStepCompleted(p)
			},
			func(a *Agent, id int) { // T1 re-executed after the S1 rollback
				p := report("T1", max(eInner, eOuter), "A", "S1", "S3", "T1")
				p.Instance = id
				a.handleStepCompleted(p)
			},
			func(a *Agent, id int) { // T2 re-executed after the S1 rollback
				p := report("T2", eOuter, "A", "S1", "T2")
				p.Instance = id
				a.handleStepCompleted(p)
			},
		}
		a := sys.Agent("a1")
		id := 0
		permute(len(deliveries), func(order []int) {
			id++
			a.Do(func() {
				r, err := a.getReplica("Tie", id)
				if err != nil {
					t.Fatal(err)
				}
				r.coordinator, r.epoch = "a1", e
				before := report("T2", e, "A", "S1", "T2")
				before.Instance = id
				a.handleStepCompleted(before)
				for _, d := range order {
					deliveries[d](a, id)
				}
				if st := r.Ins.Status; st != wfdb.Committed || !maps.EqualFunc(r.Ins.Data, want, expr.Value.Equal) {
					t.Errorf("S1 at %s, S3 at %s, order %v: instance %v with data %v, want committed with %v",
						placement.outer, placement.inner, order, st, r.Ins.Data, want)
				}
				if a.replicas[replicaKey("Tie", id)] != nil {
					t.Errorf("S1 at %s, S3 at %s, order %v: the instance did not end", placement.outer, placement.inner, order)
				}
			})
		})
	}
}

// permute calls f with every ordering of 0..n-1.
func permute(n int, f func([]int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(0)
}
