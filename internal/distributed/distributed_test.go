package distributed

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

const waitTimeout = 5 * time.Second

type recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *recorder) add(s string) {
	r.mu.Lock()
	r.events = append(r.events, s)
	r.mu.Unlock()
}

func (r *recorder) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func (r *recorder) count(s string) int {
	n := 0
	for _, e := range r.list() {
		if e == s {
			n++
		}
	}
	return n
}

func (r *recorder) index(s string) int {
	for i, e := range r.list() {
		if e == s {
			return i
		}
	}
	return -1
}

func (r *recorder) waitFor(t *testing.T, s string) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for r.count(s) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%q never happened: %v", s, r.list())
		}
		time.Sleep(time.Millisecond)
	}
}

func tracked(rec *recorder, name string, outputs map[string]expr.Value) model.Program {
	return func(*model.ProgramContext) (map[string]expr.Value, error) {
		rec.add(name)
		out := make(map[string]expr.Value, len(outputs))
		for k, v := range outputs {
			out[k] = v
		}
		return out, nil
	}
}

func newSystem(t *testing.T, lib *model.Library, reg *model.Registry, agents ...string) *System {
	t.Helper()
	if len(agents) == 0 {
		agents = []string{"a1", "a2", "a3"}
	}
	sys, err := NewSystem(SystemConfig{
		Library:   lib,
		Programs:  reg,
		Collector: metrics.NewCollector(),
		Agents:    agents,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func lib1(schemas ...*model.Schema) *model.Library {
	lib := model.NewLibrary()
	for _, s := range schemas {
		lib.Add(s)
	}
	return lib
}

func runToStatus(t *testing.T, sys *System, wf string, inputs map[string]expr.Value, want wfdb.Status) int {
	t.Helper()
	id, st, err := sys.Run(wf, inputs, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st != want {
		t.Fatalf("instance %s.%d finished %v, want %v", wf, id, st, want)
	}
	return id
}

func TestLinearDistributedCommits(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(1)}))
	reg.Register("pb", tracked(rec, "b", map[string]expr.Value{"O1": expr.Num(2)}))
	reg.Register("pc", tracked(rec, "c", nil))
	s := model.NewSchema("Lin", "I1").
		Step("A", "pa", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithAgents("a2")).
		Step("C", "pc", model.WithInputs("B.O1", "WF.I1"), model.WithAgents("a3")).
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(90)}, wfdb.Committed)

	got := rec.list()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("execution order = %v", got)
	}
	// The coordination agent (a1, executor of the first start step) has the
	// committed state.
	snap, ok := sys.SnapshotAt("a1", "Lin", id)
	if !ok {
		t.Fatal("no snapshot at coordination agent")
	}
	if snap.Status != wfdb.Committed {
		t.Errorf("status at coordination agent = %v", snap.Status)
	}
	if !snap.Data["B.O1"].Equal(expr.Num(2)) {
		t.Errorf("commit snapshot data = %v", snap.Data)
	}
	if st, ok := sys.Status("Lin", id); !ok || st != wfdb.Committed {
		t.Errorf("Status = (%v, %v)", st, ok)
	}
}

// TestMessageCountMatchesDistributedModel pins steps so every forwarded
// packet crosses the network: the paper's normal-execution count is
// s·a + f messages per instance.
func TestMessageCountMatchesDistributedModel(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	for _, p := range []string{"pa", "pb", "pc"} {
		reg.Register(p, tracked(rec, p, nil))
	}
	// A runs at a1 (coordination agent). B eligible {a2,a3}: 2 packets.
	// C eligible {a4,a5}: 2 packets. C terminal: 1 StepCompleted to a1.
	s := model.NewSchema("Msg").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2", "a3")).
		Step("C", "pc", model.WithAgents("a4", "a5")).
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg, "a1", "a2", "a3", "a4", "a5")
	runToStatus(t, sys, "Msg", nil, wfdb.Committed)

	deadline := time.Now().Add(waitTimeout)
	for sys.Collector().Messages(metrics.Normal) < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sys.Collector().Messages(metrics.Normal); got != 5 {
		t.Errorf("normal messages = %d, want s·a + f = 2·2 + 1 = 5", got)
	}
	if got := sys.Collector().Messages(metrics.Coordination); got != 0 {
		t.Errorf("coordination messages = %d, want 0", got)
	}
}

func TestParallelBranchJoinDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	for _, p := range []string{"pa", "pb", "pc", "pd"} {
		reg.Register(p, tracked(rec, p, nil))
	}
	s := model.NewSchema("Dia").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2")).
		Step("C", "pc", model.WithAgents("a3")).
		Step("D", "pd", model.WithJoin(model.JoinAll), model.WithAgents("a2")).
		Arc("A", "B").Arc("A", "C").Arc("B", "D").Arc("C", "D").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "Dia", nil, wfdb.Committed)
	if rec.count("pd") != 1 {
		t.Errorf("join executed %d times: %v", rec.count("pd"), rec.list())
	}
	if rec.index("pd") != 3 {
		t.Errorf("join must run last: %v", rec.list())
	}
}

func TestIfThenElseDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(7)}))
	reg.Register("ptop", tracked(rec, "top", nil))
	reg.Register("pbot", tracked(rec, "bot", nil))
	reg.Register("pj", tracked(rec, "join", nil))
	s := model.NewSchema("ITE").
		Step("A", "pa", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("T", "ptop", model.WithAgents("a2")).
		Step("B", "pbot", model.WithAgents("a3")).
		Step("J", "pj", model.WithJoin(model.JoinAny), model.WithAgents("a2")).
		CondArc("A", "T", "A.O1 > 0").
		CondArc("A", "B", "A.O1 <= 0").
		Arc("T", "J").Arc("B", "J").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "ITE", nil, wfdb.Committed)
	if rec.count("top") != 1 || rec.count("bot") != 0 {
		t.Errorf("branch execution = %v", rec.list())
	}
}

func TestLoopDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	var mu sync.Mutex
	counter := 0.0
	reg.Register("pinc", func(*model.ProgramContext) (map[string]expr.Value, error) {
		mu.Lock()
		counter++
		v := counter
		mu.Unlock()
		rec.add("inc")
		return map[string]expr.Value{"O1": expr.Num(v)}, nil
	})
	reg.Register("pend", tracked(rec, "end", nil))
	s := model.NewSchema("Loop").
		Step("I", "pinc", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("E", "pend", model.WithInputs("I.O1"), model.WithAgents("a2")).
		Arc("I", "E").
		LoopArc("I", "I", "I.O1 < 3").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id := runToStatus(t, sys, "Loop", nil, wfdb.Committed)
	if rec.count("inc") != 3 {
		t.Errorf("loop body executed %d times, want 3", rec.count("inc"))
	}
	snap, _ := sys.Snapshot("Loop", id)
	if !snap.Data["I.O1"].Equal(expr.Num(3)) {
		t.Errorf("final I.O1 = %v", snap.Data["I.O1"])
	}
}

// TestFigure3Distributed reproduces the paper's Figure 3 in distributed
// control: the failing agent invokes WorkflowRollback at the origin's agent,
// HaltThread probes quiesce the affected thread, and after the branch switch
// a CompensateThread undoes the abandoned branch.
func TestFigure3Distributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("p1", tracked(rec, "s1", nil))
	reg.Register("p2", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("s2")
		if ctx.Attempt <= 1 {
			return map[string]expr.Value{"O1": expr.Num(5)}, nil
		}
		return map[string]expr.Value{"O1": expr.Num(-1)}, nil
	})
	reg.Register("c2", tracked(rec, "c2", nil))
	reg.Register("p3", tracked(rec, "s3", nil))
	reg.Register("c3", tracked(rec, "c3", nil))
	reg.Register("p4", model.FailNTimes(1, tracked(rec, "s4", nil)))
	reg.Register("p6", tracked(rec, "s6", nil))
	reg.Register("p5", tracked(rec, "s5", nil))
	s := model.NewSchema("Fig3", "I1").
		Step("S1", "p1", model.WithAgents("a1")).
		Step("S2", "p2", model.WithOutputs("O1"), model.WithCompensation("c2"),
			model.WithReexecCond("true"), model.WithAgents("a2")).
		Step("S3", "p3", model.WithCompensation("c3"), model.WithAgents("a3")).
		Step("S4", "p4", model.WithAgents("a1")).
		Step("S6", "p6", model.WithAgents("a3")).
		Step("S5", "p5", model.WithJoin(model.JoinAny), model.WithAgents("a2")).
		Seq("S1", "S2").
		CondArc("S2", "S3", "S2.O1 > 0").
		CondArc("S2", "S6", "S2.O1 <= 0").
		Arc("S3", "S4").Arc("S4", "S5").Arc("S6", "S5").
		OnFailure("S4", "S2", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "Fig3", nil, wfdb.Committed)

	if rec.count("s2") != 2 || rec.count("c2") != 1 {
		t.Errorf("S2 exec/comp = %d/%d, want 2/1: %v", rec.count("s2"), rec.count("c2"), rec.list())
	}
	if rec.count("c3") != 1 {
		t.Errorf("abandoned S3 compensated %d times, want 1: %v", rec.count("c3"), rec.list())
	}
	if rec.count("s6") != 1 || rec.count("s5") != 1 {
		t.Errorf("bottom branch not taken: %v", rec.list())
	}
	if sys.Collector().Messages(metrics.Failure) == 0 {
		t.Error("no failure-handling messages counted")
	}
}

func TestOCRReuseDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(7)}))
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("pb", model.FailNTimes(1, tracked(rec, "b", nil)))
	reg.Register("pc", tracked(rec, "c", nil))
	s := model.NewSchema("Reuse").
		Step("A", "pa", model.WithOutputs("O1"), model.WithCompensation("ca"), model.WithAgents("a1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithAgents("a2")).
		Step("C", "pc", model.WithAgents("a3")).
		Seq("A", "B", "C").
		OnFailure("B", "A", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "Reuse", nil, wfdb.Committed)

	if rec.count("a") != 1 || rec.count("ca") != 0 {
		t.Errorf("A should be reused without compensation: %v", rec.list())
	}
	if rec.count("c") != 1 {
		t.Errorf("C executed %d times: %v", rec.count("c"), rec.list())
	}
}

// TestCompensateSetChainDistributed drives the CompensateSet WI chain across
// three agents in reverse execution order.
func TestCompensateSetChainDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	for _, n := range []string{"pa", "pb", "pc"} {
		n := n
		reg.Register(n, func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
			rec.add(n)
			return map[string]expr.Value{"O1": expr.Num(float64(ctx.Attempt))}, nil
		})
	}
	for _, n := range []string{"ca", "cb", "cc"} {
		reg.Register(n, tracked(rec, n, nil))
	}
	reg.Register("pd", model.FailNTimes(1, tracked(rec, "pd", nil)))
	s := model.NewSchema("CSet").
		Step("A", "pa", model.WithOutputs("O1"), model.WithCompensation("ca"),
			model.WithReexecCond("true"), model.WithAgents("a1")).
		Step("B", "pb", model.WithOutputs("O1"), model.WithCompensation("cb"),
			model.WithReexecCond("true"), model.WithAgents("a2")).
		Step("C", "pc", model.WithOutputs("O1"), model.WithCompensation("cc"),
			model.WithReexecCond("true"), model.WithAgents("a3")).
		Step("D", "pd", model.WithAgents("a1")).
		Seq("A", "B", "C", "D").
		CompSet("A", "B", "C").
		OnFailure("D", "A", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "CSet", nil, wfdb.Committed)

	ic, ib, ia := rec.index("cc"), rec.index("cb"), rec.index("ca")
	if ic < 0 || ib < 0 || ia < 0 || !(ic < ib && ib < ia) {
		t.Errorf("compensation order wrong: %v", rec.list())
	}
	for _, n := range []string{"pa", "pb", "pc"} {
		if rec.count(n) != 2 {
			t.Errorf("%s executed %d times, want 2: %v", n, rec.count(n), rec.list())
		}
	}
}

func TestUserAbortDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	reg.Register("pc", func(*model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("c")
		<-gate
		return nil, nil
	})
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("cb", tracked(rec, "cb", nil))
	s := model.NewSchema("Ab").
		Step("A", "pa", model.WithCompensation("ca"), model.WithAgents("a1")).
		Step("B", "pb", model.WithCompensation("cb"), model.WithAgents("a2")).
		Step("C", "pc", model.WithAgents("a3")).
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id, err := sys.Start("Ab", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "c")
	if err := sys.Abort("Ab", id); err != nil {
		t.Fatal(err)
	}
	st, err := sys.Wait("Ab", id, waitTimeout)
	close(gate)
	if err != nil || st != wfdb.Aborted {
		t.Fatalf("abort = (%v, %v)", st, err)
	}
	ib, ia := rec.index("cb"), rec.index("ca")
	if ib < 0 || ia < 0 || ib > ia {
		t.Errorf("compensations out of order: %v", rec.list())
	}
	if sys.Collector().Messages(metrics.Abort) == 0 {
		t.Error("no abort messages counted")
	}
	if err := sys.Abort("Ab", id); err == nil {
		t.Error("second abort should fail")
	}
}

func TestInputChangeDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	var gateOnce sync.Once
	reg.Register("pa", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("a")
		v, _ := ctx.Inputs["WF.I1"].AsNum()
		return map[string]expr.Value{"O1": expr.Num(v * 2)}, nil
	})
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("pb", func(*model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("b")
		gateOnce.Do(func() { <-gate })
		return nil, nil
	})
	s := model.NewSchema("IC", "I1").
		Step("A", "pa", model.WithInputs("WF.I1"), model.WithOutputs("O1"),
			model.WithCompensation("ca"), model.WithAgents("a1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id, err := sys.Start("IC", map[string]expr.Value{"I1": expr.Num(10)})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "b")
	if err := sys.ChangeInputs("IC", id, map[string]expr.Value{"I1": expr.Num(20)}); err != nil {
		t.Fatal(err)
	}
	// Let the rollback land at a1 before releasing B.
	deadline := time.Now().Add(waitTimeout)
	for rec.count("a") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	st, err := sys.Wait("IC", id, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("wait = (%v, %v)", st, err)
	}
	snap, _ := sys.Snapshot("IC", id)
	if !snap.Data["A.O1"].Equal(expr.Num(40)) {
		t.Errorf("A.O1 = %v, want 40", snap.Data["A.O1"])
	}
	if rec.count("a") != 2 || rec.count("ca") != 1 {
		t.Errorf("a=%d ca=%d, want 2/1: %v", rec.count("a"), rec.count("ca"), rec.list())
	}
	if sys.Collector().Messages(metrics.InputChange) == 0 {
		t.Error("no input-change messages counted")
	}
}

func TestRelativeOrderDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	reg.Register("pa1", tracked(rec, "a1", nil))
	reg.Register("pb1", tracked(rec, "b1", nil))
	reg.Register("pa2", tracked(rec, "a2", nil))
	reg.Register("pb2", func(*model.ProgramContext) (map[string]expr.Value, error) {
		<-gate
		rec.add("b2")
		return nil, nil
	})
	wf1 := model.NewSchema("O1").
		Step("A1", "pa1", model.WithAgents("a2")).
		Step("B1", "pb1", model.WithAgents("a2")).
		Seq("A1", "B1").MustBuild()
	wf2 := model.NewSchema("O2").
		Step("A2", "pa2", model.WithAgents("a3")).
		Step("B2", "pb2", model.WithAgents("a3")).
		Seq("A2", "B2").MustBuild()
	lib := lib1(wf1, wf2)
	lib.AddCoord(model.CoordSpec{
		Kind: model.RelativeOrder,
		Name: "orders",
		Pairs: []model.ConflictPair{
			{A: model.StepRef{Workflow: "O1", Step: "A1"}, B: model.StepRef{Workflow: "O2", Step: "A2"}},
			{A: model.StepRef{Workflow: "O1", Step: "B1"}, B: model.StepRef{Workflow: "O2", Step: "B2"}},
		},
	})
	// a1 is the home agent (sorted first) and runs no steps.
	sys := newSystem(t, lib, reg)
	// Released on every exit path, and before the system closes (cleanups run
	// last-registered first): a failed check must not leave pb2 blocking an
	// agent's turn, which Close would wait for.
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)

	id2, err := sys.Start("O2", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "a2")
	id1, err := sys.Start("O1", nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if rec.count("b1") != 0 {
		t.Fatalf("lagging B1 ran before leading B2: %v", rec.list())
	}
	release()
	if st, err := sys.Wait("O2", id2, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("O2 = (%v, %v)", st, err)
	}
	if st, err := sys.Wait("O1", id1, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("O1 = (%v, %v)", st, err)
	}
	if rec.index("b2") > rec.index("b1") {
		t.Errorf("relative order violated: %v", rec.list())
	}
	// Distributed coordination costs physical messages (Table 6 vs 4).
	if sys.Collector().Messages(metrics.Coordination) == 0 {
		t.Error("expected coordination messages in distributed control")
	}
}

// critCounter counts the programs inside a mutex's critical section at once.
type critCounter struct {
	mu           sync.Mutex
	inside, most int
}

// run is a step program that stays inside for 10 ms.
func (c *critCounter) run(*model.ProgramContext) (map[string]expr.Value, error) {
	c.mu.Lock()
	c.inside++
	c.most = max(c.most, c.inside)
	c.mu.Unlock()
	time.Sleep(10 * time.Millisecond)
	c.mu.Lock()
	c.inside--
	c.mu.Unlock()
	return nil, nil
}

func (c *critCounter) peak() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.most
}

func TestMutexDistributed(t *testing.T) {
	reg := model.NewRegistry()
	var crit critCounter
	reg.Register("px", crit.run)
	reg.Register("py", crit.run)
	a := model.NewSchema("MA").Step("X", "px", model.WithAgents("a2")).MustBuild()
	b := model.NewSchema("MB").Step("Y", "py", model.WithAgents("a3")).MustBuild()
	lib := lib1(a, b)
	lib.AddCoord(model.CoordSpec{
		Kind: model.Mutex,
		Name: "res",
		MutexSteps: []model.StepRef{
			{Workflow: "MA", Step: "X"},
			{Workflow: "MB", Step: "Y"},
		},
	})
	sys := newSystem(t, lib, reg)

	type ref struct {
		wf string
		id int
	}
	var refs []ref
	for i := 0; i < 3; i++ {
		ida, err := sys.Start("MA", nil)
		if err != nil {
			t.Fatal(err)
		}
		idb, err := sys.Start("MB", nil)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref{"MA", ida}, ref{"MB", idb})
	}
	for _, r := range refs {
		if st, err := sys.Wait(r.wf, r.id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("%s.%d = (%v, %v)", r.wf, r.id, st, err)
		}
	}
	if n := crit.peak(); n != 1 {
		t.Errorf("max concurrent critical sections = %d, want 1", n)
	}
}

// TestPausedStreamReleasesMutexWaiter: a held step is released by the event
// it waits for, with no timer involved. Two instances contend for a mutex
// whose steps run at a2 and a3; the holder then fails a later step once at
// a1 and rolls back past its mutex step, and nothing else is started. The
// sweep is an hour away, so only the coordination protocol can bring both
// to commit.
func TestPausedStreamReleasesMutexWaiter(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	var crit critCounter
	reg.Register("pr", tracked(rec, "r", nil))
	reg.Register("px", crit.run)
	reg.Register("py", crit.run)
	failOnce := model.FailNTimes(1, tracked(rec, "f", nil))
	reg.Register("pf", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("f attempt")
		return failOnce(ctx)
	})
	a := model.NewSchema("PA").
		Step("R", "pr", model.WithAgents("a1")).
		Step("X", "px", model.WithAgents("a2")).
		Step("F", "pf", model.WithAgents("a1")).
		Seq("R", "X").Seq("X", "F").
		OnFailure("F", "R", 3).
		MustBuild()
	b := model.NewSchema("PB").Step("Y", "py", model.WithAgents("a3")).MustBuild()
	lib := lib1(a, b)
	lib.AddCoord(model.CoordSpec{Kind: model.Mutex, Name: "res", MutexSteps: []model.StepRef{
		{Workflow: "PA", Step: "X"}, {Workflow: "PB", Step: "Y"},
	}})
	sys, err := NewSystem(SystemConfig{
		Library:     lib,
		Programs:    reg,
		Collector:   metrics.NewCollector(),
		Agents:      []string{"a1", "a2", "a3"},
		sweepPeriod: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	ida, err := sys.Start("PA", nil)
	if err != nil {
		t.Fatal(err)
	}
	idb, err := sys.Start("PB", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		wf string
		id int
	}{{"PA", ida}, {"PB", idb}} {
		if st, err := sys.Wait(r.wf, r.id, waitTimeout); err != nil || st != wfdb.Committed {
			for _, name := range sys.SchedulingNodes() {
				t.Logf("%s: %s", name, sys.Agent(name).DebugState(r.wf, r.id))
			}
			t.Fatalf("%s.%d = (%v, %v)", r.wf, r.id, st, err)
		}
	}
	if n := rec.count("f attempt"); n != 2 {
		t.Errorf("F ran %d times, want 2 (one rollback)", n)
	}
	if n := crit.peak(); n != 1 {
		t.Errorf("max concurrent critical sections = %d, want 1", n)
	}
	for _, name := range sys.SchedulingNodes() {
		if n := sys.Agent(name).SweepWakeups(); n != 0 {
			t.Errorf("%s swept %d times with the timer an hour away", name, n)
		}
	}
}

func TestRollbackDependencyDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	var gateOnce sync.Once
	reg.Register("px1", tracked(rec, "x1", nil))
	reg.Register("px2", model.FailNTimes(1, tracked(rec, "x2", nil)))
	reg.Register("py1", tracked(rec, "y1", nil))
	reg.Register("cy1", tracked(rec, "cy1", nil))
	reg.Register("py2", func(*model.ProgramContext) (map[string]expr.Value, error) {
		gateOnce.Do(func() { <-gate })
		rec.add("y2")
		return nil, nil
	})
	x := model.NewSchema("X").
		Step("X1", "px1", model.WithAgents("a2")).
		Step("X2", "px2", model.WithAgents("a2")).
		Seq("X1", "X2").
		OnFailure("X2", "X1", 3).
		MustBuild()
	y := model.NewSchema("Y").
		Step("Y1", "py1", model.WithCompensation("cy1"), model.WithReexecCond("true"), model.WithAgents("a3")).
		Step("Y2", "py2", model.WithAgents("a4")).
		Seq("Y1", "Y2").
		MustBuild()
	lib := lib1(x, y)
	lib.AddCoord(model.CoordSpec{
		Kind:    model.RollbackDep,
		Name:    "dep",
		Trigger: model.StepRef{Workflow: "X", Step: "X1"},
		Target:  model.StepRef{Workflow: "Y", Step: "Y1"},
	})
	sys := newSystem(t, lib, reg, "a1", "a2", "a3", "a4")

	idY, err := sys.Start("Y", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "y1")
	idX, err := sys.Start("X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := sys.Wait("X", idX, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("X = (%v, %v)", st, err)
	}
	deadline := time.Now().Add(waitTimeout)
	for rec.count("cy1") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if st, err := sys.Wait("Y", idY, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("Y = (%v, %v)", st, err)
	}
	if rec.count("cy1") != 1 || rec.count("y1") != 2 {
		t.Errorf("dependent rollback not applied: cy1=%d y1=%d: %v",
			rec.count("cy1"), rec.count("y1"), rec.list())
	}
}

// TestRollbackOrderAppliesInstancesDeterministically is the distributed twin
// of the centralized test of the same name: a rollback order reaches the
// coordination agent of several running instances of the dependent class, and
// the rollbacks it sends (each compensating Y1) must leave in instance order,
// not in the replica map's.
func TestRollbackOrderAppliesInstancesDeterministically(t *testing.T) {
	const n = 6
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	var gateOnce sync.Once
	reg.Register("px1", tracked(rec, "x1", nil))
	reg.Register("px2", model.FailNTimes(1, tracked(rec, "x2", nil)))
	reg.Register("py1", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add(fmt.Sprintf("y1:%d", ctx.Instance))
		return nil, nil
	})
	reg.Register("cy1", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add(fmt.Sprintf("cy1:%d", ctx.Instance))
		return nil, nil
	})
	reg.Register("py2", func(*model.ProgramContext) (map[string]expr.Value, error) {
		gateOnce.Do(func() { <-gate })
		return nil, nil
	})
	x := model.NewSchema("X").
		Step("X1", "px1", model.WithAgents("a2")).
		Step("X2", "px2", model.WithAgents("a2")).
		Seq("X1", "X2").
		OnFailure("X2", "X1", 3).
		MustBuild()
	y := model.NewSchema("Y").
		Step("Y1", "py1", model.WithCompensation("cy1"), model.WithReexecCond("true"), model.WithAgents("a3")).
		Step("Y2", "py2", model.WithAgents("a4")).
		Seq("Y1", "Y2").
		MustBuild()
	lib := lib1(x, y)
	lib.AddCoord(model.CoordSpec{
		Kind:    model.RollbackDep,
		Name:    "dep",
		Trigger: model.StepRef{Workflow: "X", Step: "X1"},
		Target:  model.StepRef{Workflow: "Y", Step: "Y1"},
	})
	sys := newSystem(t, lib, reg, "a1", "a2", "a3", "a4")

	// Every Y runs Y1 at a3 and then waits behind the gated Y2 at a4.
	var ids []int
	var want []string
	for i := 0; i < n; i++ {
		id, err := sys.Start("Y", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want = append(want, fmt.Sprintf("cy1:%d", id))
		rec.waitFor(t, fmt.Sprintf("y1:%d", id))
	}
	idX, err := sys.Start("X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := sys.Wait("X", idX, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("X = (%v, %v)", st, err)
	}
	for _, w := range want {
		rec.waitFor(t, w)
	}
	close(gate)
	for _, id := range ids {
		if st, err := sys.Wait("Y", id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("Y.%d = (%v, %v)", id, st, err)
		}
	}
	var comps []string
	for _, e := range rec.list() {
		if strings.HasPrefix(e, "cy1:") {
			comps = append(comps, e)
		}
	}
	if !reflect.DeepEqual(comps, want) {
		t.Fatalf("dependent rollback order = %v, want instance order %v", comps, want)
	}
}

func TestNestedDistributed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pp1", tracked(rec, "p1", map[string]expr.Value{"O1": expr.Num(11)}))
	reg.Register("pp3", tracked(rec, "p3", nil))
	reg.Register("pc1", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("c1")
		v, _ := ctx.Inputs["WF.I1"].AsNum()
		return map[string]expr.Value{"R": expr.Num(v + 1)}, nil
	})
	child := model.NewSchema("Child", "I1").
		Step("C1", "pc1", model.WithInputs("WF.I1"), model.WithOutputs("R"), model.WithAgents("a3")).
		MustBuild()
	parent := model.NewSchema("Parent", "I1").
		Step("P1", "pp1", model.WithOutputs("O1"), model.WithAgents("a1")).
		NestedStep("N", "Child", model.WithInputs("P1.O1"), model.WithOutputs("R"), model.WithAgents("a2")).
		Step("P3", "pp3", model.WithInputs("N.R"), model.WithAgents("a1")).
		Seq("P1", "N", "P3").
		MustBuild()
	sys := newSystem(t, lib1(parent, child), reg)
	id := runToStatus(t, sys, "Parent", nil, wfdb.Committed)
	snap, _ := sys.Snapshot("Parent", id)
	if !snap.Data["N.R"].Equal(expr.Num(12)) {
		t.Errorf("nested output N.R = %v, want 12", snap.Data["N.R"])
	}
	if rec.count("c1") != 1 || rec.count("p3") != 1 {
		t.Errorf("executions = %v", rec.list())
	}
}

// TestSuccessorAgentFailure crashes one eligible agent: the alive-aware
// election routes the step to the surviving eligible agent.
func TestSuccessorAgentFailure(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	s := model.NewSchema("SF").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2", "a3")).
		Seq("A", "B").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)

	// Find which agent would be elected for B and crash it up front.
	elected := ""
	for _, cand := range []string{"a2", "a3"} {
		if sysElect(sys, "SF", 1, "B", []string{"a2", "a3"}, nil) == cand {
			elected = cand
		}
	}
	if elected == "" {
		t.Fatal("no election result")
	}
	sys.HaltNode(elected)
	runToStatus(t, sys, "SF", nil, wfdb.Committed)
	if rec.count("b") != 1 {
		t.Errorf("B executed %d times: %v", rec.count("b"), rec.list())
	}
}

// sysElect mirrors the agents' deterministic election for tests.
func sysElect(sys *System, wf string, id int, step model.StepID, elig []string, alive func(string) bool) string {
	if alive == nil {
		alive = sys.Network().Alive
	}
	return electForTest(elig, wf, id, step, alive)
}

// TestPredecessorAgentFailureQueryReexecutes covers §5.2: a pending rule
// waiting on a single step.done event past the timeout polls StepStatus; all
// "unknown" plus a query step means re-execution at an available agent.
func TestPredecessorAgentFailureQueryReexecutes(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb1", tracked(rec, "b1", nil))
	reg.Register("pb2", tracked(rec, "b2", nil))
	reg.Register("pj", tracked(rec, "j", nil))
	// Join J at a4 waits for B1 (a2) and B2 (a3 or a5). Crash B2's elected
	// agent before starting, so its packet is stuck in its queue; J's agent
	// polls and re-executes the query step B2 at the survivor.
	s := model.NewSchema("PF").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B1", "pb1", model.WithAgents("a2")).
		Step("B2", "pb2", model.WithAgents("a3", "a5")).
		Step("J", "pj", model.WithJoin(model.JoinAll), model.WithAgents("a4")).
		Arc("A", "B1").Arc("A", "B2").
		Arc("B1", "J").Arc("B2", "J").
		MustBuild()
	sys, err := NewSystem(SystemConfig{
		Library:     lib1(s),
		Programs:    reg,
		Agents:      []string{"a1", "a2", "a3", "a4", "a5"},
		sweepPeriod: 20 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	elected := electForTest([]string{"a3", "a5"}, "PF", 1, "B2", sys.Network().Alive)
	sys.HaltNode(elected)
	// Election is alive-aware, so with the elected agent down the survivor
	// would normally take over immediately; to exercise the StepStatus path
	// we crash AFTER A forwards, which requires the crash to be visible only
	// to the poller. Instead, verify the end-to-end outcome: the workflow
	// commits despite the dead agent.
	id, st, err := sys.Run("PF", nil, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("run = (%d, %v, %v)", id, st, err)
	}
	if rec.count("b2") != 1 {
		t.Errorf("B2 executed %d times: %v", rec.count("b2"), rec.list())
	}
}

func TestPacketRendersLikeFigure7(t *testing.T) {
	p := &Packet{
		Workflow:   "WF2",
		Instance:   4,
		TargetStep: "S3",
		Data: map[string]expr.Value{
			"WF.I1": expr.Num(90),
			"WF.I2": expr.Str("Blower"),
			"S1.O1": expr.Num(20),
			"S1.O2": expr.Str("Gasket"),
			"S2.O1": expr.Num(45),
			"S2.O2": expr.Num(400),
		},
		Events:  []string{"WF.start", "S1.done", "S2.done"},
		Leading: []string{"WF3.15", "WF4.13"},
		Lagging: []string{"WF5.12"},
	}
	out := p.String()
	for _, want := range []string{
		"Workflow Name: WF2",
		"Instance Number: 4",
		"Action: Execute S3",
		"WF.I2 = \"Blower\"",
		"S2.O2 = 400",
		"Events: WF.start S1.done S2.done",
		"R.O. Leading: WF3.15 WF4.13",
		"R.O. Lagging: WF5.12",
	} {
		if !containsLine(out, want) {
			t.Errorf("packet rendering missing %q:\n%s", want, out)
		}
	}
}

func containsLine(s, sub string) bool {
	for _, line := range splitLines(s) {
		if trim(line) == sub {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func trim(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

func TestManyInstancesDistributed(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	s := model.NewSchema("Many").
		Step("A", "p", model.WithOutputs("O1"), model.WithAgents("a1", "a2", "a3")).
		Step("B", "p", model.WithAgents("a1", "a2", "a3")).
		Step("C", "p", model.WithAgents("a1", "a2", "a3")).
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	const n = 40
	ids := make([]int, n)
	for i := range ids {
		id, err := sys.Start("Many", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if st, err := sys.Wait("Many", id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("instance %d = (%v, %v)", id, st, err)
		}
	}
	// Load spreads across agents (the paper's headline scalability claim).
	loaded := 0
	for _, name := range sys.SchedulingNodes() {
		if sys.Collector().NodeLoad(name, metrics.Normal) > 0 {
			loaded++
		}
	}
	if loaded != 3 {
		t.Errorf("agents carrying load = %d, want 3", loaded)
	}
}

// TestAllEligibleAgentsDownWaitsForRecovery covers §5.2's waiting arm: when
// every agent eligible for a step is unavailable, the workflow neither
// aborts nor re-routes — the packets queue (persistent messages) and the
// step executes when an agent recovers.
func TestAllEligibleAgentsDownWaitsForRecovery(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("b")
		return nil, nil
	})
	reg.Register("pc", tracked(rec, "c", nil))
	s := model.NewSchema("DownB").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a3", "a5"), model.WithUpdate()).
		Step("C", "pc", model.WithAgents("a4")).
		Seq("A", "B", "C").
		MustBuild()
	sys, err := NewSystem(SystemConfig{
		Library:     lib1(s),
		Programs:    reg,
		Agents:      []string{"a1", "a3", "a4", "a5"},
		sweepPeriod: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	sys.HaltNode("a3")
	sys.HaltNode("a5")
	id, err := sys.Start("DownB", nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if rec.count("b") != 0 {
		t.Fatalf("B ran with all eligible agents down: %v", rec.list())
	}
	if st, ok := sys.Status("DownB", id); !ok || st != wfdb.Running {
		t.Fatalf("instance should still be running, got (%v, %v)", st, ok)
	}
	sys.RestartNode("a3")
	sys.RestartNode("a5")
	if st, err := sys.Wait("DownB", id, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("after recovery = (%v, %v)", st, err)
	}
	if rec.count("b") != 1 {
		t.Errorf("B executed %d times: %v", rec.count("b"), rec.list())
	}
}

// TestNestedChildFailureFailsParentStep covers the nested-workflow failure
// path: a child workflow that aborts makes the parent's nested step fail,
// which drives the parent's own failure-handling policy.
func TestNestedChildFailureFailsParentStep(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pp1", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("p1")
		return map[string]expr.Value{"O1": expr.Num(float64(ctx.Attempt))}, nil
	})
	reg.Register("cp1", tracked(rec, "cp1", nil))
	// The child's only step always fails, so the child aborts every time.
	reg.Register("pc1", model.FailNTimes(100, tracked(rec, "c1", nil)))
	child := model.NewSchema("Child", "I1").
		Step("C1", "pc1", model.WithAgents("a3")).
		MustBuild()
	parent := model.NewSchema("Parent", "I1").
		Step("P1", "pp1", model.WithOutputs("O1"), model.WithCompensation("cp1"),
			model.WithAgents("a1")).
		NestedStep("N", "Child", model.WithInputs("P1.O1"), model.WithAgents("a2")).
		Seq("P1", "N").
		OnFailure("N", "P1", 2).
		MustBuild()
	sys := newSystem(t, lib1(parent, child), reg)
	id, st, err := sys.Run("Parent", nil, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// The parent retries per its policy, then aborts once attempts exhaust.
	if st != wfdb.Aborted {
		t.Fatalf("parent = %v, want aborted (child always aborts)", st)
	}
	if rec.count("c1") != 0 {
		t.Errorf("child step should never have succeeded: %v", rec.list())
	}
	if rec.count("p1") < 1 {
		t.Errorf("parent first step never ran: %v", rec.list())
	}
	// Parent abort compensates P1.
	if rec.count("cp1") == 0 {
		t.Errorf("parent abort did not compensate P1: %v", rec.list())
	}
	if sum, ok := sys.Status("Parent", id); !ok || sum != wfdb.Aborted {
		t.Errorf("status = (%v, %v)", sum, ok)
	}
}

// TestAGDBPersistence gives every agent a database: replicas are persisted
// as they evolve and the coordination agent archives the committed instance
// — the paper's AGDB role.
func TestAGDBPersistence(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	s := model.NewSchema("Persist").
		Step("A", "p", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "p", model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	dbs := []*wfdb.DB{wfdb.NewMemory(), wfdb.NewMemory()}
	sys, err := NewSystem(SystemConfig{
		Library:  lib1(s),
		Programs: reg,
		Agents:   []string{"a1", "a2"},
		AGDBs:    dbs,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	id, st, err := sys.Run("Persist", nil, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("run = (%v, %v)", st, err)
	}
	// a1 is the coordination agent: the archive row, and with it the
	// instance's status, lives in its AGDB.
	if st, ok, err := dbs[0].ArchivedStatus("Persist", id); !ok || err != nil || st != wfdb.Committed {
		t.Errorf("coordination AGDB archived status = (%v, %v, %v)", st, ok, err)
	}
	if arch, ok, _ := dbs[0].LoadArchived("Persist", id); !ok || arch.Status != wfdb.Committed {
		t.Errorf("coordination AGDB archive = (%v, %v)", arch, ok)
	}
	// a2 persisted its replica of the instance.
	deadline := time.Now().Add(waitTimeout)
	for len(dbs[1].InstanceKeys()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := dbs[1].InstanceKeys(); len(got) == 0 {
		t.Error("execution agent AGDB is empty")
	}
	// Mismatched AGDB count is rejected.
	if _, err := NewSystem(SystemConfig{
		Library:  lib1(s),
		Programs: reg,
		Agents:   []string{"x1", "x2"},
		AGDBs:    []*wfdb.DB{wfdb.NewMemory()},
	}); err == nil {
		t.Error("mismatched AGDBs length should fail")
	}
}

// TestSnapshotLogsUndecodableArchiveRow: a damaged archive row on the
// coordination agent reads as missing and is logged with its error code.
func TestSnapshotLogsUndecodableArchiveRow(t *testing.T) {
	logs := &recorder{}
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	s := model.NewSchema("Persist").Step("A", "p", model.WithAgents("a1")).MustBuild()
	dbs := []*wfdb.DB{wfdb.NewMemory(), wfdb.NewMemory()}
	sys, err := NewSystem(SystemConfig{
		Library: lib1(s), Programs: reg, Agents: []string{"a1", "a2"}, AGDBs: dbs,
		Logf: func(format string, args ...any) { logs.add(fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	id, st, err := sys.Run("Persist", nil, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("run = (%v, %v)", st, err)
	}
	// a1 is the coordination agent: the archive row is in its AGDB.
	if err := dbs[0].Store().Put("archive", wfdb.InstanceKeyOf("Persist", id), []byte{0xff, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if ins, ok := sys.Snapshot("Persist", id); ok {
		t.Fatalf("Snapshot of a damaged row = %v", ins)
	}
	for _, line := range logs.list() {
		if strings.Contains(line, fmt.Sprintf("Persist.%d", id)) && strings.Contains(line, "[store_format]") {
			return
		}
	}
	t.Errorf("no store_format line logged: %q", logs.list())
}

// TestSnapshotAfterWaitIsTheArchiveRow: with AGDBs and without, Snapshot of
// an instance Wait saw finish serves the row its coordination agent archived
// (in its AGDB, else in the archive the System gave it), unchanged.
func TestSnapshotAfterWaitIsTheArchiveRow(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	s := model.NewSchema("Arch").
		Step("A", "p", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "p", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	for _, withDBs := range []bool{false, true} {
		var dbs []*wfdb.DB
		if withDBs {
			dbs = []*wfdb.DB{wfdb.NewMemory(), wfdb.NewMemory()}
		}
		sys, err := NewSystem(SystemConfig{Library: lib1(s), Programs: reg, Agents: []string{"a1", "a2"}, AGDBs: dbs, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sys.Close)
		for i := 0; i < 3; i++ {
			id, st, err := sys.Run("Arch", nil, waitTimeout)
			if err != nil || st != wfdb.Committed {
				t.Fatalf("AGDBs %v: run = (%v, %v)", withDBs, st, err)
			}
			snap, ok := sys.Snapshot("Arch", id)
			if !ok {
				t.Fatalf("AGDBs %v: no Snapshot of Arch.%d after Wait", withDBs, id)
			}
			ag, err := sys.coordinationAgent("Arch", id)
			if err != nil {
				t.Fatal(err)
			}
			archive := ag.adb
			if withDBs && archive != dbs[0] {
				t.Fatalf("coordination agent %s archives outside its AGDB", ag.Name())
			}
			key := wfdb.InstanceKeyOf("Arch", id)
			row, found := archive.Store().Get("archive", key)
			if !found {
				t.Fatalf("AGDBs %v: %s holds no archive row of %s", withDBs, ag.Name(), key)
			}
			again := wfdb.NewMemory()
			if err := again.Archive(snap); err != nil {
				t.Fatal(err)
			}
			if got, _ := again.Store().Get("archive", key); string(got) != string(row) {
				t.Errorf("AGDBs %v: Snapshot of %s differs from the archive row", withDBs, key)
			}
		}
	}
}

// TestAPIErrorPaths exercises the front-facing error cases of the
// distributed system facade.
func TestAPIErrorPaths(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	s := model.NewSchema("W").
		Step("A", "p", model.WithAgents("a1")).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)

	if _, err := sys.Start("Ghost", nil); err == nil {
		t.Error("start of unknown class should fail")
	}
	if err := sys.Abort("W", 99); err == nil {
		t.Error("abort of unknown instance should fail")
	}
	if err := sys.ChangeInputs("W", 99, nil); err == nil {
		t.Error("input change of unknown instance should fail")
	}
	if _, ok := sys.Status("W", 99); ok {
		t.Error("status of unknown instance should be not-ok")
	}
	if _, ok := sys.SnapshotAt("ghost-agent", "W", 1); ok {
		t.Error("snapshot at unknown agent should be not-ok")
	}

	id := runToStatus(t, sys, "W", nil, wfdb.Committed)
	// Post-commit user operations are rejected.
	if err := sys.Abort("W", id); err == nil {
		t.Error("abort after commit should fail")
	}
	if err := sys.ChangeInputs("W", id, map[string]expr.Value{"I1": expr.Num(1)}); err == nil {
		t.Error("input change after commit should fail")
	}
	// Duplicate start of the same instance ID is rejected at the agent.
	ag := sys.Agent("a1")
	if err := ag.StartInstance("W", id, nil); err == nil {
		t.Error("duplicate StartInstance should fail")
	}
	if err := ag.StartInstance("Ghost", 1, nil); err == nil {
		t.Error("StartInstance of unknown class should fail")
	}
}

// TestChangeInputsNoOpAndUnconsumed covers input changes that alter nothing
// and changes to inputs no step consumes.
func TestChangeInputsNoOpAndUnconsumed(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	var once sync.Once
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", func(*model.ProgramContext) (map[string]expr.Value, error) {
		once.Do(func() { <-gate })
		rec.add("b")
		return nil, nil
	})
	s := model.NewSchema("NC", "I1", "I2").
		Step("A", "pa", model.WithInputs("WF.I1"), model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id, err := sys.Start("NC", map[string]expr.Value{"I1": expr.Num(1), "I2": expr.Num(2)})
	if err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "a")
	// Same value: no rollback.
	if err := sys.ChangeInputs("NC", id, map[string]expr.Value{"I1": expr.Num(1)}); err != nil {
		t.Fatal(err)
	}
	// I2 is consumed by no step: data updates, nothing re-executes.
	if err := sys.ChangeInputs("NC", id, map[string]expr.Value{"I2": expr.Num(9)}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if st, err := sys.Wait("NC", id, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("wait = (%v, %v)", st, err)
	}
	if rec.count("a") != 1 {
		t.Errorf("A re-executed despite no effective change: %v", rec.list())
	}
	snap, _ := sys.Snapshot("NC", id)
	if !snap.Data["WF.I2"].Equal(expr.Num(9)) {
		t.Errorf("unconsumed input not updated: %v", snap.Data["WF.I2"])
	}
}

// waitReplicasDrained blocks until no agent holds a live replica.
func waitReplicasDrained(t *testing.T, sys *System) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for {
		live := 0
		for _, name := range sys.SchedulingNodes() {
			live += sys.Agent(name).ReplicaCount()
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas still live", live)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRetirementDrainsAllReplicas(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(1)}))
	reg.Register("pb", tracked(rec, "b", map[string]expr.Value{"O1": expr.Num(2)}))
	s := model.NewSchema("Lin", "I1").
		Step("A", "pa", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	sys, err := NewSystem(SystemConfig{
		Library:     lib1(s),
		Programs:    reg,
		Collector:   metrics.NewCollector(),
		Agents:      []string{"a1", "a2", "a3"},
		sweepPeriod: 10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(1)}, wfdb.Committed)

	// The coordinator retires its replica at commit; the other agents drop
	// theirs at their next turn or sweep. Either way the fleet ends with zero
	// resident replicas.
	waitReplicasDrained(t, sys)

	// The coordination agent's archive holds the full final state.
	snap, ok := sys.SnapshotAt("a1", "Lin", id)
	if !ok || snap.Status != wfdb.Committed {
		t.Fatalf("SnapshotAt coordinator = (%v, %v)", snap, ok)
	}
	if !snap.Data["B.O1"].Equal(expr.Num(2)) {
		t.Fatalf("archived data = %v", snap.Data)
	}
	if st, ok := sys.Status("Lin", id); !ok || st != wfdb.Committed {
		t.Fatalf("Status = (%v, %v)", st, ok)
	}
	if st, err := sys.Wait("Lin", id, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("Wait after retirement = (%v, %v)", st, err)
	}
}

// TestQuiesceDropsFinishedReplicas: what a quiesced deployment holds must not
// depend on where the agents' sweep timers stand. The sweep is an hour away
// here, so only Quiesce can have let go of the bystanders' replicas.
func TestQuiesceDropsFinishedReplicas(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	s := model.NewSchema("QD").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	sys, err := NewSystem(SystemConfig{
		Library:     lib1(s),
		Programs:    reg,
		Collector:   metrics.NewCollector(),
		Agents:      []string{"a1", "a2"},
		sweepPeriod: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	for i := 0; i < 5; i++ {
		runToStatus(t, sys, "QD", nil, wfdb.Committed)
	}
	msgs := sys.Collector().TotalMessages()
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := sys.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range sys.SchedulingNodes() {
		if n := sys.Agent(name).ReplicaCount(); n != 0 {
			t.Errorf("%s holds %d replicas of finished instances after Quiesce", name, n)
		}
		if n := sys.Agent(name).SweepWakeups(); n != 0 {
			t.Errorf("%s swept %d times with the timer an hour away", name, n)
		}
	}
	if got := sys.Collector().TotalMessages(); got != msgs {
		t.Errorf("Quiesce sent %d messages", got-msgs)
	}
}

// TestZeroPollWakeupsWhenIdle pins the push-based completion contract: once
// every replica has retired, no sweep timer fires and no
// poll messages cross the network. WaitCtx completes purely by notification.
func TestZeroPollWakeupsWhenIdle(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	s := model.NewSchema("ZP").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	const interval = 20 * time.Millisecond
	sys, err := NewSystem(SystemConfig{
		Library:     lib1(s),
		Programs:    reg,
		Collector:   metrics.NewCollector(),
		Agents:      []string{"a1", "a2"},
		sweepPeriod: interval,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	runToStatus(t, sys, "ZP", nil, wfdb.Committed)
	waitReplicasDrained(t, sys)
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := sys.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	wakeups := func() int64 {
		var n int64
		for _, name := range sys.SchedulingNodes() {
			n += sys.Agent(name).SweepWakeups()
		}
		return n
	}
	msgs0, wk0 := sys.Collector().TotalMessages(), wakeups()
	// Several sweep periods pass with the fleet idle: a standing sweep
	// ticker would fire here; the on-demand timer, armed
	// only while replicas exist, must not.
	time.Sleep(5 * interval)
	if msgs1 := sys.Collector().TotalMessages(); msgs1 != msgs0 {
		t.Errorf("idle fleet sent %d poll-driven messages", msgs1-msgs0)
	}
	if wk1 := wakeups(); wk1 != wk0 {
		t.Errorf("idle fleet took %d sweep wakeups", wk1-wk0)
	}
}

// TestHaltProbeOrderDeterministic guards the sorted iteration in
// propagateHalts: when a failure rolls a workflow back, the agent that drove
// several parallel threads must emit its HaltThread probes in step order.
// Map-order iteration over the instance's step table would shuffle the probe
// sequence run to run, making protocol traces (and replay comparisons)
// nondeterministic. A on a1 fans out to B1..B4 (also a1), whose successors
// C1..C4 live on a2; when F fails, a1's rollback handler probes the C steps
// and the trace must show them in sorted order every round.
func TestHaltProbeOrderDeterministic(t *testing.T) {
	for round := 0; round < 3; round++ {
		rec := &recorder{}
		reg := model.NewRegistry()
		reg.Register("pa", tracked(rec, "a", nil))
		reg.Register("pb", tracked(rec, "b", nil))
		reg.Register("pc", tracked(rec, "c", nil))
		failOnce := model.FailNTimes(1, tracked(rec, "f", nil))
		reg.Register("pf", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
			rec.add("f attempt")
			return failOnce(ctx)
		})
		b := model.NewSchema("HaltOrder", "I1").
			Step("A", "pa", model.WithAgents("a1")).
			Step("F", "pf", model.WithAgents("a1"))
		for _, i := range []string{"1", "2", "3", "4"} {
			bi, ci := model.StepID("B"+i), model.StepID("C"+i)
			b = b.Step(bi, "pb", model.WithAgents("a1")).
				Step(ci, "pc", model.WithAgents("a2")).
				Arc("A", bi).Arc(bi, ci).Arc(ci, "F")
		}
		s := b.OnFailure("F", "A", 3).MustBuild()
		sys := newSystem(t, lib1(s), reg, "a1", "a2")

		var mu sync.Mutex
		var probes []string
		sys.Network().Trace(func(m transport.Message) {
			ht, ok := m.Payload.(*haltThread)
			if !ok || len(ht.Step) != 2 || ht.Step[0] != 'C' {
				return
			}
			mu.Lock()
			probes = append(probes, string(ht.Step))
			mu.Unlock()
		})
		runToStatus(t, sys, "HaltOrder", nil, wfdb.Committed)
		// The commit can land inside a turn that still has probes to flush:
		// read the trace once every turn has ended, not half way through a
		// burst.
		ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
		err := sys.Network().Quiesce(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		sys.Network().Trace(nil)

		mu.Lock()
		got := append([]string(nil), probes...)
		mu.Unlock()
		// The handler may probe more than once (the initial rollback apply
		// and a re-propagation at a later epoch); every burst must come out
		// in step order.
		want := []string{"C1", "C2", "C3", "C4"}
		if len(got) == 0 || len(got)%len(want) != 0 {
			t.Fatalf("round %d: saw %d C-step halt probes, want a multiple of %d: %v", round, len(got), len(want), got)
		}
		for i, p := range got {
			if p != want[i%len(want)] {
				t.Fatalf("round %d: halt probes out of step order: %v", round, got)
			}
		}
	}
}

// haltDedupeEntries counts the HaltThread dedupe entries an agent holds. The
// state lives in the replicas, so an agent with none holds none.
func haltDedupeEntries(a *Agent) int {
	n := 0
	a.Do(func() {
		for _, r := range a.replicas {
			n += len(r.handledHalts)
		}
	})
	return n
}

// TestHaltDedupeDiesWithReplica: the dedupe state of a rollback's HaltThread
// floods is gone once every instance has retired, and a halt that arrives for
// a retired instance leaves nothing behind.
func TestHaltDedupeDiesWithReplica(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	failOnce := model.FailNTimes(1, tracked(rec, "f", nil))
	reg.Register("pf", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("f attempt")
		return failOnce(ctx)
	})
	s := model.NewSchema("Halted", "I1").
		Step("A", "pa", model.WithAgents("a1")).
		Step("B", "pb", model.WithAgents("a2")).
		Step("F", "pf", model.WithAgents("a1")).
		Seq("A", "B", "F").
		OnFailure("F", "A", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg, "a1", "a2")

	var mu sync.Mutex
	var seen []haltThread
	sys.Network().Trace(func(m transport.Message) {
		if ht, ok := m.Payload.(*haltThread); ok && m.To == "a2" {
			mu.Lock()
			seen = append(seen, *ht)
			mu.Unlock()
		}
	})
	id := runToStatus(t, sys, "Halted", nil, wfdb.Committed)
	sys.Network().Trace(nil)
	mu.Lock()
	halts := append([]haltThread(nil), seen...)
	mu.Unlock()
	if len(halts) == 0 {
		t.Fatal("the rollback sent a2 no HaltThread: nothing was deduplicated")
	}
	waitReplicasDrained(t, sys)

	// A straggler of the same flood, for the instance that has retired.
	late := halts[len(halts)-1]
	if late.Instance != id {
		t.Fatalf("traced halt is for instance %d, ran %d", late.Instance, id)
	}
	if err := sys.Network().Send(transport.Message{From: "a1", To: "a2", Mechanism: late.Mechanism, Kind: KindHaltThread, Payload: &late}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := sys.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range sys.SchedulingNodes() {
		a := sys.Agent(name)
		if n := a.ReplicaCount(); n != 0 {
			t.Errorf("%s holds %d replicas after a late halt for a retired instance", name, n)
		}
		if n := haltDedupeEntries(a); n != 0 {
			t.Errorf("%s holds %d halt dedupe entries with every instance retired", name, n)
		}
	}
}

// TestStartStepSurvivesElectionFlip: an instance started while the hash
// winner of its first step is down is coordinated by the other eligible
// agent; if that step is coordinated (its AddRule round trip takes a while)
// and the winner recovers before the home agent answers, the election flips
// back and the step must still run.
func TestStartStepSurvivesElectionFlip(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("px", tracked(rec, "x", nil))
	reg.Register("py", tracked(rec, "y", nil))
	a := model.NewSchema("MA").Step("X", "px", model.WithAgents("a2", "a3")).MustBuild()
	b := model.NewSchema("MB").Step("Y", "py", model.WithAgents("a3")).MustBuild()
	lib := lib1(a, b)
	lib.AddCoord(model.CoordSpec{
		Kind: model.Mutex,
		Name: "res",
		MutexSteps: []model.StepRef{
			{Workflow: "MA", Step: "X"},
			{Workflow: "MB", Step: "Y"},
		},
	})
	sys := newSweptSystem(t, SystemConfig{Library: lib, Programs: reg, Agents: []string{"a1", "a2", "a3"}}, time.Hour)
	winner := nav.ElectAgent([]string{"a2", "a3"}, "MA", 1, "X", nil)

	sys.HaltNode(winner) // the start elects the other eligible agent
	sys.HaltNode("a1")   // the home agent: the AddRule waits
	id, err := sys.Start("MA", nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("instance id %d, the winner was computed for 1", id)
	}
	time.Sleep(20 * time.Millisecond)
	sys.RestartNode(winner) // the election flips back
	sys.RestartNode("a1")   // and only now does the home agent answer
	st, err := sys.Wait("MA", id, 3*time.Second)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("MA.%d = (%v, %v)", id, st, err)
	}
}
