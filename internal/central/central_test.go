package central

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"crew/internal/coord"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

const waitTimeout = 5 * time.Second

// recorder captures program executions across agent goroutines.
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

// tracked returns a program that records its invocation and emits outputs.
func tracked(rec *recorder, name string, outputs map[string]expr.Value) model.Program {
	return func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add(name)
		out := make(map[string]expr.Value, len(outputs))
		for k, v := range outputs {
			out[k] = v
		}
		return out, nil
	}
}

func newSystem(t *testing.T, lib *model.Library, reg *model.Registry) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		Library:   lib,
		Programs:  reg,
		Collector: metrics.NewCollector(),
		DBs:       []*wfdb.DB{wfdb.NewMemory()},
		Agents:    []string{"a1", "a2"},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
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

func lib1(schemas ...*model.Schema) *model.Library {
	lib := model.NewLibrary()
	for _, s := range schemas {
		lib.Add(s)
	}
	return lib
}

func TestLinearWorkflowCommits(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(1)}))
	reg.Register("pb", tracked(rec, "b", map[string]expr.Value{"O1": expr.Num(2)}))
	reg.Register("pc", tracked(rec, "c", nil))
	s := model.NewSchema("Lin", "I1").
		Step("A", "pa", model.WithOutputs("O1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithOutputs("O1")).
		Step("C", "pc", model.WithInputs("B.O1", "WF.I1")).
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)

	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(90)}, wfdb.Committed)

	got := rec.list()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("execution order = %v", got)
	}
	snap, ok := sys.Snapshot("Lin", id)
	if !ok {
		t.Fatal("no snapshot")
	}
	if !snap.Data["A.O1"].Equal(expr.Num(1)) || !snap.Data["B.O1"].Equal(expr.Num(2)) {
		t.Errorf("data table = %v", snap.Data)
	}
	if st, ok := sys.Status("Lin", id); !ok || st != wfdb.Committed {
		t.Errorf("Status = (%v, %v)", st, ok)
	}
	// Archived in the DB as committed.
	if st, ok, err := sys.dbs[0].ArchivedStatus("Lin", id); !ok || err != nil || st != wfdb.Committed {
		t.Errorf("archived status = (%v, %v, %v)", st, ok, err)
	}
	if _, ok, _ := sys.dbs[0].LoadArchived("Lin", id); !ok {
		t.Error("instance not archived")
	}
}

func TestMessageCountMatchesCentralizedModel(t *testing.T) {
	// Paper Table 4: normal execution exchanges 2·s·a messages per instance.
	// With s=3 steps and a=2 eligible agents per step: 12 messages.
	rec := &recorder{}
	reg := model.NewRegistry()
	for _, p := range []string{"pa", "pb", "pc"} {
		reg.Register(p, tracked(rec, p, nil))
	}
	s := model.NewSchema("Msg").
		Step("A", "pa", model.WithAgents("a1", "a2")).
		Step("B", "pb", model.WithAgents("a1", "a2")).
		Step("C", "pc", model.WithAgents("a1", "a2")).
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "Msg", nil, wfdb.Committed)

	// Probe responses may still be in flight right after commit.
	deadline := time.Now().Add(waitTimeout)
	for sys.Collector().Messages(metrics.Normal) < 12 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sys.Collector().Messages(metrics.Normal); got != 12 {
		t.Errorf("normal messages = %d, want 2*s*a = 12", got)
	}
	if got := sys.Collector().Messages(metrics.Coordination); got != 0 {
		t.Errorf("coordination messages = %d, want 0 in centralized control", got)
	}
	node, load := sys.Collector().MaxNodeLoad(metrics.Normal)
	if node != "engine" || load == 0 {
		t.Errorf("engine load = (%s, %d)", node, load)
	}
}

func TestParallelBranchJoin(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	for _, p := range []string{"pa", "pb", "pc", "pd"} {
		reg.Register(p, tracked(rec, p, nil))
	}
	s := model.NewSchema("Dia").
		Step("A", "pa").
		Step("B", "pb").
		Step("C", "pc").
		Step("D", "pd", model.WithJoin(model.JoinAll)).
		Arc("A", "B").Arc("A", "C").Arc("B", "D").Arc("C", "D").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "Dia", nil, wfdb.Committed)

	if rec.count("pd") != 1 {
		t.Errorf("join step executed %d times", rec.count("pd"))
	}
	if rec.index("pd") != 3 {
		t.Errorf("join must run last: %v", rec.list())
	}
}

func TestIfThenElseTakesOneBranch(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(-3)}))
	reg.Register("ptop", tracked(rec, "top", nil))
	reg.Register("pbot", tracked(rec, "bot", nil))
	reg.Register("pj", tracked(rec, "join", nil))
	s := model.NewSchema("ITE").
		Step("A", "pa", model.WithOutputs("O1")).
		Step("T", "ptop").
		Step("B", "pbot").
		Step("J", "pj", model.WithJoin(model.JoinAny)).
		CondArc("A", "T", "A.O1 > 0").
		CondArc("A", "B", "A.O1 <= 0").
		Arc("T", "J").Arc("B", "J").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "ITE", nil, wfdb.Committed)

	if rec.count("top") != 0 || rec.count("bot") != 1 || rec.count("join") != 1 {
		t.Errorf("branch execution = %v", rec.list())
	}
}

func TestLoopIterates(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	var mu sync.Mutex
	counter := 0.0
	reg.Register("pinc", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		mu.Lock()
		counter++
		v := counter
		mu.Unlock()
		rec.add("inc")
		return map[string]expr.Value{"O1": expr.Num(v)}, nil
	})
	reg.Register("pend", tracked(rec, "end", nil))
	s := model.NewSchema("Loop").
		Step("I", "pinc", model.WithOutputs("O1")).
		Step("E", "pend", model.WithInputs("I.O1")).
		Arc("I", "E").
		LoopArc("I", "I", "I.O1 < 3").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id := runToStatus(t, sys, "Loop", nil, wfdb.Committed)

	if got := rec.count("inc"); got != 3 {
		t.Errorf("loop body executed %d times, want 3", got)
	}
	snap, _ := sys.Snapshot("Loop", id)
	if !snap.Data["I.O1"].Equal(expr.Num(3)) {
		t.Errorf("final loop output = %v", snap.Data["I.O1"])
	}
}

// TestFigure3BranchSwitch reproduces the paper's Figure 3: S4 fails, the
// workflow partially rolls back to S2 and re-executes; the second pass takes
// the other branch, so S3 (executed on the abandoned branch) is compensated.
func TestFigure3BranchSwitch(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("p1", tracked(rec, "s1", nil))
	reg.Register("p2", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("s2")
		if ctx.Attempt <= 1 {
			return map[string]expr.Value{"O1": expr.Num(5)}, nil // top branch
		}
		return map[string]expr.Value{"O1": expr.Num(-1)}, nil // bottom branch
	})
	reg.Register("c2", tracked(rec, "c2", nil))
	reg.Register("p3", tracked(rec, "s3", nil))
	reg.Register("c3", tracked(rec, "c3", nil))
	reg.Register("p4", model.FailNTimes(1, tracked(rec, "s4", nil)))
	reg.Register("p6", tracked(rec, "s6", nil))
	reg.Register("p5", tracked(rec, "s5", nil))

	s := model.NewSchema("Fig3", "I1").
		Step("S1", "p1").
		Step("S2", "p2", model.WithOutputs("O1"), model.WithCompensation("c2"), model.WithReexecCond("true")).
		Step("S3", "p3", model.WithCompensation("c3")).
		Step("S4", "p4").
		Step("S6", "p6").
		Step("S5", "p5", model.WithJoin(model.JoinAny)).
		Seq("S1", "S2").
		CondArc("S2", "S3", "S2.O1 > 0").
		CondArc("S2", "S6", "S2.O1 <= 0").
		Arc("S3", "S4").Arc("S4", "S5").Arc("S6", "S5").
		OnFailure("S4", "S2", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "Fig3", nil, wfdb.Committed)

	if rec.count("s2") != 2 {
		t.Errorf("S2 executed %d times, want 2: %v", rec.count("s2"), rec.list())
	}
	if rec.count("c2") != 1 {
		t.Errorf("S2 compensated %d times, want 1", rec.count("c2"))
	}
	if rec.count("c3") != 1 {
		t.Errorf("abandoned branch S3 compensated %d times, want 1: %v", rec.count("c3"), rec.list())
	}
	if rec.count("s6") != 1 || rec.count("s5") != 1 {
		t.Errorf("bottom branch not taken: %v", rec.list())
	}
	if rec.count("s4") != 0 {
		t.Errorf("S4 should have failed, not completed: %v", rec.list())
	}
	// Failure-handling messages were classified separately.
	if sys.Collector().Messages(metrics.Failure) == 0 {
		t.Error("no failure-handling messages recorded")
	}
}

// TestOCRReuse verifies the opportunistic reuse: after a rollback past A,
// A's unchanged results are reused without compensation or re-execution.
func TestOCRReuse(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(7)}))
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("pb", model.FailNTimes(1, tracked(rec, "b", nil)))
	reg.Register("pc", tracked(rec, "c", nil))
	s := model.NewSchema("Reuse").
		Step("A", "pa", model.WithOutputs("O1"), model.WithCompensation("ca")).
		Step("B", "pb", model.WithInputs("A.O1")).
		Step("C", "pc").
		Seq("A", "B", "C").
		OnFailure("B", "A", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id := runToStatus(t, sys, "Reuse", nil, wfdb.Committed)

	if rec.count("a") != 1 {
		t.Errorf("A executed %d times, want 1 (reused): %v", rec.count("a"), rec.list())
	}
	if rec.count("ca") != 0 {
		t.Errorf("A compensated despite reuse: %v", rec.list())
	}
	// The first B attempt failed inside the injector (inner program not
	// reached); the retry succeeded: one recorded run, two attempts.
	if rec.count("b") != 1 {
		t.Errorf("B ran %d times, want 1 recorded success: %v", rec.count("b"), rec.list())
	}
	snap, _ := sys.Snapshot("Reuse", id)
	if got := snap.StepRec("B").Attempts; got != 2 {
		t.Errorf("B attempts = %d, want 2", got)
	}
	if rec.count("c") != 1 {
		t.Errorf("C executed %d times, want 1", rec.count("c"))
	}
}

// TestOCRDisabledFallsBackToSaga covers the ablation: with OCR disabled, the
// revisited step is always compensated and re-executed.
func TestOCRDisabledFallsBackToSaga(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(7)}))
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("pb", model.FailNTimes(1, tracked(rec, "b", nil)))
	s := model.NewSchema("Saga").
		Step("A", "pa", model.WithOutputs("O1"), model.WithCompensation("ca")).
		Step("B", "pb", model.WithInputs("A.O1")).
		Seq("A", "B").
		OnFailure("B", "A", 3).
		MustBuild()
	lib := lib1(s)
	sys, err := NewSystem(SystemConfig{
		Library:    lib,
		Programs:   reg,
		Collector:  metrics.NewCollector(),
		Agents:     []string{"a1", "a2"},
		DisableOCR: true,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	id, st, err := sys.Run("Saga", nil, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("run = (%d, %v, %v)", id, st, err)
	}
	if rec.count("ca") != 1 || rec.count("a") != 2 {
		t.Errorf("Saga fallback: a=%d ca=%d, want 2/1: %v", rec.count("a"), rec.count("ca"), rec.list())
	}
}

// TestOCRIncremental verifies partial compensation + incremental
// re-execution for steps that support it.
func TestOCRIncremental(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		switch ctx.Mode {
		case model.ModeIncremental:
			rec.add("a-incr")
		default:
			rec.add("a")
		}
		return map[string]expr.Value{"O1": expr.Num(float64(ctx.Attempt))}, nil
	})
	reg.Register("ca", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		if ctx.Mode == model.ModePartialComp {
			rec.add("ca-partial")
		} else {
			rec.add("ca")
		}
		return nil, nil
	})
	reg.Register("pb", model.FailNTimes(1, tracked(rec, "b", nil)))
	s := model.NewSchema("Incr").
		Step("A", "pa", model.WithOutputs("O1"), model.WithCompensation("ca"),
			model.WithReexecCond("true"), model.WithIncremental()).
		Step("B", "pb", model.WithInputs("A.O1")).
		Seq("A", "B").
		OnFailure("B", "A", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "Incr", nil, wfdb.Committed)

	if rec.count("ca-partial") != 1 || rec.count("a-incr") != 1 {
		t.Errorf("incremental path not used: %v", rec.list())
	}
	if rec.count("ca") != 0 {
		t.Errorf("complete compensation used despite incremental support: %v", rec.list())
	}
}

// TestCompSetReverseOrder verifies compensation dependent sets compensate in
// reverse execution order before the rolled-back step re-executes.
func TestCompSetReverseOrder(t *testing.T) {
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
		Step("A", "pa", model.WithOutputs("O1"), model.WithCompensation("ca"), model.WithReexecCond("true")).
		Step("B", "pb", model.WithOutputs("O1"), model.WithCompensation("cb"), model.WithReexecCond("true")).
		Step("C", "pc", model.WithOutputs("O1"), model.WithCompensation("cc"), model.WithReexecCond("true")).
		Step("D", "pd").
		Seq("A", "B", "C", "D").
		CompSet("A", "B", "C").
		OnFailure("D", "A", 3).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	runToStatus(t, sys, "CSet", nil, wfdb.Committed)

	// When A is revisited, the whole set compensates in reverse order first.
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

func TestUserAbortCompensatesReverse(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	reg.Register("pc", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("c")
		<-gate
		return nil, nil
	})
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("cb", tracked(rec, "cb", nil))
	// C runs on its own agent so its blocked program cannot stall the
	// compensations dispatched to a1.
	s := model.NewSchema("Ab").
		Step("A", "pa", model.WithCompensation("ca"), model.WithAgents("a1")).
		Step("B", "pb", model.WithCompensation("cb"), model.WithAgents("a1")).
		Step("C", "pc", model.WithAgents("a2")).
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)

	id, err := sys.Start("Ab", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until C is in flight (A and B done).
	deadline := time.Now().Add(waitTimeout)
	for rec.count("c") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("C never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sys.Abort("Ab", id); err != nil {
		t.Fatal(err)
	}
	st, err := sys.Wait("Ab", id, waitTimeout)
	close(gate)
	if err != nil || st != wfdb.Aborted {
		t.Fatalf("abort wait = (%v, %v)", st, err)
	}
	ib, ia := rec.index("cb"), rec.index("ca")
	if ib < 0 || ia < 0 || ib > ia {
		t.Errorf("compensations out of order: %v", rec.list())
	}
	// Abort messages classified under Abort.
	if sys.Collector().Messages(metrics.Abort) == 0 {
		t.Error("no abort messages recorded")
	}
	// Aborting again is rejected.
	if err := sys.Abort("Ab", id); err == nil {
		t.Error("second abort should fail")
	}
}

func TestWorkflowInputChange(t *testing.T) {
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
	reg.Register("pb", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("b")
		gateOnce.Do(func() { <-gate })
		return nil, nil
	})
	s := model.NewSchema("IC", "I1").
		Step("A", "pa", model.WithInputs("WF.I1"), model.WithOutputs("O1"), model.WithCompensation("ca")).
		Step("B", "pb", model.WithInputs("A.O1")).
		Seq("A", "B").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)

	id, err := sys.Start("IC", map[string]expr.Value{"I1": expr.Num(10)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTimeout)
	for rec.count("b") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("B never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Change the input while B is blocked: A must compensate and re-execute
	// with the new value; B's stale result is dropped and B re-runs.
	if err := sys.ChangeInputs("IC", id, map[string]expr.Value{"I1": expr.Num(20)}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	st, err := sys.Wait("IC", id, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("wait = (%v, %v)", st, err)
	}
	snap, _ := sys.Snapshot("IC", id)
	if !snap.Data["A.O1"].Equal(expr.Num(40)) {
		t.Errorf("A.O1 = %v, want 40 after input change", snap.Data["A.O1"])
	}
	if rec.count("a") != 2 || rec.count("ca") != 1 {
		t.Errorf("a=%d ca=%d, want 2/1: %v", rec.count("a"), rec.count("ca"), rec.list())
	}
	if sys.Collector().Messages(metrics.InputChange) == 0 {
		t.Error("no input-change messages recorded")
	}
	// Changing inputs after commit is rejected.
	if err := sys.ChangeInputs("IC", id, map[string]expr.Value{"I1": expr.Num(30)}); err == nil {
		t.Error("input change after commit should fail")
	}
	// No-op change (same value) succeeds without work.
	// (Instance finished, so this exercises the error path instead.)
}

func TestExhaustedAttemptsAbort(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("pb", model.FailNTimes(100, tracked(rec, "b", nil)))
	s := model.NewSchema("Fail").
		Step("A", "pa", model.WithCompensation("ca")).
		Step("B", "pb").
		Seq("A", "B").
		OnFailure("B", "A", 2).
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	id, st, err := sys.Run("Fail", nil, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if st != wfdb.Aborted {
		t.Fatalf("status = %v, want aborted after exhausted attempts", st)
	}
	if rec.count("ca") != 1 {
		t.Errorf("A compensated %d times on abort, want 1: %v", rec.count("ca"), rec.list())
	}
	if st, ok, err := sys.dbs[0].ArchivedStatus("Fail", id); !ok || err != nil || st != wfdb.Aborted {
		t.Errorf("archived status = (%v, %v, %v)", st, ok, err)
	}
}

func TestStepWithoutPolicyAbortsOnFailure(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("pa", model.FailNTimes(1, model.NopProgram()))
	s := model.NewSchema("NoPol").
		Step("A", "pa").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	_, st, err := sys.Run("NoPol", nil, waitTimeout)
	if err != nil || st != wfdb.Aborted {
		t.Fatalf("run = (%v, %v), want aborted", st, err)
	}
}

func TestNestedWorkflow(t *testing.T) {
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
		Step("C1", "pc1", model.WithInputs("WF.I1"), model.WithOutputs("R")).
		MustBuild()
	parent := model.NewSchema("Parent", "I1").
		Step("P1", "pp1", model.WithOutputs("O1")).
		NestedStep("N", "Child", model.WithInputs("P1.O1"), model.WithOutputs("R")).
		Step("P3", "pp3", model.WithInputs("N.R")).
		Seq("P1", "N", "P3").
		MustBuild()
	sys := newSystem(t, lib1(parent, child), reg)
	id := runToStatus(t, sys, "Parent", nil, wfdb.Committed)

	snap, _ := sys.Snapshot("Parent", id)
	if !snap.Data["N.R"].Equal(expr.Num(12)) {
		t.Errorf("nested output N.R = %v, want 12", snap.Data["N.R"])
	}
	want := []string{"p1", "c1", "p3"}
	got := rec.list()
	if len(got) != 3 {
		t.Fatalf("executions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRelativeOrderEnforced(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	reg.Register("pa1", tracked(rec, "a1", nil))
	reg.Register("pb1", tracked(rec, "b1", nil))
	reg.Register("pa2", tracked(rec, "a2", nil))
	reg.Register("pb2", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		<-gate
		rec.add("b2")
		return nil, nil
	})
	wf1 := model.NewSchema("O1").
		Step("A1", "pa1").Step("B1", "pb1").Seq("A1", "B1").MustBuild()
	wf2 := model.NewSchema("O2").
		Step("A2", "pa2").Step("B2", "pb2").Seq("A2", "B2").MustBuild()
	lib := lib1(wf1, wf2)
	lib.AddCoord(model.CoordSpec{
		Kind: model.RelativeOrder,
		Name: "orders",
		Pairs: []model.ConflictPair{
			{A: model.StepRef{Workflow: "O1", Step: "A1"}, B: model.StepRef{Workflow: "O2", Step: "A2"}},
			{A: model.StepRef{Workflow: "O1", Step: "B1"}, B: model.StepRef{Workflow: "O2", Step: "B2"}},
		},
	})
	sys := newSystem(t, lib, reg)

	// O2 starts first and completes its pair-0 step: it leads.
	id2, err := sys.Start("O2", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTimeout)
	for rec.count("a2") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a2 never ran")
		}
		time.Sleep(time.Millisecond)
	}
	id1, err := sys.Start("O1", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The lagging O1 must not execute B1 while the leader's B2 is blocked.
	time.Sleep(100 * time.Millisecond)
	if rec.count("b1") != 0 {
		t.Fatalf("lagging B1 ran before leading B2: %v", rec.list())
	}
	close(gate)
	if st, err := sys.Wait("O2", id2, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("O2 = (%v, %v)", st, err)
	}
	if st, err := sys.Wait("O1", id1, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("O1 = (%v, %v)", st, err)
	}
	if rec.index("b2") > rec.index("b1") {
		t.Errorf("relative order violated: %v", rec.list())
	}
	// Centralized coordination uses zero messages.
	if got := sys.Collector().Messages(metrics.Coordination); got != 0 {
		t.Errorf("coordination messages = %d, want 0", got)
	}
	// But it does cost engine load.
	if sys.Collector().NodeLoad("engine", metrics.Coordination) == 0 {
		t.Error("no coordination load recorded at engine")
	}
}

func TestMutualExclusion(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	var mu sync.Mutex
	inCrit, maxCrit := 0, 0
	crit := func(name string) model.Program {
		return func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
			mu.Lock()
			inCrit++
			if inCrit > maxCrit {
				maxCrit = inCrit
			}
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
			mu.Lock()
			inCrit--
			mu.Unlock()
			rec.add(name)
			return nil, nil
		}
	}
	reg.Register("px", crit("x"))
	reg.Register("py", crit("y"))
	a := model.NewSchema("MA").Step("X", "px").MustBuild()
	b := model.NewSchema("MB").Step("Y", "py").MustBuild()
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

	var ids []struct {
		wf string
		id int
	}
	for i := 0; i < 3; i++ {
		ida, err := sys.Start("MA", nil)
		if err != nil {
			t.Fatal(err)
		}
		idb, err := sys.Start("MB", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, struct {
			wf string
			id int
		}{"MA", ida}, struct {
			wf string
			id int
		}{"MB", idb})
	}
	for _, ref := range ids {
		if st, err := sys.Wait(ref.wf, ref.id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("%s.%d = (%v, %v)", ref.wf, ref.id, st, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if maxCrit != 1 {
		t.Errorf("max concurrent critical sections = %d, want 1", maxCrit)
	}
	if rec.count("x") != 3 || rec.count("y") != 3 {
		t.Errorf("executions = %v", rec.list())
	}
}

func TestRollbackDependency(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gate := make(chan struct{})
	var gateOnce sync.Once
	reg.Register("px1", tracked(rec, "x1", nil))
	reg.Register("px2", model.FailNTimes(1, tracked(rec, "x2", nil)))
	reg.Register("py1", tracked(rec, "y1", nil))
	reg.Register("cy1", tracked(rec, "cy1", nil))
	reg.Register("py2", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		gateOnce.Do(func() { <-gate })
		rec.add("y2")
		return nil, nil
	})
	// Y2 blocks on the gate, so it gets a dedicated agent; everything else
	// runs on a1.
	x := model.NewSchema("X").
		Step("X1", "px1", model.WithAgents("a1")).
		Step("X2", "px2", model.WithAgents("a1")).
		Seq("X1", "X2").
		OnFailure("X2", "X1", 3).
		MustBuild()
	y := model.NewSchema("Y").
		Step("Y1", "py1", model.WithCompensation("cy1"), model.WithReexecCond("true"), model.WithAgents("a1")).
		Step("Y2", "py2", model.WithAgents("a2")).
		Seq("Y1", "Y2").
		MustBuild()
	lib := lib1(x, y)
	lib.AddCoord(model.CoordSpec{
		Kind:    model.RollbackDep,
		Name:    "dep",
		Trigger: model.StepRef{Workflow: "X", Step: "X1"},
		Target:  model.StepRef{Workflow: "Y", Step: "Y1"},
	})
	sys := newSystem(t, lib, reg)

	idY, err := sys.Start("Y", nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTimeout)
	for rec.count("y1") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("y1 never ran")
		}
		time.Sleep(time.Millisecond)
	}
	// X fails at X2 and rolls back past X1, triggering Y's rollback to Y1.
	idX, err := sys.Start("X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := sys.Wait("X", idX, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("X = (%v, %v)", st, err)
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

func TestStartUnknownWorkflow(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	s := model.NewSchema("W").Step("A", "p").MustBuild()
	sys := newSystem(t, lib1(s), reg)
	if _, err := sys.Start("Missing", nil); err == nil {
		t.Error("start of unknown workflow should fail")
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
}

func TestManyConcurrentInstances(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	s := model.NewSchema("Many").
		Step("A", "p", model.WithOutputs("O1")).
		Step("B", "p").
		Step("C", "p").
		Seq("A", "B", "C").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	const n = 50
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
	// Wait returns at the commit; the agents' StateResponse replies to the
	// last steps' probes may still be unsent.
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := sys.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	// 2·s·a messages per instance with a=2 agents: 12 each.
	if got := sys.Collector().Messages(metrics.Normal); got != int64(n*12) {
		t.Errorf("normal messages = %d, want %d", got, n*12)
	}
}

// TestEngineForwardRecovery exercises the paper's §2 claim that the WFDB
// enables forward recovery of a failed engine: a fresh system over the same
// database resumes a mid-flight instance — completed steps are reused via
// OCR, the step that was executing at the crash re-runs, and the workflow
// commits.
func TestEngineForwardRecovery(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(1)}))
	reg.Register("ca", tracked(rec, "ca", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	reg.Register("pc", tracked(rec, "c", nil))
	s := model.NewSchema("Rec", "I1").
		Step("A", "pa", model.WithInputs("WF.I1"), model.WithOutputs("O1"), model.WithCompensation("ca")).
		Step("B", "pb", model.WithInputs("A.O1")).
		Step("C", "pc").
		Seq("A", "B", "C").
		MustBuild()
	lib := lib1(s)

	// Craft the crash state directly in the database: A completed, B was
	// executing when the engine died.
	db := wfdb.NewMemory()
	if err := db.SaveSchema(s); err != nil {
		t.Fatal(err)
	}
	ins := wfdb.NewInstance("Rec", 3, map[string]expr.Value{"I1": expr.Num(9)})
	ins.Events.Post("WF.start")
	ins.RecordExecuting("A", "a1", map[string]expr.Value{"WF.I1": expr.Num(9)})
	ins.RecordDone("A", map[string]expr.Value{"O1": expr.Num(1)})
	ins.RecordExecuting("B", "a2", map[string]expr.Value{"A.O1": expr.Num(1)})
	if err := db.SaveInstance(ins); err != nil {
		t.Fatal(err)
	}

	sys, err := NewSystem(SystemConfig{
		Library:   lib,
		Programs:  reg,
		Collector: metrics.NewCollector(),
		DBs:       []*wfdb.DB{db},
		Agents:    []string{"a1", "a2"},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Not yet recovered, the instance reads as running from its row.
	if st, ok := sys.Status("Rec", 3); !ok || st != wfdb.Running {
		t.Errorf("Status before Recover = (%v, %v), want running", st, ok)
	}
	n, err := sys.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover = (%d, %v), want 1 instance", n, err)
	}
	st, err := sys.Wait("Rec", 3, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("recovered instance = (%v, %v)", st, err)
	}
	// A's results were reused (no re-execution, no compensation); B re-ran.
	if rec.count("a") != 0 || rec.count("ca") != 0 {
		t.Errorf("A should be reused untouched: %v", rec.list())
	}
	if rec.count("b") != 1 || rec.count("c") != 1 {
		t.Errorf("B/C executions = %v", rec.list())
	}
	// The archive row holds the commit; a second Recover finds nothing to do.
	if st, ok, err := db.ArchivedStatus("Rec", 3); !ok || err != nil || st != wfdb.Committed {
		t.Errorf("archived status = (%v, %v, %v)", st, ok, err)
	}
	if n, err := sys.Recover(); err != nil || n != 0 {
		t.Errorf("second Recover = (%d, %v), want 0", n, err)
	}
}

// TestRecoverWithoutDB rejects recovery when no database is configured.
func TestRecoverWithoutDB(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	lib := lib1(model.NewSchema("W").Step("A", "p").MustBuild())
	sys, err := NewSystem(SystemConfig{
		Library:  lib,
		Programs: reg,
		Agents:   []string{"a1"},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Recover(); err == nil {
		t.Error("Recover without DB should fail")
	}
}

// linSchema builds the three-step linear schema used by the retirement tests.
func linSchema(reg *model.Registry, rec *recorder) *model.Schema {
	reg.Register("pa", tracked(rec, "a", map[string]expr.Value{"O1": expr.Num(1)}))
	reg.Register("pb", tracked(rec, "b", map[string]expr.Value{"O1": expr.Num(2)}))
	reg.Register("pc", tracked(rec, "c", nil))
	return model.NewSchema("Lin", "I1").
		Step("A", "pa", model.WithOutputs("O1")).
		Step("B", "pb", model.WithInputs("A.O1"), model.WithOutputs("O1")).
		Step("C", "pc", model.WithInputs("B.O1", "WF.I1")).
		Seq("A", "B", "C").
		MustBuild()
}

// TestArchiveWithoutDBDeletesNothing: an engine without a WFDB writes no
// instance rows, so retiring an instance writes its archive row and nothing
// else. Ten instances are ten archive rows and the schema's one name table.
func TestArchiveWithoutDBDeletesNothing(t *testing.T) {
	reg := model.NewRegistry()
	sys := deployment(t, 1, false, lib1(linSchema(reg, &recorder{})), reg, t.Logf)
	for i := 0; i < 10; i++ {
		runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(1)}, wfdb.Committed)
	}
	if n := sys.archive.Store().Writes(); n != 11 {
		t.Errorf("the archive store saw %d mutations for 10 retired instances, want 11", n)
	}
}

func TestRetiredInstanceServedFromArchive(t *testing.T) {
	reg := model.NewRegistry()
	sys := newSystem(t, lib1(linSchema(reg, &recorder{})), reg)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(1)}, wfdb.Committed)

	// The live table is empty: the terminal instance was archived and
	// evicted when it committed.
	if n := sys.engines[0].LiveInstances(); n != 0 {
		t.Fatalf("LiveInstances = %d after commit", n)
	}
	// The public API still answers, now from the archive/terminal registry.
	if st, ok := sys.Status("Lin", id); !ok || st != wfdb.Committed {
		t.Fatalf("Status = (%v, %v)", st, ok)
	}
	snap, ok := sys.Snapshot("Lin", id)
	if !ok || snap.Status != wfdb.Committed {
		t.Fatalf("Snapshot = (%v, %v)", snap, ok)
	}
	if !snap.Data["B.O1"].Equal(expr.Num(2)) {
		t.Fatalf("archived data table = %v", snap.Data)
	}
	if st, err := sys.Wait("Lin", id, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("Wait = (%v, %v)", st, err)
	}
	// Mutations distinguish retired from never-started.
	if err := sys.Abort("Lin", id); err != ErrNotRunning {
		t.Fatalf("Abort retired = %v, want ErrNotRunning", err)
	}
	if err := sys.Abort("Lin", 999); err != ErrUnknownInstance {
		t.Fatalf("Abort unknown = %v, want ErrUnknownInstance", err)
	}
}

// TestSnapshotOfFinishedInstanceTakesNoTurn: a committed instance's Snapshot
// is answered from the archive while every engine, the one that ran it among
// them, is held in a long turn; it does not queue behind any engine's work.
func TestSnapshotOfFinishedInstanceTakesNoTurn(t *testing.T) {
	for _, tc := range []struct {
		name    string
		engines int
		dbs     bool
	}{
		{"centralized", 1, true},
		{"centralized without a database", 1, false},
		{"parallel with a database per engine", 2, true},
		{"parallel, four engines with a database each", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := model.NewRegistry()
			sys := deployment(t, tc.engines, tc.dbs, lib1(linSchema(reg, &recorder{})), reg, t.Logf)
			// Round robin: one instance on each engine.
			for i := 0; i < tc.engines; i++ {
				id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(1)}, wfdb.Committed)
				sys.Snapshot("Lin", id) // takes the hand-off, if there was one
				var releases []func()
				for _, e := range sys.engines {
					releases = append(releases, holdEngine(t, e))
				}
				got := make(chan *wfdb.Instance, 1)
				go func() {
					snap, _ := sys.Snapshot("Lin", id)
					got <- snap
				}()
				select {
				case snap := <-got:
					if snap == nil || snap.Status != wfdb.Committed {
						t.Errorf("Snapshot(Lin.%d) = %v, want the committed instance", id, snap)
					}
				case <-time.After(2 * time.Second):
					t.Errorf("Snapshot(Lin.%d), run by %s, waited for an engine turn", id, sys.names[i])
				}
				for _, release := range releases {
					release()
				}
			}
		})
	}
}

// holdEngine parks the engine in a command turn until the returned function is
// called, or the test ends (ahead of the deployment's Close, registered
// before it).
func holdEngine(t *testing.T, e *Engine) (release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	e.DoAsync(func() {
		close(entered)
		<-gate
	})
	<-entered
	return release
}

// TestChangeInputsOfInstanceRetiredWhileQueued: an input change that waits for
// the engine behind the command retiring its instance gets ErrNotRunning, the
// error Abort gives in the same race, not ErrUnknownInstance.
func TestChangeInputsOfInstanceRetiredWhileQueued(t *testing.T) {
	reg := model.NewRegistry()
	block := make(chan struct{})
	reg.Register("pa", func(*model.ProgramContext) (map[string]expr.Value, error) {
		<-block
		return nil, nil
	})
	reg.Register("pb", model.NopProgram())
	sys := deployment(t, 1, false, lib1(model.NewSchema("W", "I1").
		Step("A", "pa").
		Step("B", "pb", model.WithInputs("WF.I1")).
		Seq("A", "B").
		MustBuild()), reg, t.Logf)
	t.Cleanup(func() { close(block) }) // ahead of the deployment's Close
	id, err := sys.StartCtx(context.Background(), "W", map[string]expr.Value{"I1": expr.Num(1)})
	if err != nil {
		t.Fatal(err)
	}
	e := sys.engines[0]
	release := holdEngine(t, e)
	// Queued first: the instance aborts (nothing to compensate) and retires.
	e.DoAsync(func() { e.abortInstance(e.instances[wfdb.InstanceKeyOf("W", id)], metrics.Abort) })
	errc := make(chan error, 1)
	go func() { errc <- sys.ChangeInputs("W", id, map[string]expr.Value{"I1": expr.Num(2)}) }()
	time.Sleep(50 * time.Millisecond) // let the input change queue behind the abort
	release()
	if err := <-errc; !errors.Is(err, ErrNotRunning) {
		t.Fatalf("ChangeInputs of an instance retired while it was queued: %v, want ErrNotRunning", err)
	}
	if err := sys.Abort("W", id); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Abort of the retired instance: %v, want ErrNotRunning", err)
	}
}

func TestRecoverDoesNotResurrectRetired(t *testing.T) {
	reg := model.NewRegistry()
	rec := &recorder{}
	sys := newSystem(t, lib1(linSchema(reg, rec)), reg)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(1)}, wfdb.Committed)

	// Archive removed the instance record, so recovery has nothing to load:
	// the retired instance must not come back as a running replica.
	n, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Recover resumed %d instances, want 0", n)
	}
	if live := sys.engines[0].LiveInstances(); live != 0 {
		t.Fatalf("LiveInstances after Recover = %d", live)
	}
	if st, ok := sys.Status("Lin", id); !ok || st != wfdb.Committed {
		t.Fatalf("Status after Recover = (%v, %v)", st, ok)
	}
	if got := rec.count("a"); got != 1 {
		t.Fatalf("step A executed %d times (re-executed after recovery?)", got)
	}
}

func TestRetirementForgetsCoordination(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa1", tracked(rec, "a1", nil))
	reg.Register("pa2", tracked(rec, "a2", nil))
	wf1 := model.NewSchema("O1").Step("A1", "pa1").MustBuild()
	wf2 := model.NewSchema("O2").Step("A2", "pa2").MustBuild()
	lib := lib1(wf1, wf2)
	lib.AddCoord(model.CoordSpec{
		Kind: model.RelativeOrder,
		Name: "orders",
		Pairs: []model.ConflictPair{
			{A: model.StepRef{Workflow: "O1", Step: "A1"}, B: model.StepRef{Workflow: "O2", Step: "A2"}},
		},
	})
	sys := newSystem(t, lib, reg)

	id1 := runToStatus(t, sys, "O1", nil, wfdb.Committed)
	id2 := runToStatus(t, sys, "O2", nil, wfdb.Committed)
	_ = id1
	_ = id2

	// finishInstance must Forget the instance at the tracker: retired
	// instances may not linger in relative-order queues (they would block
	// every later instance of the conflicting class).
	tr := sys.engines[0].home.Tracker()
	var q []coord.InstanceRef
	sys.engines[0].Do(func() { q = tr.OrderQueue("orders") })
	if len(q) != 0 {
		t.Fatalf("order queue still holds %v after both instances retired", q)
	}
}

// TestInputChangeRollbackChargesInFlightResult pins the fix for the
// documented ~1.5% Table-4 load flake: when a rollback resets a step whose
// result is still in flight, onStepResult later drops that stale result
// without charging its result-processing unit, so total load used to depend
// on whether the result or the rollback won the race. rollbackTo now charges
// the dropped unit at reset time under the pre-rollback mechanism. The gates
// force the losing schedule deterministically: B's result is in flight (its
// program is parked) when the input change rolls A and B back, and A's
// re-execution parks too, so after ChangeInputs returns the only Normal-row
// charge since the snapshot is the recharged unit of B's doomed result.
func TestInputChangeRollbackChargesInFlightResult(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	gateA := make(chan struct{})
	gateB := make(chan struct{})
	var gateBOnce sync.Once
	reg.Register("pa", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("a")
		if ctx.Attempt > 1 {
			<-gateA
		}
		v, _ := ctx.Inputs["WF.I1"].AsNum()
		return map[string]expr.Value{"O1": expr.Num(v * 2)}, nil
	})
	reg.Register("pb", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		rec.add("b")
		gateBOnce.Do(func() { <-gateB })
		return nil, nil
	})
	s := model.NewSchema("ICF", "I1").
		Step("A", "pa", model.WithInputs("WF.I1"), model.WithOutputs("O1")).
		Step("B", "pb", model.WithInputs("A.O1")).
		Seq("A", "B").
		MustBuild()
	sys := newSystem(t, lib1(s), reg)
	col := sys.Collector()

	id, err := sys.Start("ICF", map[string]expr.Value{"I1": expr.Num(10)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTimeout)
	for rec.count("b") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("B never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Quiescent point: A's result is processed, B is dispatched and parked,
	// B's result is the one in-flight completion.
	normalBefore := col.TotalLoad(metrics.Normal)

	if err := sys.ChangeInputs("ICF", id, map[string]expr.Value{"I1": expr.Num(20)}); err != nil {
		t.Fatal(err)
	}
	// ChangeInputs runs synchronously on the engine goroutine: the rollback,
	// the recharge, and A's re-dispatch (charged to the InputChange row) are
	// done; A's re-execution is parked on gateA.
	if d := col.TotalLoad(metrics.Normal) - normalBefore; d != 1 {
		t.Errorf("Normal-row load delta across the racing rollback = %d, want exactly 1 (the dropped in-flight result's recharged unit)", d)
	}
	close(gateA)
	close(gateB)
	st, err := sys.Wait("ICF", id, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("wait = (%v, %v)", st, err)
	}
	snap, _ := sys.Snapshot("ICF", id)
	if !snap.Data["A.O1"].Equal(expr.Num(40)) {
		t.Errorf("A.O1 = %v, want 40 after input change", snap.Data["A.O1"])
	}
}

// TestRollbackOrderAppliesInstancesDeterministically pins the fix for a bug
// crewlint's mapiter analyzer found: applyRollbackOrder iterated the
// engine's instances map while emitting rollback and re-dispatch traffic,
// so the order dependent instances were rolled back — and therefore the
// emitted message sequence — changed from run to run with Go's randomized
// map order. Six dependent instances on a single agent make the applied
// order observable through the compensation programs; the engine must visit
// them in sorted instance-key order (probability of passing by accident
// with map order: 1/6!).
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
	reg.Register("py2", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		gateOnce.Do(func() { <-gate })
		return nil, nil
	})
	x := model.NewSchema("X").
		Step("X1", "px1", model.WithAgents("a1")).
		Step("X2", "px2", model.WithAgents("a1")).
		Seq("X1", "X2").
		OnFailure("X2", "X1", 3).
		MustBuild()
	y := model.NewSchema("Y").
		Step("Y1", "py1", model.WithCompensation("cy1"), model.WithReexecCond("true"), model.WithAgents("a1")).
		Step("Y2", "py2", model.WithAgents("a2")).
		Seq("Y1", "Y2").
		MustBuild()
	lib := lib1(x, y)
	lib.AddCoord(model.CoordSpec{
		Kind:    model.RollbackDep,
		Name:    "dep",
		Trigger: model.StepRef{Workflow: "X", Step: "X1"},
		Target:  model.StepRef{Workflow: "Y", Step: "Y1"},
	})
	sys := newSystem(t, lib, reg)

	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id, err := sys.Start("Y", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(waitTimeout)
	for {
		done := 0
		for _, id := range ids {
			if rec.count(fmt.Sprintf("y1:%d", id)) > 0 {
				done++
			}
		}
		if done == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d Y1 executions", done, n)
		}
		time.Sleep(time.Millisecond)
	}

	// X's failure rollback past X1 triggers the dependency on every running
	// Y instance.
	idX, err := sys.Start("X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := sys.Wait("X", idX, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("X = (%v, %v)", st, err)
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
	want := make([]string, 0, n)
	for _, id := range ids {
		want = append(want, fmt.Sprintf("cy1:%d", id))
	}
	if len(comps) != n {
		t.Fatalf("compensations = %v, want one per instance %v", comps, want)
	}
	for i := range want {
		if comps[i] != want[i] {
			t.Fatalf("dependent rollback order = %v, want sorted instance order %v", comps, want)
		}
	}
}

// TestAgentReportsUndeliverableResult: a step result whose ReplyTo names no
// registered node used to vanish without a trace, leaving the instance
// waiting. The agent reports it once, and the turn still ends: the request is
// acked, so the network goes idle.
func TestAgentReportsUndeliverableResult(t *testing.T) {
	net := transport.NewNetwork(transport.NetworkConfig{})
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	var mu sync.Mutex
	var lines []string
	ag, err := NewAgent("a1", net, reg, metrics.NewCollector(), func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { net.Close(); ag.Stop() }()
	err = net.Send(transport.Message{From: "test", To: "a1", Mechanism: metrics.Normal, Kind: KindStepExecute,
		Payload: &ExecRequest{Workflow: "W", Instance: 1, Step: "A", Program: "p", ReplyTo: "nobody"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if err := net.Quiesce(ctx); err != nil {
		t.Fatalf("turn was not acked: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "nobody") {
		t.Errorf("log lines = %q, want one naming the unknown destination", lines)
	}
	if ag.Load() != 1 {
		t.Errorf("agent executed %d programs, want 1", ag.Load())
	}
}
