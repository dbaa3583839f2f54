package central

import (
	"sync"
	"testing"
	"time"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/wfdb"
)

// Deployments of several engines: the paper's parallel architecture (Figure
// 6(b) and §6). The helpers are central_test.go's.

func newEngines(t *testing.T, engines int, lib *model.Library, reg *model.Registry) *System {
	t.Helper()
	sys, err := NewSystem(SystemConfig{
		Library:   lib,
		Programs:  reg,
		Collector: metrics.NewCollector(),
		Engines:   engines,
		Agents:    []string{"a1", "a2"},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func linLib(reg *model.Registry, rec *recorder) *model.Library {
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", tracked(rec, "b", nil))
	reg.Register("pc", tracked(rec, "c", nil))
	s := model.NewSchema("Lin").
		Step("A", "pa").Step("B", "pb").Step("C", "pc").
		Seq("A", "B", "C").
		MustBuild()
	lib := model.NewLibrary()
	lib.Add(s)
	return lib
}

func TestInstancesSpreadAcrossEngines(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	lib := linLib(reg, rec)
	sys := newEngines(t, 4, lib, reg)

	const n = 8
	ids := make([]int, n)
	for i := range ids {
		id, err := sys.Start("Lin", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if st, err := sys.Wait("Lin", id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("instance %d = (%v, %v)", id, st, err)
		}
	}
	if rec.count("a") != n || rec.count("c") != n {
		t.Errorf("executions = %v", rec.list())
	}
	// Round robin: every engine owns two instances, so every engine carries
	// normal-execution load.
	loaded := 0
	for i := 0; i < 4; i++ {
		name := sys.engines[i].Name()
		if sys.Collector().NodeLoad(name, metrics.Normal) > 0 {
			loaded++
		}
	}
	if loaded != 4 {
		t.Errorf("engines with load = %d, want 4", loaded)
	}
	// Per-instance message count matches the centralized model (2·s·a = 12).
	deadline := time.Now().Add(waitTimeout)
	for sys.Collector().Messages(metrics.Normal) < int64(n*12) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sys.Collector().Messages(metrics.Normal); got != int64(n*12) {
		t.Errorf("normal messages = %d, want %d", got, n*12)
	}
}

func TestSingleEngineDegeneratesToCentral(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	lib := linLib(reg, rec)
	sys := newEngines(t, 1, lib, reg)
	id, st, err := sys.Run("Lin", nil, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("run = (%d, %v, %v)", id, st, err)
	}
	if got := sys.Collector().Messages(metrics.Coordination); got != 0 {
		t.Errorf("coordination messages with e=1 = %d, want 0", got)
	}
}

func TestFailureHandlingPerEngine(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	reg.Register("pa", tracked(rec, "a", nil))
	reg.Register("pb", model.FailNTimes(1, tracked(rec, "b", nil)))
	s := model.NewSchema("F").
		Step("A", "pa").Step("B", "pb").Seq("A", "B").
		OnFailure("B", "A", 3).
		MustBuild()
	lib := model.NewLibrary()
	lib.Add(s)
	sys := newEngines(t, 2, lib, reg)
	_, st, err := sys.Run("F", nil, waitTimeout)
	if err != nil || st != wfdb.Committed {
		t.Fatalf("run = (%v, %v)", st, err)
	}
	if rec.count("a") != 1 {
		t.Errorf("A reused? executed %d times: %v", rec.count("a"), rec.list())
	}
}

// TestRelativeOrderAcrossEngines places the leading and lagging instances on
// different engines: ordering must hold and must cost physical messages.
func TestRelativeOrderAcrossEngines(t *testing.T) {
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
		Step("A1", "pa1", model.WithAgents("a1")).
		Step("B1", "pb1", model.WithAgents("a1")).
		Seq("A1", "B1").MustBuild()
	wf2 := model.NewSchema("O2").
		Step("A2", "pa2", model.WithAgents("a2")).
		Step("B2", "pb2", model.WithAgents("a2")).
		Seq("A2", "B2").MustBuild()
	lib := model.NewLibrary()
	lib.Add(wf1)
	lib.Add(wf2)
	lib.AddCoord(model.CoordSpec{
		Kind: model.RelativeOrder,
		Name: "orders",
		Pairs: []model.ConflictPair{
			{A: model.StepRef{Workflow: "O1", Step: "A1"}, B: model.StepRef{Workflow: "O2", Step: "A2"}},
			{A: model.StepRef{Workflow: "O1", Step: "B1"}, B: model.StepRef{Workflow: "O2", Step: "B2"}},
		},
	})
	sys := newEngines(t, 2, lib, reg)

	// First Start lands on engine0, second on engine1.
	id2, err := sys.Start("O2", nil) // engine0: leader (completes A2 first)
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
	id1, err := sys.Start("O1", nil) // engine1: lagging
	if err != nil {
		t.Fatal(err)
	}
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
	// Cross-engine coordination requires physical messages (Table 5 vs 4).
	if got := sys.Collector().Messages(metrics.Coordination); got == 0 {
		t.Error("expected coordination messages in parallel control")
	}
}

func TestMutexAcrossEngines(t *testing.T) {
	reg := model.NewRegistry()
	var mu sync.Mutex
	inCrit, maxCrit := 0, 0
	crit := func(*model.ProgramContext) (map[string]expr.Value, error) {
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
		return nil, nil
	}
	reg.Register("px", crit)
	reg.Register("py", crit)
	a := model.NewSchema("MA").Step("X", "px").MustBuild()
	b := model.NewSchema("MB").Step("Y", "py").MustBuild()
	lib := model.NewLibrary()
	lib.Add(a)
	lib.Add(b)
	lib.AddCoord(model.CoordSpec{
		Kind: model.Mutex,
		Name: "res",
		MutexSteps: []model.StepRef{
			{Workflow: "MA", Step: "X"},
			{Workflow: "MB", Step: "Y"},
		},
	})
	sys := newEngines(t, 3, lib, reg)

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
	mu.Lock()
	defer mu.Unlock()
	if maxCrit != 1 {
		t.Errorf("max concurrent critical sections = %d, want 1", maxCrit)
	}
}

func TestRollbackDependencyAcrossEngines(t *testing.T) {
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
	lib := model.NewLibrary()
	lib.Add(x)
	lib.Add(y)
	lib.AddCoord(model.CoordSpec{
		Kind:    model.RollbackDep,
		Name:    "dep",
		Trigger: model.StepRef{Workflow: "X", Step: "X1"},
		Target:  model.StepRef{Workflow: "Y", Step: "Y1"},
	})
	sys := newEngines(t, 2, lib, reg)

	idY, err := sys.Start("Y", nil) // engine0
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
	idX, err := sys.Start("X", nil) // engine1
	if err != nil {
		t.Fatal(err)
	}
	if st, err := sys.Wait("X", idX, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("X = (%v, %v)", st, err)
	}
	// Give the cross-engine rollback order time to land before releasing Y2.
	deadline = time.Now().Add(waitTimeout)
	for rec.count("cy1") == 0 {
		if time.Now().After(deadline) {
			break
		}
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

func TestConfigValidation(t *testing.T) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram())
	lib := model.NewLibrary()
	lib.Add(model.NewSchema("W").Step("A", "p").MustBuild())

	if _, err := NewSystem(SystemConfig{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := NewSystem(SystemConfig{Library: lib, Programs: reg, Engines: 2, DBs: []*wfdb.DB{wfdb.NewMemory()}}); err == nil {
		t.Error("mismatched DBs length should fail")
	}
	// Engines < 1 coerces to 1.
	sys, err := NewSystem(SystemConfig{Library: lib, Programs: reg, Engines: 0, Agents: []string{"a1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if len(sys.engines) != 1 {
		t.Errorf("engines = %d, want 1", len(sys.engines))
	}
}

func TestRetirementEvictsOwnerMap(t *testing.T) {
	rec := &recorder{}
	reg := model.NewRegistry()
	lib := linLib(reg, rec)
	sys := newEngines(t, 3, lib, reg)

	const n = 9
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id, err := sys.Start("Lin", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if st, err := sys.Wait("Lin", id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("Lin.%d = (%v, %v)", id, st, err)
		}
	}
	// Retirement publishes the terminal status before it drops the owner
	// entry, so that a request arriving in between still reaches the owner:
	// Wait can return inside the retiring turn. An empty turn through each
	// engine waits for those turns to end.
	for _, e := range sys.engines {
		e.Do(func() {})
	}
	// Every instance retired: the routing table holds no refs and no engine
	// holds live state, yet the API still answers from the shared archive.
	if got := sys.owner.Len(); got != 0 {
		t.Fatalf("owner map holds %d refs after retirement", got)
	}
	for i := 0; i < len(sys.engines); i++ {
		if live := sys.engines[i].LiveInstances(); live != 0 {
			t.Fatalf("engine %d still holds %d live instances", i, live)
		}
	}
	for _, id := range ids {
		if st, ok := sys.Status("Lin", id); !ok || st != wfdb.Committed {
			t.Fatalf("Status(%d) = (%v, %v)", id, st, ok)
		}
		snap, ok := sys.Snapshot("Lin", id)
		if !ok || snap.Status != wfdb.Committed {
			t.Fatalf("Snapshot(%d) missing after retirement", id)
		}
	}
}
