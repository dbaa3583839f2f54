package central

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/model"
	"crew/internal/store"
	"crew/internal/wfdb"
)

// The hand-off: an engine retiring a top-level instance somebody waits for
// gives its final *wfdb.Instance to the terminal registry, and the first
// Snapshot takes it.

// shapes are the deployments every hand-off test runs on.
var shapes = []struct {
	name    string
	engines int
	dbs     bool
}{
	{"centralized", 1, false},
	{"centralized with a database", 1, true},
	{"parallel", 2, false},
	{"parallel with a database per engine", 2, true},
}

// deployment builds engines engines, each with a memory database when dbs is
// set, and agents a1, a2.
func deployment(t *testing.T, engines int, dbs bool, lib *model.Library, reg *model.Registry, logf func(string, ...any)) *System {
	t.Helper()
	cfg := SystemConfig{
		Library: lib, Programs: reg, Engines: engines,
		Agents: []string{"a1", "a2"}, Logf: logf,
	}
	for i := 0; dbs && i < engines; i++ {
		cfg.DBs = append(cfg.DBs, wfdb.NewMemory())
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// nestedLib has Parent run the nested Child, then P2 on the child's result.
// Child's one step runs inner.
func nestedLib(reg *model.Registry, inner model.Program) *model.Library {
	reg.Register("pinner", inner)
	reg.Register("pafter", model.NopProgram())
	child := model.NewSchema("Child", "I1").
		Step("C1", "pinner", model.WithInputs("WF.I1"), model.WithOutputs("R")).
		MustBuild()
	parent := model.NewSchema("Parent", "I1").
		NestedStep("N", "Child", model.WithInputs("WF.I1"), model.WithOutputs("R")).
		Step("P2", "pafter", model.WithInputs("N.R")).
		Seq("N", "P2").
		MustBuild()
	return lib1(parent, child)
}

func plusOne(ctx *model.ProgramContext) (map[string]expr.Value, error) {
	v, _ := ctx.Inputs["WF.I1"].AsNum()
	return map[string]expr.Value{"R": expr.Num(v + 1)}, nil
}

// archiveRow is the instance's row in db's archive table.
func archiveRow(t *testing.T, db *wfdb.DB, workflow string, id int) []byte {
	t.Helper()
	row, ok := db.Store().Get("archive", wfdb.InstanceKeyOf(workflow, id))
	if !ok {
		t.Fatalf("%s.%d has no archive row", workflow, id)
	}
	return row
}

// rowOf encodes ins as an archive row.
func rowOf(t *testing.T, ins *wfdb.Instance) []byte {
	t.Helper()
	db := wfdb.NewMemory()
	if err := db.Archive(ins); err != nil {
		t.Fatal(err)
	}
	return archiveRow(t, db, ins.Workflow, ins.ID)
}

// TestSnapshotTakesFinalState: with a waiter subscribed when the instance
// finishes, the first Snapshot returns the engine's own final instance, whose
// row is the archive row; the second is decoded from the archive; a nested
// child, whose data its parent step reads after the child finished, is never
// handed off.
func TestSnapshotTakesFinalState(t *testing.T) {
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			entered, gate := make(chan struct{}, 1), make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(gate) }) }
			t.Cleanup(release)
			reg := model.NewRegistry()
			lib := nestedLib(reg, func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
				entered <- struct{}{}
				<-gate
				return plusOne(ctx)
			})
			sys := deployment(t, tc.engines, tc.dbs, lib, reg, t.Logf)

			id, err := sys.Start("Parent", map[string]expr.Value{"I1": expr.Num(41)})
			if err != nil {
				t.Fatal(err)
			}
			<-entered
			owner, ok := sys.owner.Get(itable.Ref{Workflow: "Parent", ID: id})
			if !ok {
				t.Fatalf("Parent.%d has no owner", id)
			}
			var parentLive, childLive *wfdb.Instance
			owner.Do(func() {
				for _, st := range owner.instances {
					if st.Ins.Workflow == "Child" {
						childLive = st.Ins
					} else {
						parentLive = st.Ins
					}
				}
			})
			if parentLive == nil || childLive == nil {
				t.Fatalf("live instances: parent %v, child %v", parentLive, childLive)
			}
			childID := childLive.ID

			waited := make(chan error, 2)
			for _, ref := range []itable.Ref{{Workflow: "Parent", ID: id}, {Workflow: "Child", ID: childID}} {
				go func() {
					st, err := sys.Wait(ref.Workflow, ref.ID, waitTimeout)
					if err == nil && st != wfdb.Committed {
						err = fmt.Errorf("%s.%d finished %v", ref.Workflow, ref.ID, st)
					}
					waited <- err
				}()
			}
			for deadline := time.Now().Add(waitTimeout); sys.term.Waiting() < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the waiters never subscribed")
				}
			}
			release()
			for range 2 {
				if err := <-waited; err != nil {
					t.Fatal(err)
				}
			}

			child, ok := sys.Snapshot("Child", childID)
			if !ok || child.Status != wfdb.Committed {
				t.Fatalf("Snapshot(Child.%d) = (%v, %v)", childID, child, ok)
			}
			if child == childLive {
				t.Error("the nested child was handed off")
			}

			row := archiveRow(t, owner.adb, "Parent", id)
			first, ok := sys.Snapshot("Parent", id)
			if !ok || first != parentLive {
				t.Fatalf("first Snapshot(Parent.%d) = (%p, %v), want the engine's instance %p", id, first, ok, parentLive)
			}
			if !first.Data["N.R"].Equal(expr.Num(42)) {
				t.Errorf("taken instance's data = %v", first.Data)
			}
			if got := rowOf(t, first); !bytes.Equal(got, row) {
				t.Errorf("taken instance encodes to %d bytes unlike its %d-byte archive row", len(got), len(row))
			}
			second, ok := sys.Snapshot("Parent", id)
			if !ok || second == first {
				t.Fatalf("second Snapshot(Parent.%d) = (%p, %v), want a decoded copy", id, second, ok)
			}
			if got := rowOf(t, second); !bytes.Equal(got, row) {
				t.Error("second Snapshot differs from the archive row")
			}
		})
	}
}

// TestHandedOffInstanceIsNotTouched: clients take finished instances and
// write every field of them while the engines run further instances, nested
// and aborted ones among them. Under -race, any read or write of an instance
// by its engine after the hand-off is reported.
func TestHandedOffInstanceIsNotTouched(t *testing.T) {
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			reg := model.NewRegistry()
			lib := nestedLib(reg, plusOne)
			// Undo always aborts: C fails with no policy. The abort compensates
			// B, then drops A's results inline (A has no compensation program),
			// so the instance retires inside pumpChain's loop.
			reg.Register("undo", model.NopProgram())
			reg.Register("fail", func(*model.ProgramContext) (map[string]expr.Value, error) {
				return nil, errors.New("fails")
			})
			lib.Add(model.NewSchema("Undo", "I1").
				Step("A", "pafter").
				Step("B", "pafter", model.WithCompensation("undo")).
				Step("C", "fail").
				Seq("A", "B", "C").
				AbortCompensate("A", "B").
				MustBuild())
			sys := deployment(t, tc.engines, tc.dbs, lib, reg, t.Logf)

			const clients, each = 4, 30
			var wg sync.WaitGroup
			for c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range each {
						wf := "Undo"
						if (c+i)%2 == 0 {
							wf = "Parent"
						}
						id, err := sys.Start(wf, map[string]expr.Value{"I1": expr.Num(float64(i))})
						if err != nil {
							t.Error(err)
							return
						}
						if i%3 == 0 {
							_ = sys.Abort(wf, id) // may find it finished
						}
						if _, err := sys.Wait(wf, id, waitTimeout); err != nil {
							t.Error(err)
							return
						}
						ins, ok := sys.Snapshot(wf, id)
						if !ok {
							t.Errorf("Snapshot(%s.%d) missing", wf, id)
							return
						}
						scribble(ins)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestHandedOffInstanceIsNotTouchedByStepInFlight: a user abort retires an
// instance while its step's program still runs over the request's inputs,
// which are the step record's own map. The taker writes every field of what
// it gets before the program reads them; had the engine handed that instance
// off, the program would see the write (and -race would report it).
func TestHandedOffInstanceIsNotTouchedByStepInFlight(t *testing.T) {
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			entered, gate, read := make(chan struct{}, 1), make(chan struct{}), make(chan int, 1)
			var once sync.Once
			release := func() { once.Do(func() { close(gate) }) }
			t.Cleanup(release)
			reg := model.NewRegistry()
			reg.Register("pslow", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
				entered <- struct{}{}
				<-gate
				read <- len(ctx.Inputs)
				return plusOne(ctx)
			})
			lib := lib1(model.NewSchema("Slow", "I1").
				Step("S", "pslow", model.WithInputs("WF.I1"), model.WithOutputs("R")).
				MustBuild())
			sys := deployment(t, tc.engines, tc.dbs, lib, reg, t.Logf)

			id, err := sys.Start("Slow", map[string]expr.Value{"I1": expr.Num(1)})
			if err != nil {
				t.Fatal(err)
			}
			<-entered
			waited := make(chan error, 1)
			go func() {
				st, err := sys.Wait("Slow", id, waitTimeout)
				if err == nil && st != wfdb.Aborted {
					err = fmt.Errorf("Slow.%d finished %v", id, st)
				}
				waited <- err
			}()
			for deadline := time.Now().Add(waitTimeout); sys.term.Waiting() < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the waiter never subscribed")
				}
			}
			if err := sys.Abort("Slow", id); err != nil {
				t.Fatal(err)
			}
			if err := <-waited; err != nil {
				t.Fatal(err)
			}
			snap, ok := sys.Snapshot("Slow", id)
			if !ok || snap.Steps["S"] == nil || snap.Steps["S"].Inputs == nil {
				t.Fatalf("Snapshot(Slow.%d) = (%v, %v), want step S with its inputs", id, snap, ok)
			}
			scribble(snap)
			release()
			if n := <-read; n != 1 {
				t.Errorf("the program read %d inputs, want its one", n)
			}
			ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
			defer cancel()
			if err := sys.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// scribble writes every field of ins, and reassigns each; it writes into each
// step record's maps too.
func scribble(ins *wfdb.Instance) {
	ins.Status = wfdb.Aborted
	ins.Data["scribbled"] = expr.Num(1)
	ins.Data = map[string]expr.Value{}
	ins.Events.Post("scribbled")
	ins.Events = event.NewTable()
	for _, rec := range ins.Steps {
		rec.Status = wfdb.StepFailed
		for _, m := range []map[string]expr.Value{rec.Inputs, rec.Outputs} {
			if m != nil {
				m["scribbled"] = expr.Num(1)
			}
		}
		rec.Inputs, rec.Outputs = nil, nil
	}
	ins.Steps = nil
	ins.ExecOrder = append(ins.ExecOrder, "scribbled")
	ins.ExecOrder = nil
	ins.Parent = nil
}

// TestSnapshotLogsUndecodableArchiveRow: a damaged archive row reads as
// missing and is logged with its error code.
func TestSnapshotLogsUndecodableArchiveRow(t *testing.T) {
	logs := &recorder{}
	logf := func(format string, args ...any) { logs.add(fmt.Sprintf(format, args...)) }
	reg := model.NewRegistry()
	sys := deployment(t, 1, true, lib1(linSchema(reg, &recorder{})), reg, logf)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(1)}, wfdb.Committed)
	sys.Snapshot("Lin", id) // takes the hand-off, if there was one
	if err := sys.dbs[0].Store().Put("archive", wfdb.InstanceKeyOf("Lin", id), []byte{0xff, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if ins, ok := sys.Snapshot("Lin", id); ok {
		t.Fatalf("Snapshot of a damaged row = %v", ins)
	}
	for _, line := range logs.list() {
		if strings.Contains(line, fmt.Sprintf("Lin.%d", id)) && strings.Contains(line, "[store_format]") {
			return
		}
	}
	t.Errorf("no store_format line logged: %q", logs.list())
}

// TestSnapshotLogsUnreadableSpilledArchiveRow: an archive row kept only in
// the log (SpillArchive) whose bytes the log no longer holds reads as missing
// and is logged with its error code, as a row that will not decode is.
func TestSnapshotLogsUnreadableSpilledArchiveRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wfdb.wal")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	db := wfdb.New(st)
	if err := db.SpillArchive(); err != nil {
		t.Fatal(err)
	}
	logs := &recorder{}
	reg := model.NewRegistry()
	sys, err := NewSystem(SystemConfig{
		Library: lib1(linSchema(reg, &recorder{})), Programs: reg, Engines: 1,
		Agents: []string{"a1", "a2"}, DBs: []*wfdb.DB{db},
		Logf: func(format string, args ...any) { logs.add(fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(1)}, wfdb.Committed)
	sys.Snapshot("Lin", id) // takes the hand-off, if there was one
	if _, ok := sys.Snapshot("Lin", id); !ok {
		t.Fatal("no archived row before the cut")
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if ins, ok := sys.Snapshot("Lin", id); ok {
		t.Fatalf("Snapshot of a row the log lost = %v", ins)
	}
	for _, line := range logs.list() {
		if strings.Contains(line, fmt.Sprintf("Lin.%d", id)) && strings.Contains(line, "[store_format]") {
			return
		}
	}
	t.Errorf("no store_format line logged: %q", logs.list())
}
