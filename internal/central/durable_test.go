package central

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/store"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// TestMain checks every instance row the package's tests save against a
// walk of the instance without the bytes it kept from its last save
// (wfdb.CheckSaves): a save that took a step record's old bytes after the
// record changed fails the run.
func TestMain(m *testing.M) {
	var bad atomic.Int64
	wfdb.CheckSaves(func(key string, saved, fresh []byte) {
		if !bytes.Equal(saved, fresh) && bad.Add(1) == 1 {
			fmt.Fprintf(os.Stderr, "saved row of %s differs from a fresh walk\n saved %x\n fresh %x\n", key, saved, fresh)
		}
	})
	code := m.Run()
	if n := bad.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d saved rows differ from a fresh walk of their instance\n", n)
		code = 1
	}
	os.Exit(code)
}

// fileSystem is newSystem over a file-backed WFDB.
func fileSystem(t *testing.T, path string, lib *model.Library, reg *model.Registry) (*System, *wfdb.DB) {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	db := wfdb.New(st)
	sys, err := NewSystem(SystemConfig{
		Library: lib, Programs: reg, Collector: metrics.NewCollector(),
		DBs: []*wfdb.DB{db}, Agents: []string{"a1", "a2"}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close(); st.Close() })
	return sys, db
}

// TestCommitPrecedesSend checks the engine's write-ahead contract at the
// point it is implemented (the actor's turn epilogue): by the time any step request is
// accepted by the transport, the WFDB already holds the instance row that
// records the attempt as executing at that agent.
func TestCommitPrecedesSend(t *testing.T) {
	reg := model.NewRegistry()
	sys, db := fileSystem(t, filepath.Join(t.TempDir(), "wfdb.db"), lib1(linSchema(reg, &recorder{})), reg)

	var mu sync.Mutex
	var violations []string
	requests := 0
	sys.Network().Trace(func(m transport.Message) {
		req, ok := m.Payload.(*ExecRequest)
		if !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		requests++
		ins, found, err := db.LoadInstance(req.Workflow, req.Instance)
		if err != nil || !found {
			violations = append(violations, "request for "+string(req.Step)+" sent with no instance row on the log")
			return
		}
		r := ins.Steps[req.Step]
		if r == nil || r.Status != wfdb.StepExecuting || r.Attempts != req.Attempt || r.Agent != m.To {
			violations = append(violations, "request for "+string(req.Step)+" sent ahead of its write-ahead row")
		}
	})
	for i := 0; i < 5; i++ {
		runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(float64(i))}, wfdb.Committed)
	}
	sys.Network().Trace(nil)
	mu.Lock()
	defer mu.Unlock()
	if requests != 15 {
		t.Errorf("traced %d step requests, want 15", requests)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// TestDurableLogSurvivesCutAnywhere runs instances to completion on a file
// WFDB, then cuts the log at every byte. Whatever prefix survives, every
// instance is in exactly one of the instance and archive tables, its one row
// gives its status (running while live, terminal once archived, and
// ArchivedStatus reads the archive row's), and a fresh engine recovering from
// it resumes only instances the archive does not hold.
func TestDurableLogSurvivesCutAnywhere(t *testing.T) {
	dir := t.TempDir()
	reg := model.NewRegistry()
	lib := lib1(linSchema(reg, &recorder{}))
	path := filepath.Join(dir, "wfdb.db")
	sys, _ := fileSystem(t, path, lib, reg)
	const instances = 3
	for i := 0; i < instances; i++ {
		runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(float64(i))}, wfdb.Committed)
	}
	sys.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Per-turn commit: three steps and a start are a handful of groups.
	if perInst := len(data) / instances; perInst > 4<<10 {
		t.Errorf("WAL is %d bytes per three-step instance, budget 4 KiB", perInst)
	}

	cutPath := filepath.Join(dir, "cut.db")
	archivedAtEnd := 0
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(cutPath)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		db := wfdb.New(st)
		archivedAtEnd = 0
		for id := 1; id <= instances; id++ {
			live, isLive, err := db.LoadInstance("Lin", id)
			if err != nil {
				t.Fatalf("cut=%d: Lin.%d instance row: %v", cut, id, err)
			}
			arch, isArchived, err := db.LoadArchived("Lin", id)
			if err != nil {
				t.Fatalf("cut=%d: Lin.%d archive row: %v", cut, id, err)
			}
			done, hasStatus, err := db.ArchivedStatus("Lin", id)
			if err != nil || hasStatus != isArchived {
				t.Fatalf("cut=%d: Lin.%d archived status (%v, %v, %v), archived %v", cut, id, done, hasStatus, err, isArchived)
			}
			switch {
			case isLive && isArchived:
				t.Fatalf("cut=%d: Lin.%d is both live and archived", cut, id)
			case isArchived:
				archivedAtEnd++
				if arch.Status != wfdb.Committed || done != wfdb.Committed {
					t.Fatalf("cut=%d: Lin.%d archived as %v, archived status %v", cut, id, arch.Status, done)
				}
			case isLive:
				if live.Status != wfdb.Running {
					t.Fatalf("cut=%d: Lin.%d live as %v", cut, id, live.Status)
				}
			}
		}
		st.Close()
	}
	if archivedAtEnd != instances {
		t.Errorf("full log holds %d archived instances, want %d", archivedAtEnd, instances)
	}

	// Recovery from a log cut inside the last retirement group resumes that
	// instance and nothing else, and it commits again without resurrecting
	// the ones already archived.
	if err := os.WriteFile(cutPath, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	reg2 := model.NewRegistry()
	sys2, db2 := fileSystem(t, cutPath, lib1(linSchema(reg2, rec)), reg2)
	n, err := sys2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover = (%d, %v), want the one instance whose retirement was torn", n, err)
	}
	if st, err := sys2.Wait("Lin", instances, waitTimeout); err != nil || st != wfdb.Committed {
		t.Fatalf("recovered instance = (%v, %v)", st, err)
	}
	if keys := db2.InstanceKeys(); len(keys) != 0 {
		t.Errorf("instance table after recovery = %v, want empty", keys)
	}
}

// TestDurableGroupsSurviveCutAnywhere is the cut-anywhere test with several
// instances in flight, so that one mailbox pass commits rows of several
// instances as one group. The log is cut at every byte: every Start
// acknowledged before the surviving prefix ended is on it, no instance is both
// archived and live, and a fresh engine recovering from the prefix commits
// every instance still live there.
func TestDurableGroupsSurviveCutAnywhere(t *testing.T) {
	dir := t.TempDir()
	reg := model.NewRegistry()
	lib := lib1(linSchema(reg, &recorder{}))
	path := filepath.Join(dir, "wfdb.db")
	sys, _ := fileSystem(t, path, lib, reg)
	const instances = 6
	// The first step results of all six queue while the engine's node is
	// down, and reach it in one drain pass.
	sys.Network().Crash("engine")
	acked := make([]int64, instances+1) // log size when Start returned, by ID
	for i := 1; i <= instances; i++ {
		id, err := sys.Start("Lin", map[string]expr.Value{"I1": expr.Num(float64(i))})
		if err != nil || id != i {
			t.Fatalf("Start = (%d, %v), want ID %d", id, err, i)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		acked[i] = fi.Size()
	}
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	if stalled, err := sys.Network().AwaitStall(ctx); err != nil || !stalled {
		t.Fatalf("AwaitStall = (%v, %v): the step results should wait at the engine", stalled, err)
	}
	sys.Network().Recover("engine")
	for id := 1; id <= instances; id++ {
		if st, err := sys.Wait("Lin", id, waitTimeout); err != nil || st != wfdb.Committed {
			t.Fatalf("Lin.%d = (%v, %v)", id, st, err)
		}
	}
	sys.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.db")
	var prev []string // each instance's state at the previous cut
	multi := false
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(cutPath)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		db := wfdb.New(st)
		states, changed := make([]string, instances+1), 0
		for id := 1; id <= instances; id++ {
			live, isLive, err1 := db.LoadInstance("Lin", id)
			_, isArchived, err2 := db.LoadArchived("Lin", id)
			if err1 != nil || err2 != nil {
				t.Fatalf("cut=%d: Lin.%d: %v, %v", cut, id, err1, err2)
			}
			switch {
			case isLive && isArchived:
				t.Fatalf("cut=%d: Lin.%d is both live and archived", cut, id)
			case !isLive && !isArchived && int64(cut) >= acked[id]:
				t.Fatalf("cut=%d: Lin.%d was acknowledged at byte %d and is not on the log", cut, id, acked[id])
			}
			states[id] = fmt.Sprint(isArchived, stepStates(live))
			if prev != nil && states[id] != prev[id] {
				changed++
			}
		}
		st.Close()
		multi = multi || changed >= 2
		if prev != nil && changed > 0 {
			// A group ends here: what it left behind must recover.
			recoverPrefix(t, cutPath, data[:cut], lib, reg)
		}
		prev = states
	}
	if !multi {
		t.Error("no WAL group carries rows of two instances: the test proves nothing about group commit")
	}
}

// stepStates renders what a live row records of each step (nil: no row).
func stepStates(ins *wfdb.Instance) string {
	if ins == nil {
		return "-"
	}
	var b strings.Builder
	for _, id := range []model.StepID{"A", "B", "C"} {
		if r := ins.Steps[id]; r != nil {
			fmt.Fprintf(&b, "%s:%v/%d ", id, r.Status, r.Attempts)
		}
	}
	return b.String()
}

// recoverPrefix opens a deployment over a log prefix, recovers, and checks that
// every instance live on the prefix commits and none is left live.
func recoverPrefix(t *testing.T, path string, prefix []byte, lib *model.Library, reg *model.Registry) {
	t.Helper()
	if err := os.WriteFile(path, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db := wfdb.New(st)
	sys, err := NewSystem(SystemConfig{
		Library: lib, Programs: reg, Collector: metrics.NewCollector(),
		DBs: []*wfdb.DB{db}, Agents: []string{"a1", "a2"}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	live := db.InstanceKeys()
	if n, err := sys.Recover(); err != nil || n != len(live) {
		t.Fatalf("prefix of %d bytes: Recover = (%d, %v), want the %d live instances", len(prefix), n, err, len(live))
	}
	for _, key := range live {
		workflow, id, err := wfdb.ParseInstanceKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if s, err := sys.Wait(workflow, id, waitTimeout); err != nil || s != wfdb.Committed {
			t.Fatalf("prefix of %d bytes: recovered %s = (%v, %v)", len(prefix), key, s, err)
		}
	}
	if keys := db.InstanceKeys(); len(keys) != 0 {
		t.Fatalf("prefix of %d bytes: instance table after recovery = %v, want empty", len(prefix), keys)
	}
}

// TestRetirementWritesArchiveRowAndDeletion: an instance's start group writes
// its instance row and nothing else, and its retirement writes two ops: the
// archive row and the deletion of the instance row. The one step holds until
// released, so the start group is counted before the rest is written; the
// second instance is counted, the first having written the schema's name
// table.
func TestRetirementWritesArchiveRowAndDeletion(t *testing.T) {
	reg := model.NewRegistry()
	started, release := make(chan struct{}), make(chan struct{})
	reg.Register("hold", func(*model.ProgramContext) (map[string]expr.Value, error) {
		started <- struct{}{}
		<-release
		return nil, nil
	})
	sys := newSystem(t, lib1(model.NewSchema("Hold").Step("A", "hold").MustBuild()), reg)
	st := sys.dbs[0].Store()
	for i := 0; i < 2; i++ {
		before := st.Writes()
		id, err := sys.Start("Hold", nil)
		if err != nil {
			t.Fatal(err)
		}
		<-started
		start := st.Writes() - before
		before = st.Writes()
		release <- struct{}{}
		if got, err := sys.Wait("Hold", id, waitTimeout); err != nil || got != wfdb.Committed {
			t.Fatalf("Hold.%d = (%v, %v)", id, got, err)
		}
		if retire := st.Writes() - before; retire != 2 {
			t.Errorf("Hold.%d: retirement wrote %d ops, want 2 (archive row, instance row deleted)", id, retire)
		}
		if i == 1 && start != 1 {
			t.Errorf("Hold.%d: start group wrote %d ops, want the instance row alone", id, start)
		}
	}
}

// TestRestartedSystemReadsArchivedStatus: a second system over the file WFDB
// that a first, closed system filled answers Status and Wait for the
// instances the first finished, committed and aborted, from their archive
// rows, with nothing recovered; an instance the file never held is unknown.
func TestRestartedSystemReadsArchivedStatus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wfdb.db")
	reg := model.NewRegistry()
	reg.Register("fail", model.FailNTimes(100, model.NopProgram()))
	abort := model.NewSchema("Fail").Step("A", "fail").MustBuild()
	lib := lib1(linSchema(reg, &recorder{}), abort)
	sys, db := fileSystem(t, path, lib, reg)
	want := map[string]wfdb.Status{"Lin": wfdb.Committed, "Fail": wfdb.Aborted}
	ids := make(map[string]int)
	for wf, st := range want {
		ids[wf] = runToStatus(t, sys, wf, map[string]expr.Value{"I1": expr.Num(1)}, st)
	}
	sys.Close()
	db.Store().Close()

	sys2, _ := fileSystem(t, path, lib, reg)
	for wf, st := range want {
		if got, ok := sys2.Status(wf, ids[wf]); !ok || got != st {
			t.Errorf("Status(%s.%d) = (%v, %v), want %v", wf, ids[wf], got, ok, st)
		}
		if got, err := sys2.Wait(wf, ids[wf], waitTimeout); err != nil || got != st {
			t.Errorf("Wait(%s.%d) = (%v, %v), want %v", wf, ids[wf], got, err, st)
		}
	}
	if got, ok := sys2.Status("Lin", 99); ok {
		t.Errorf("Status of an instance never started = %v", got)
	}
}
