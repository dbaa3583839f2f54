package central

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/store"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

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
		req, ok := m.Payload.(ExecRequest)
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
// instance is in exactly one of the instance and archive tables, an archived
// instance has its terminal summary (they are one group), and a fresh engine
// recovering from it resumes only instances the archive does not hold.
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
			sum, hasSum, _ := db.LoadSummary("Lin", id)
			switch {
			case isLive && isArchived:
				t.Fatalf("cut=%d: Lin.%d is both live and archived", cut, id)
			case isArchived:
				archivedAtEnd++
				if arch.Status != wfdb.Committed || !hasSum || sum != wfdb.Committed {
					t.Fatalf("cut=%d: Lin.%d archived as %v with summary (%v, %v)", cut, id, arch.Status, sum, hasSum)
				}
			case isLive:
				if live.Status != wfdb.Running || !hasSum || sum != wfdb.Running {
					t.Fatalf("cut=%d: Lin.%d live as %v with summary (%v, %v)", cut, id, live.Status, sum, hasSum)
				}
			case hasSum:
				t.Fatalf("cut=%d: Lin.%d has a summary but no row", cut, id)
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
