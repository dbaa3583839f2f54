package distributed

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"crew/internal/expr"
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

// fileSystem is a three-agent deployment with one file-backed AGDB per agent
// and the Lin schema pinned A@a1, B@a2, C@a3, so a1 coordinates every
// instance and every packet crosses the network. The returned paths and
// databases are indexed like the agent names.
func fileSystem(t *testing.T, dir string) (*System, []string, []*wfdb.DB) {
	t.Helper()
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	lin := model.NewSchema("Lin", "I1").
		Step("A", "p", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "p", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithAgents("a2")).
		Step("C", "p", model.WithInputs("B.O1", "WF.I1"), model.WithAgents("a3")).
		Seq("A", "B", "C").
		MustBuild()
	agents := []string{"a1", "a2", "a3"}
	var paths []string
	var dbs []*wfdb.DB
	for _, name := range agents {
		path := filepath.Join(dir, name+".agdb")
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		paths, dbs = append(paths, path), append(dbs, wfdb.New(st))
	}
	sys, err := NewSystem(SystemConfig{
		Library: lib1(lin), Programs: reg, Agents: agents, AGDBs: dbs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys, paths, dbs
}

// TestCommitPrecedesSend is the distributed twin of the centralized test of
// the same name: by the time a workflow packet is accepted by the transport,
// the sending agent's AGDB already holds a replica row that knows everything
// the packet says — a restarted agent can never have told a peer of a step
// it has itself forgotten.
func TestCommitPrecedesSend(t *testing.T) {
	sys, _, dbs := fileSystem(t, t.TempDir())
	byAgent := map[string]*wfdb.DB{"a1": dbs[0], "a2": dbs[1], "a3": dbs[2]}

	var mu sync.Mutex
	var violations []string
	packets := 0
	sys.Network().Trace(func(m transport.Message) {
		se, ok := m.Payload.(*stepExecute)
		if !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		packets++
		pkt := se.Packet
		ins, found, err := byAgent[m.From].LoadInstance(pkt.Workflow, pkt.Instance)
		if err != nil || !found {
			violations = append(violations, m.From+": packet for "+string(pkt.TargetStep)+" sent with no replica row on the log")
			return
		}
		for _, ev := range pkt.Events {
			if !ins.Events.Has(ev) {
				violations = append(violations, m.From+": packet for "+string(pkt.TargetStep)+" carries "+ev+" ahead of the sender's row")
			}
		}
	})
	for i := 0; i < 5; i++ {
		runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(float64(i))}, wfdb.Committed)
	}
	sys.Network().Trace(nil)
	mu.Lock()
	defer mu.Unlock()
	if packets != 10 {
		t.Errorf("traced %d workflow packets, want 10 (A to B and B to C, five instances)", packets)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// TestReplicaRetireIsCrashAtomic runs an instance to commit over file AGDBs
// and cuts each agent's log at every byte (a cut inside a group is the cut at
// the boundary before it: a torn group is dropped whole). Whatever prefix
// survives, the instance is in at most one of the instance and archive
// tables, and on the coordination agent a terminal summary means the archive
// row exists and the live row does not: the summary, the archive row and the
// deletion of the live row are one group, so a restarted agent can neither
// resume an instance its summary calls finished nor find a finished one with
// no final state. The other agents drop their replica from the sweep: they
// never archive or summarize, and the deletion of the live row is on the log
// once that sweep's turn has committed.
func TestReplicaRetireIsCrashAtomic(t *testing.T) {
	dir := t.TempDir()
	sys, paths, _ := fileSystem(t, dir)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(7)}, wfdb.Committed)
	// a2 and a3 drop theirs from their sweeps; ReplicaCount is a turn behind
	// the sweep's, so the sweep's group is on the log.
	waitReplicasDrained(t, sys)
	sys.Close()

	cutPath := filepath.Join(dir, "cut.agdb")
	for agent, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		coordinator := agent == 0
		var live, wasLive, archived, summarized bool
		for cut := 0; cut <= len(data); cut++ {
			if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(cutPath)
			if err != nil {
				t.Fatalf("a%d cut=%d: %v", agent+1, cut, err)
			}
			db := wfdb.New(st)
			_, live, err = db.LoadInstance("Lin", id)
			if err != nil {
				t.Fatalf("a%d cut=%d: instance row: %v", agent+1, cut, err)
			}
			arch, isArchived, err := db.LoadArchived("Lin", id)
			if err != nil {
				t.Fatalf("a%d cut=%d: archive row: %v", agent+1, cut, err)
			}
			sum, hasSum, _ := db.LoadSummary("Lin", id)
			st.Close()
			wasLive = wasLive || live
			archived, summarized = isArchived, hasSum
			switch {
			case live && isArchived:
				t.Fatalf("a%d cut=%d: instance is both live and archived", agent+1, cut)
			case isArchived && !coordinator:
				t.Fatalf("a%d cut=%d: a bystander archived its partial replica", agent+1, cut)
			case hasSum && sum != wfdb.Running && (live || !isArchived):
				t.Fatalf("a%d cut=%d: summary says %v but live=%v archived=%v", agent+1, cut, sum, live, isArchived)
			case isArchived && arch.Status != wfdb.Committed:
				t.Fatalf("a%d cut=%d: archived as %v", agent+1, cut, arch.Status)
			case isArchived && hasSum && sum != wfdb.Committed:
				t.Fatalf("a%d cut=%d: archived under a %v summary", agent+1, cut, sum)
			}
		}
		if !wasLive || live {
			t.Errorf("a%d: instance row was live at some cut = %v, on the full log = %v; want a row that is written and then deleted", agent+1, wasLive, live)
		}
		if archived != coordinator {
			t.Errorf("a%d: archive row on the full log = %v, want %v (only the coordination agent archives)", agent+1, archived, coordinator)
		}
		if summarized != coordinator {
			t.Errorf("a%d: summary on the full log = %v, want %v (only the coordination agent keeps one)", agent+1, summarized, coordinator)
		}
	}
}
