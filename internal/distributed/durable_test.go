package distributed

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crew/internal/expr"
	"crew/internal/itable"
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
	lib, reg := fileLin()
	var paths []string
	var dbs []*wfdb.DB
	for _, name := range fileAgents {
		path := filepath.Join(dir, name+".agdb")
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		paths, dbs = append(paths, path), append(dbs, wfdb.New(st))
	}
	sys, err := NewSystem(SystemConfig{
		Library: lib, Programs: reg, Agents: fileAgents, AGDBs: dbs, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys, paths, dbs
}

// fileAgents are fileSystem's agents.
var fileAgents = []string{"a1", "a2", "a3"}

// fileLin is fileSystem's library, the Lin schema alone, and its programs.
func fileLin() (*model.Library, *model.Registry) {
	reg := model.NewRegistry()
	reg.Register("p", model.NopProgram("O1"))
	lin := model.NewSchema("Lin", "I1").
		Step("A", "p", model.WithOutputs("O1"), model.WithAgents("a1")).
		Step("B", "p", model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithAgents("a2")).
		Step("C", "p", model.WithInputs("B.O1", "WF.I1"), model.WithAgents("a3")).
		Seq("A", "B", "C").
		MustBuild()
	return lib1(lin), reg
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
// tables: on the coordination agent the archive row and the deletion of the
// live row are one group, so a restarted agent can neither resume a finished
// instance nor find one with no final state, and the archive row gives the
// terminal status (ArchivedStatus). The other agents drop their replica from
// the sweep: they never archive, and the deletion of the live row is on the
// log once that sweep's turn has committed.
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
		var live, wasLive, archived bool
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
			done, hasStatus, err := db.ArchivedStatus("Lin", id)
			st.Close()
			wasLive = wasLive || live
			archived = isArchived
			switch {
			case err != nil || hasStatus != isArchived:
				t.Fatalf("a%d cut=%d: archived status (%v, %v, %v), archived %v", agent+1, cut, done, hasStatus, err, isArchived)
			case live && isArchived:
				t.Fatalf("a%d cut=%d: instance is both live and archived", agent+1, cut)
			case isArchived && !coordinator:
				t.Fatalf("a%d cut=%d: a bystander archived its partial replica", agent+1, cut)
			case isArchived && (arch.Status != wfdb.Committed || done != wfdb.Committed):
				t.Fatalf("a%d cut=%d: archived as %v, archived status %v", agent+1, cut, arch.Status, done)
			}
		}
		if !wasLive || live {
			t.Errorf("a%d: instance row was live at some cut = %v, on the full log = %v; want a row that is written and then deleted", agent+1, wasLive, live)
		}
		if archived != coordinator {
			t.Errorf("a%d: archive row on the full log = %v, want %v (only the coordination agent archives)", agent+1, archived, coordinator)
		}
	}
}

// TestReplicaRetirementWritesArchiveRowAndDeletion: on a coordination agent
// with an AGDB, an instance's start group writes its instance row and
// nothing else, and its retirement writes two ops: the archive row and the
// deletion of the instance row. B, at the other agent, holds until released,
// so the start group is counted before the rest is written; the second
// instance is counted, the first having written the schema's name table.
func TestReplicaRetirementWritesArchiveRowAndDeletion(t *testing.T) {
	reg := model.NewRegistry()
	started, release := make(chan struct{}), make(chan struct{})
	reg.Register("p", model.NopProgram())
	reg.Register("hold", func(*model.ProgramContext) (map[string]expr.Value, error) {
		started <- struct{}{}
		<-release
		return nil, nil
	})
	s := model.NewSchema("Hold").
		Step("A", "p", model.WithAgents("a1")).
		Step("B", "hold", model.WithAgents("a2")).
		Seq("A", "B").
		MustBuild()
	db := wfdb.NewMemory()
	sys, err := NewSystem(SystemConfig{
		Library: lib1(s), Programs: reg, Agents: []string{"a1", "a2"},
		AGDBs: []*wfdb.DB{db, nil}, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	st := db.Store()
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

// TestRestartedAgentsReadArchivedStatus: agents built over the AGDB files
// that a first, closed deployment filled answer for an instance it finished
// from the coordination agent's archive row: InstanceStatus and Wait of a
// second deployment, and RecoverReplicas of a lone agent, which completes
// the agent's registry and re-announces the status to Config.Notify.
func TestRestartedAgentsReadArchivedStatus(t *testing.T) {
	dir := t.TempDir()
	sys, _, dbs := fileSystem(t, dir)
	id := runToStatus(t, sys, "Lin", map[string]expr.Value{"I1": expr.Num(7)}, wfdb.Committed)
	waitReplicasDrained(t, sys)
	sys.Close()
	for _, db := range dbs {
		db.Store().Close()
	}

	sys2, _, dbs2 := fileSystem(t, dir)
	if st, ok := sys2.Agent("a1").InstanceStatus("Lin", id); !ok || st != wfdb.Committed {
		t.Errorf("InstanceStatus = (%v, %v), want committed", st, ok)
	}
	if _, ok := sys2.Agent("a1").InstanceStatus("Lin", id+1); ok {
		t.Error("InstanceStatus of an instance never started answers")
	}
	if st, err := sys2.Wait("Lin", id, waitTimeout); err != nil || st != wfdb.Committed {
		t.Errorf("Wait = (%v, %v), want committed", st, err)
	}
	sys2.Close()

	lib, reg := fileLin()
	net := transport.NewNetwork(transport.NetworkConfig{})
	fe := net.MustRegister("fe")
	term := new(itable.Terminal)
	ag, err := NewAgent(Config{
		Name: "a1", Library: lib, Agents: fileAgents, Programs: reg,
		AGDB: dbs2[0], Terminal: term, Notify: "fe", Logf: t.Logf,
	}, net)
	if err != nil {
		net.Close()
		t.Fatal(err)
	}
	defer func() {
		net.Close()
		ag.Stop()
	}()
	if err := ag.RecoverReplicas(); err != nil {
		t.Fatal(err)
	}
	if st, ok := term.Status("Lin", id); !ok || st != wfdb.Committed {
		t.Errorf("registry after RecoverReplicas = (%v, %v), want committed", st, ok)
	}
	var m transport.Message
	select {
	case m = <-fe.Inbox():
	case <-time.After(waitTimeout):
		t.Fatal("RecoverReplicas announced nothing to Notify")
	}
	if env, ok := m.Payload.(*transport.Envelope); ok && len(env.Msgs) == 1 {
		m = env.Msgs[0]
	}
	if d, ok := m.Payload.(*WorkflowDone); !ok || *d != (WorkflowDone{Workflow: "Lin", Instance: id, Status: wfdb.Committed}) {
		t.Errorf("Notify got %#v, want Lin.%d committed", m.Payload, id)
	}
}
