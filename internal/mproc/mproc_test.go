package mproc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/cerrors"
	"crew/internal/distributed"
	"crew/internal/experiment"
	"crew/internal/faults"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/transport"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// TestMain doubles as the agent-process entry point: the cluster re-executes
// this test binary with EnvChildConfig set, and the child branch runs the
// agent host instead of the test suite.
func TestMain(m *testing.M) {
	cfg, err := ChildConfigFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if cfg != nil {
		lib, programs, err := cfg.ResolveWorkload()
		if cfg.LawsPath != "" {
			lib, programs, err = lawsWorkload(cfg.LawsPath)
		}
		if err == nil {
			err = RunChild(cfg, lib, programs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "agent %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func clusterParams() analysis.Parameters {
	p := analysis.Default()
	p.C = 2
	p.S = 5
	p.Z = 3
	p.E = 1
	p.A = 2
	p.F = 1
	p.R = 2
	p.W = 2
	p.ME, p.RO, p.RD = 1, 1, 0
	p.PF, p.PI, p.PA, p.PR = 0, 0, 0, 0
	return p
}

const clusterSeed = 11

// startCluster spawns the agent processes, each with a WFDB file under dbDir,
// or with no database when dbDir is empty.
func startCluster(t *testing.T, p analysis.Parameters, w *workload.Workload, dbDir string, col *metrics.Collector, checker *experiment.CoordChecker) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Library:   w.Library,
		Agents:    w.Agents,
		Collector: col,
		OnExec: func(ev transport.ExecEvent) {
			if checker == nil {
				return
			}
			switch ev.Phase {
			case transport.ExecEnter:
				checker.Enter(ev.Workflow, ev.Step, ev.Instance)
			default:
				checker.Exit(ev.Workflow, ev.Step, ev.Instance, ev.Phase == transport.ExecExitOK)
			}
		},
		Command: func(name string) *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			return cmd
		},
		Child: ChildParams{
			DBDir:    dbDir,
			Workload: &p,
			Seed:     clusterSeed,
		},
		Logf: func(format string, args ...any) { t.Logf(format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatalf("agents never connected: %v", err)
	}
	return cl
}

// TestClusterRuns drives a workload through real agent processes with no
// faults and no database files, and requires every instance to commit.
func TestClusterRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, p, w, "", metrics.NewCollector(), nil)
	res, err := workload.Drive(cl, w, 2, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != res.Instances {
		t.Errorf("committed %d of %d instances", res.Committed, res.Instances)
	}
	for _, wf := range w.Library.Names() {
		for i := 1; i <= 2; i++ {
			st, ok := cl.Status(wf, i)
			if !ok || st != wfdb.Committed {
				t.Errorf("%s.%d: status %v (terminal=%v), want Committed", wf, i, st, ok)
			}
		}
	}
	// The cluster's Wait is the shared contract (itable.Terminal.Wait): a
	// finished instance answers at once, a deadline is cerrors.ErrTimeout.
	wf := w.Library.Names()[0]
	if st, err := cl.Wait(wf, 1, time.Millisecond); err != nil || st != wfdb.Committed {
		t.Errorf("Wait on a finished instance = (%v, %v)", st, err)
	}
	if _, err := cl.Wait(wf, 999, 10*time.Millisecond); !errors.Is(err, cerrors.ErrTimeout) {
		t.Errorf("Wait on an instance that never started = %v, want ErrTimeout", err)
	}
	// A request about a finished instance is refused at the front end:
	// nothing is sent, so nothing is charged.
	changes := cl.Collector().Messages(metrics.InputChange)
	if err := cl.ChangeInputs(wf, 1, nil); !errors.Is(err, cerrors.ErrNotRunning) {
		t.Errorf("ChangeInputs on a committed instance = %v, want ErrNotRunning", err)
	}
	if err := cl.Abort(wf, 1); !errors.Is(err, cerrors.ErrNotRunning) {
		t.Errorf("Abort on a committed instance = %v, want ErrNotRunning", err)
	}
	if got := cl.Collector().Messages(metrics.InputChange); got != changes {
		t.Errorf("InputChange messages %d -> %d for a refused request", changes, got)
	}
}

// TestClusterFrontEndRunsNoFeeder: the hub process's front end drains its own
// mailbox, so a running cluster shows no Inbox feeder goroutine, and a
// WorkflowDone reaches the terminal registry from the drain pass itself.
func TestClusterFrontEndRunsNoFeeder(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, p, w, "", metrics.NewCollector(), nil)
	wf := w.Library.Names()[0]
	id, err := cl.Start(wf, w.Inputs(0))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Wait(wf, id, 30*time.Second); err != nil || st != wfdb.Committed {
		t.Fatalf("Wait = (%v, %v), want Committed", st, err)
	}
	buf := make([]byte, 1<<20)
	dump := string(buf[:runtime.Stack(buf, true)])
	if strings.Contains(dump, "transport.(*Endpoint).feed") {
		t.Error("a goroutine of the hub process runs an Inbox feeder")
	}
	if !strings.Contains(dump, "mproc.(*Cluster).consumeFrontend") {
		t.Error("no goroutine runs the front end's drain loop")
	}
}

// TestClusterChaos kills a real agent OS process mid-run (SIGKILL via the
// fault injector's HaltNode hook), respawns it against its surviving WFDB
// file, and requires the deployment to finish every instance with the
// coordination invariants (mutex, relative order) intact — recovery across
// a genuine process boundary.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test")
	}
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	checker := experiment.NewCoordChecker(w.Library)
	cl := startCluster(t, p, w, t.TempDir(), col, checker)

	plan := faults.ChaosPlan(7, w.Agents, 2, 15, 40, 12)
	inj, err := faults.NewInjector(plan, col)
	if err != nil {
		t.Fatal(err)
	}
	inj.SetHooks(cl)
	inj.Attach(cl.Network())
	defer inj.Stop()

	res, err := workload.Drive(cl, w, 3, 180*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	qctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	qerr := cl.Quiesce(qctx)
	cancel()
	if qerr != nil {
		t.Fatalf("quiesce after chaos: %v", qerr)
	}

	crashes := 0
	for _, ae := range inj.Applied() {
		if ae.Action == faults.Crash {
			crashes++
		}
	}
	if crashes < 1 {
		t.Errorf("no crash was applied (traffic ended before the first trigger)")
	}
	if crashes >= 1 && cl.Respawns() < 1 {
		t.Errorf("crashes=%d but no agent process was respawned", crashes)
	}
	if got := res.Committed + res.Aborted; got != res.Instances {
		t.Errorf("committed+aborted = %d, want %d", got, res.Instances)
	}
	for _, wf := range w.Library.Names() {
		for i := 1; i <= 3; i++ {
			if st, ok := cl.Status(wf, i); !ok {
				t.Errorf("%s.%d: no terminal status after recovery", wf, i)
			} else if st != wfdb.Committed && st != wfdb.Aborted {
				t.Errorf("%s.%d: non-terminal status %v", wf, i, st)
			}
		}
	}
	for _, v := range checker.MutexViolations() {
		t.Errorf("mutex violation: %s", v)
	}
	for _, v := range checker.OrderViolations() {
		t.Errorf("order violation: %s", v)
	}
}

// TestChildGoroutinesIndependentOfPeers serves an agent in this process (the
// hub knows only that agent, so the hub side is the same whatever the roster)
// and reads the goroutine dump: nothing stands between the connection's reader
// and the agent — no forwarder per peer, no Inbox feeder — and the number of
// goroutines does not depend on how many peers the agent can send to.
func TestChildGoroutinesIndependentOfPeers(t *testing.T) {
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	serving := func(extraPeers int) (count int, stacks []string) {
		n := transport.NewNetwork(transport.NetworkConfig{})
		hub, err := transport.NewRemoteHub(n, "unix", "", nil)
		if err != nil {
			n.Close()
			t.Fatal(err)
		}
		name := w.Agents[0]
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
		agents := append([]string(nil), w.Agents...)
		for i := 0; i < extraPeers; i++ {
			agents = append(agents, fmt.Sprintf("peer%02d", i))
		}
		done := make(chan error, 1)
		go func() {
			done <- RunChild(&ChildConfig{Name: name, Network: "unix", Addr: hub.Addr(), Agents: agents}, w.Library, w.Programs)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hub.WaitConnected(ctx, name); err != nil {
			t.Fatalf("agent never connected: %v", err)
		}
		// A delivery and its ACK: the agent is past recovery and serving.
		if err := n.Send(transport.Message{From: FrontendNode, To: name, Kind: "Noop"}); err != nil {
			t.Fatal(err)
		}
		if err := n.Quiesce(ctx); err != nil {
			t.Fatalf("delivery never acknowledged: %v", err)
		}
		buf := make([]byte, 1<<20)
		stacks = strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		for _, g := range stacks {
			if strings.Contains(g, "crew/internal/") {
				count++
			}
		}
		n.Close()
		if err := <-done; err != nil {
			t.Errorf("RunChild with %d extra peers: %v", extraPeers, err)
		}
		return count, stacks
	}
	// The pump under drainer.run is the hub's side of the one remote node.
	few, stacks := serving(0)
	for _, g := range stacks {
		for _, frame := range []string{"mproc.forward", "Endpoint).feed", "Endpoint).Inbox", "Endpoint).offer"} {
			if strings.Contains(g, frame) {
				t.Errorf("a served child runs %s:\n%s", frame, g)
			}
		}
	}
	if many, _ := serving(40); many != few {
		t.Errorf("%d goroutines with %d peers, %d with 40 more: want a count independent of the roster", few, len(w.Agents)-1, many)
	}
}

// TestExecFramesOnlyWhenObserved serves every agent of a deployment in this
// process, each with the ChildConfig a cluster builds for it, against a hub
// that counts the EXEC frames reaching it, and runs one instance to its end:
// the children of a cluster without OnExec send none, those of a cluster with
// it report every program they run.
func TestExecFramesOnlyWhenObserved(t *testing.T) {
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	wf := w.Library.Names()[0]
	for _, observed := range []bool{false, true} {
		var execs atomic.Int64
		n := transport.NewNetwork(transport.NetworkConfig{})
		hub, err := transport.NewRemoteHub(n, "unix", "", func(transport.ExecEvent) { execs.Add(1) })
		if err != nil {
			n.Close()
			t.Fatal(err)
		}
		for _, name := range w.Agents {
			if err := hub.RegisterRemote(name); err != nil {
				t.Fatal(err)
			}
		}
		fe := n.MustRegister(FrontendNode)
		cl := &Cluster{cfg: ClusterConfig{Network: "unix", Agents: w.Agents}, hub: hub}
		if observed {
			cl.cfg.OnExec = func(transport.ExecEvent) {}
		}
		served := make(chan error, len(w.Agents))
		for _, name := range w.Agents {
			cc := cl.childConfig(name)
			go func() { served <- RunChild(cc, w.Library, w.Programs) }()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := hub.WaitConnected(ctx, w.Agents...); err != nil {
			t.Fatalf("agents never connected: %v", err)
		}
		to, err := distributed.CoordinatorFor(w.Library, w.Agents, wf, 1, n.Alive)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Send(distributed.StartMessage(FrontendNode, to, wf, 1, w.Inputs(0), FrontendNode)); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-fe.Inbox():
			if d, ok := m.Payload.(*distributed.WorkflowDone); !ok || d.Status != wfdb.Committed {
				t.Fatalf("front end received %+v, want the instance committed", m)
			}
		case <-ctx.Done():
			t.Fatal("the instance never finished")
		}
		cancel()
		n.Close()
		// A child busy with its sweep as the hub goes ends with the write
		// or read that failed: only that every child ends is checked.
		for range w.Agents {
			<-served
		}
		switch got := execs.Load(); {
		case !observed && got != 0:
			t.Errorf("a cluster without OnExec received %d EXEC frames, want none", got)
		case observed && got < int64(2*p.S):
			t.Errorf("a cluster with OnExec received %d EXEC frames, want an enter and an exit per step (%d steps)", got, p.S)
		}
	}
}

// TestChildWithoutDBKeepsNoStore builds every agent of a deployment in this
// process as RunChild builds it, from the ChildConfig a cluster gives it, and
// runs instances to their end. Without a DBDir no agent has a database and a
// coordination agent's Snapshot of an instance it finished answers not found,
// with nothing logged; with one, the coordination agent's file holds the
// instance's archive row, which gives its status.
func TestChildWithoutDBKeepsNoStore(t *testing.T) {
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	var logs strings.Builder
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	const perClass = 3
	// The hub only gives the configs an address; the agents share n.
	hubNet := transport.NewNetwork(transport.NetworkConfig{})
	defer hubNet.Close()
	hub, err := transport.NewRemoteHub(hubNet, "unix", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dbDir := range []string{"", t.TempDir()} {
		n := transport.NewNetwork(transport.NetworkConfig{})
		fe := n.MustRegister(FrontendNode)
		cl := &Cluster{hub: hub, cfg: ClusterConfig{Network: "unix", Agents: w.Agents, Child: ChildParams{
			DBDir: dbDir, Workload: &p, Seed: clusterSeed}}}
		agents := make(map[string]*distributed.Agent)
		dbs := make(map[string]*wfdb.DB)
		for _, name := range w.Agents {
			cc := cl.childConfig(name)
			db, err := openDB(cc)
			if err != nil {
				t.Fatal(err)
			}
			ag, err := newAgent(cc, db, new(itable.Terminal), w.Library, w.Programs, n, n.Alive)
			if err != nil {
				t.Fatal(err)
			}
			agents[name], dbs[name] = ag, db
		}
		for _, wf := range w.Library.Names() {
			for id := 1; id <= perClass; id++ {
				to, err := distributed.CoordinatorFor(w.Library, w.Agents, wf, id, n.Alive)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Send(distributed.StartMessage(FrontendNode, to, wf, id, w.Inputs(id), FrontendNode)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := perClass * len(w.Library.Names())
		done := func(m transport.Message) {
			if d, ok := m.Payload.(*distributed.WorkflowDone); ok && d.Status == wfdb.Committed {
				want--
			}
		}
		timeout := time.After(30 * time.Second)
		for want > 0 {
			select {
			case m := <-fe.Inbox():
				if env, ok := m.Payload.(*transport.Envelope); ok {
					for _, lm := range env.Msgs {
						done(lm)
					}
					continue
				}
				done(m)
			case <-timeout:
				t.Fatalf("DBDir %q: %d instances never committed", dbDir, want)
			}
		}
		for _, wf := range w.Library.Names() {
			for id := 1; id <= perClass; id++ {
				to, _ := distributed.CoordinatorFor(w.Library, w.Agents, wf, id, n.Alive)
				_, archived := agents[to].Snapshot(wf, id)
				db := dbs[to]
				switch {
				case dbDir == "" && db != nil:
					t.Fatalf("agent %s keeps a database (%d writes) without a DBPath", to, db.Store().Writes())
				case dbDir == "" && archived:
					t.Errorf("%s.%d: coordination agent %s serves a Snapshot of it without a database", wf, id, to)
				case dbDir != "":
					if st, ok, err := db.ArchivedStatus(wf, id); !ok || err != nil || st != wfdb.Committed || !archived {
						t.Errorf("%s.%d: agent %s's file holds archived status (%v, %v, %v), archived %v", wf, id, to, st, ok, err, archived)
					}
				}
			}
		}
		n.Close()
		for name, ag := range agents {
			ag.Stop()
			if db := dbs[name]; db != nil {
				db.Store().Close()
			}
		}
	}
	if logs.Len() > 0 {
		t.Errorf("the agents logged:\n%s", logs.String())
	}
}
