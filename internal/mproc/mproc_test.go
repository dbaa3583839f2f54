package mproc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/cerrors"
	"crew/internal/experiment"
	"crew/internal/faults"
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

func startCluster(t *testing.T, p analysis.Parameters, w *workload.Workload, col *metrics.Collector, checker *experiment.CoordChecker) *Cluster {
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
			DBDir:         t.TempDir(),
			PurgeOnCommit: true,
			Workload:      &p,
			Seed:          clusterSeed,
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
// faults and requires every instance to commit.
func TestClusterRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	p := clusterParams()
	w, err := workload.Generate(p, clusterSeed)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, p, w, metrics.NewCollector(), nil)
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
	cl := startCluster(t, p, w, col, checker)

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
