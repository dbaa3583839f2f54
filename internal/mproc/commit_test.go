package mproc

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"crew/internal/laws"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/wfdb"
)

// lawsWorkload compiles a LAWS file and binds every program it names to a
// program that does nothing: the agent processes of a LAWS-defined test
// cluster run it (TestMain).
func lawsWorkload(path string) (*model.Library, *model.Registry, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	lib, err := laws.Compile(string(src))
	if err != nil {
		return nil, nil, err
	}
	reg := model.NewRegistry()
	for _, name := range lib.Names() {
		for _, st := range lib.Schema(name).StepList() {
			for _, prog := range []string{st.Program, st.Compensation} {
				if _, ok := reg.Lookup(prog); !ok && prog != "" {
					reg.Register(prog, model.NopProgram())
				}
			}
		}
	}
	return lib, reg, nil
}

// splitTerminals: A at a1, which coordinates every instance (the election
// picks among the start step's agents), then the parallel terminals T1 at a2
// and T2 at a3. Only a StepCompleted tells a1 that a terminal ran.
const splitTerminals = `
workflow Split {
  step A { program "p" agents a1 }
  step T1 { program "p" agents a2 }
  step T2 { program "p" agents a3 }
  A -> T1, T2
}
`

// TestKilledCoordinatorKeepsHandledTerminalReport kills the coordination
// agent's process after it handled T1's StepCompleted and before T2 runs. The
// hub does not replay a delivery its child acknowledged, and nothing re-sends
// the report, so the respawned agent knows T1 ran only if handling the report
// wrote it to its row. T2's report then commits the instance.
func TestKilledCoordinatorKeepsHandledTerminalReport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "split.laws")
	if err := os.WriteFile(path, []byte(splitTerminals), 0o644); err != nil {
		t.Fatal(err)
	}
	lib, _, err := lawsWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(ClusterConfig{
		Library:   lib,
		Agents:    []string{"a1", "a2", "a3"},
		Collector: metrics.NewCollector(),
		Command: func(string) *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			return cmd
		},
		Child: ChildParams{DBDir: dir, LawsPath: path},
		Logf:  func(format string, args ...any) { t.Logf(format, args...) },
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
	// Down as the fault injector takes a node down: the hub parks what is
	// sent to it, and every agent hears of it.
	halt := func(name string) {
		cl.Network().Crash(name)
		cl.HaltNode(name)
	}
	restart := func(name string) {
		cl.RestartNode(name)
		cl.Network().Recover(name)
		if err := cl.hub.WaitConnected(ctx, name); err != nil {
			t.Fatalf("%s never reconnected: %v", name, err)
		}
	}

	halt("a3")
	id, err := cl.Start("Split", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Once nothing moves, a1 has handled and acknowledged T1's report; what
	// is left waits for a3.
	if _, err := cl.Network().AwaitStall(ctx); err != nil {
		t.Fatal(err)
	}
	halt("a1")
	restart("a1")
	restart("a3")
	if st, err := cl.Wait("Split", id, 10*time.Second); err != nil || st != wfdb.Committed {
		t.Fatalf("Split.%d: Wait = (%v, %v), want Committed", id, st, err)
	}
}
