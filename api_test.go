package crew_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"crew"
	"crew/internal/model"
)

func slowLib(t *testing.T) (*crew.Library, *crew.Registry) {
	t.Helper()
	lib := crew.NewLibrary()
	// The slow step is pinned to a2 while the start step (and so the
	// distributed coordinator) lives on a1: Start returns before the slow
	// program finishes on every architecture.
	lib.Add(crew.NewSchema("Slow").
		Step("A", "fast", crew.WithAgents("a1")).
		Step("B", "slow", crew.WithAgents("a2")).
		Seq("A", "B").
		MustBuild())
	lib.Add(crew.NewSchema("Fast").Step("A", "fast").MustBuild())
	reg := crew.NewRegistry()
	reg.Register("slow", func(*crew.ProgramContext) (map[string]crew.Value, error) {
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	})
	reg.Register("fast", crew.NopProgram())
	return lib, reg
}

// TestTypedErrorsAcrossArchitectures pins the error contract of the System
// interface: every architecture reports the same failure classes through the
// same errors.Is-matchable sentinels.
func TestTypedErrorsAcrossArchitectures(t *testing.T) {
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		t.Run(arch.String(), func(t *testing.T) {
			lib, reg := slowLib(t)
			sys, err := crew.NewSystem(crew.Config{
				Library:      lib,
				Programs:     reg,
				Architecture: arch,
				Agents:       []string{"a1", "a2"},
				Logf:         t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}

			if _, err := sys.Start("NoSuch", nil); !errors.Is(err, crew.ErrUnknownWorkflow) {
				t.Errorf("Start(unknown) = %v, want ErrUnknownWorkflow", err)
			}

			id, err := sys.Start("Slow", nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Wait("Slow", id, 10*time.Millisecond); !errors.Is(err, crew.ErrTimeout) {
				t.Errorf("Wait(short deadline) = %v, want ErrTimeout", err)
			}
			if st, err := sys.Wait("Slow", id, waitTimeout); err != nil || st != crew.Committed {
				t.Fatalf("final wait = (%v, %v)", st, err)
			}

			sys.Close()
			if _, err := sys.Start("Fast", nil); !errors.Is(err, crew.ErrClosed) {
				t.Errorf("Start after Close = %v, want ErrClosed", err)
			}
			if _, err := sys.WaitCtx(context.Background(), "Slow", id); !errors.Is(err, crew.ErrClosed) {
				t.Errorf("WaitCtx after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestInstanceErrorsAcrossArchitectures round-trips the instance-level
// sentinels through Abort on every architecture: an instance that never
// existed is ErrUnknownInstance, a committed one is ErrNotRunning.
func TestInstanceErrorsAcrossArchitectures(t *testing.T) {
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		t.Run(arch.String(), func(t *testing.T) {
			lib, reg := slowLib(t)
			sys, err := crew.NewSystem(crew.Config{
				Library:      lib,
				Programs:     reg,
				Architecture: arch,
				Agents:       []string{"a1", "a2"},
				Logf:         t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.Abort("Fast", 99); !errors.Is(err, crew.ErrUnknownInstance) {
				t.Errorf("Abort(never started) = %v, want ErrUnknownInstance", err)
			}
			id, st, err := sys.Run("Fast", nil, waitTimeout)
			if err != nil || st != crew.Committed {
				t.Fatalf("run = (%v, %v)", st, err)
			}
			if err := sys.Abort("Fast", id); !errors.Is(err, crew.ErrNotRunning) {
				t.Errorf("Abort(committed) = %v, want ErrNotRunning", err)
			}
		})
	}
}

// TestWaitContractAcrossArchitectures pins the one wait contract
// (itable.Terminal.Wait) on every architecture: a deadline is ErrTimeout, a
// cancellation is ctx.Err(), a finished instance answers under a live ctx
// however short, an unknown class and a closed system fail fast.
func TestWaitContractAcrossArchitectures(t *testing.T) {
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		t.Run(arch.String(), func(t *testing.T) {
			lib, reg := slowLib(t)
			sys, err := crew.NewSystem(crew.Config{
				Library:      lib,
				Programs:     reg,
				Architecture: arch,
				Agents:       []string{"a1", "a2"},
				Logf:         t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			id, err := sys.Start("Slow", nil)
			if err != nil {
				t.Fatal(err)
			}

			deadline, cancelDeadline := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancelDeadline()
			cancelled, cancel := context.WithCancel(context.Background())
			time.AfterFunc(10*time.Millisecond, cancel)
			for _, tc := range []struct {
				name string
				ctx  context.Context
				wf   string
				want error
			}{
				{"deadline", deadline, "Slow", crew.ErrTimeout},
				{"cancel", cancelled, "Slow", context.Canceled},
				{"unknown class", context.Background(), "NoSuch", crew.ErrUnknownWorkflow},
			} {
				if _, err := sys.WaitCtx(tc.ctx, tc.wf, id); !errors.Is(err, tc.want) {
					t.Errorf("%s: WaitCtx = %v, want %v", tc.name, err, tc.want)
				}
			}

			if st, err := sys.Wait("Slow", id, waitTimeout); err != nil || st != crew.Committed {
				t.Fatalf("final wait = (%v, %v)", st, err)
			}
			live, cancelLive := context.WithTimeout(context.Background(), waitTimeout)
			defer cancelLive()
			if st, err := sys.WaitCtx(live, "Slow", id); err != nil || st != crew.Committed {
				t.Errorf("already terminal: WaitCtx = (%v, %v), want Committed", st, err)
			}

			sys.Close()
			if _, err := sys.WaitCtx(context.Background(), "Slow", id); !errors.Is(err, crew.ErrClosed) {
				t.Errorf("closed: WaitCtx = %v, want ErrClosed", err)
			}
		})
	}
}

func TestConfigValidatePreflight(t *testing.T) {
	lib, reg := slowLib(t)
	good := crew.Config{Library: lib, Programs: reg}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.Engines = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative engine count accepted")
	}
	bad = good
	bad.DBs = []*crew.DB{crew.NewMemoryDB()}
	if err := bad.Validate(); err == nil {
		t.Error("central architecture with DBs accepted")
	}
}

// TestInvalidConfigSentinel is the error table of the configuration
// contract: every rejection Config.Validate and NewSystem can return, one row
// each, is errors.Is-matchable against ErrInvalidConfig. A row says which
// layer rejects it (Validate, or only NewSystem's construction and fault
// plan), and a library rejection still unwraps to its
// *model.ValidationError. A new rejection path gets a row here.
func TestInvalidConfigSentinel(t *testing.T) {
	lib, reg := slowLib(t)
	mutexLib, _ := slowLib(t)
	mutexLib.Coord = append(mutexLib.Coord, crew.CoordSpec{
		Kind: crew.Mutex, Name: "r",
		MutexSteps: []crew.StepRef{{Workflow: "Fast", Step: "A"}, {Workflow: "Fast", Step: "Nope"}},
	})
	nestLib, _ := slowLib(t)
	nestLib.Add(crew.NewSchema("Parent").NestedStep("N", "Missing").MustBuild())
	db := []*crew.DB{crew.NewMemoryDB()}
	recoverFirst := crew.FaultPlan{Events: []crew.FaultEvent{{Action: crew.FaultRecover, Node: "engine", At: 1}}}

	rows := []struct {
		name string
		cfg  crew.Config
		opts []crew.Option
		// validate: Config.Validate rejects it, not only NewSystem.
		validate bool
		// library: a library rejection, which keeps its *model.ValidationError.
		library bool
	}{
		{name: "no library", cfg: crew.Config{Programs: reg}, validate: true},
		{name: "no programs", cfg: crew.Config{Library: lib}, validate: true},
		{name: "unknown architecture", cfg: crew.Config{Library: lib, Programs: reg, Architecture: crew.Architecture(9)}, validate: true},
		{name: "negative engines", cfg: crew.Config{Library: lib, Programs: reg, Engines: -1}, validate: true},
		{name: "central with DBs", cfg: crew.Config{Library: lib, Programs: reg, DBs: db}, validate: true},
		{name: "in-process with an address", cfg: crew.Config{Library: lib, Programs: reg, Transport: crew.TransportConfig{Addr: "x"}}, validate: true},
		{name: "unknown backend", cfg: crew.Config{Library: lib, Programs: reg, Transport: crew.TransportConfig{Backend: "ipx"}}, validate: true},
		{name: "mutex names an unknown step", cfg: crew.Config{Library: mutexLib, Programs: reg}, validate: true, library: true},
		{name: "nested step names an unknown workflow", cfg: crew.Config{Library: nestLib, Programs: reg}, validate: true, library: true},
		{name: "parallel DBs per engine", cfg: crew.Config{Library: lib, Programs: reg, Architecture: crew.Parallel, Engines: 2, DBs: db}},
		{name: "distributed DBs per agent", cfg: crew.Config{Library: lib, Programs: reg, Architecture: crew.Distributed, Agents: []string{"a1", "a2"}, DBs: db}},
		{name: "fault plan", cfg: crew.Config{Library: lib, Programs: reg}, opts: []crew.Option{crew.WithFaults(recoverFirst)}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if err := r.cfg.Validate(); (err != nil) != r.validate || err != nil && !errors.Is(err, crew.ErrInvalidConfig) {
				t.Errorf("Validate = %v, want an ErrInvalidConfig rejection: %v", err, r.validate)
			}
			sys, err := crew.NewSystem(r.cfg, r.opts...)
			if err == nil {
				sys.Close()
				t.Fatal("NewSystem accepted the config")
			}
			if !errors.Is(err, crew.ErrInvalidConfig) {
				t.Errorf("NewSystem = %v, want ErrInvalidConfig", err)
			}
			var verr *model.ValidationError
			if errors.As(err, &verr) != r.library {
				t.Errorf("NewSystem = %v: errors.As *model.ValidationError = %v, want %v", err, !r.library, r.library)
			}
		})
	}
}

// TestWithFaultsPublicAPI arms a chaos plan through the public option and
// checks that the crash/recovery cycle is applied and survived.
func TestWithFaultsPublicAPI(t *testing.T) {
	lib := crew.NewLibrary()
	lib.Add(crew.NewSchema("W").
		Step("A", "p").Step("B", "p").Step("C", "p").
		Seq("A", "B", "C").
		MustBuild())
	reg := crew.NewRegistry()
	reg.Register("p", crew.NopProgram())

	plan := crew.NewChaosPlan(9, []string{"engine"}, 1, 6, 10, 4)
	col := crew.NewCollector()
	sys, err := crew.NewSystem(crew.Config{
		Library:   lib,
		Programs:  reg,
		DB:        crew.NewMemoryDB(),
		Collector: col,
		Agents:    []string{"a1", "a2"},
		Logf:      t.Logf,
	}, crew.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 3; i++ {
		if _, st, err := sys.Run("W", nil, 30*time.Second); err != nil || st != crew.Committed {
			t.Fatalf("instance %d = (%v, %v)", i, st, err)
		}
	}
	if col.Crashes() != 1 || col.Recoveries() != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1/1", col.Crashes(), col.Recoveries())
	}

	invalid := crew.FaultPlan{Events: []crew.FaultEvent{{Action: crew.FaultRecover, Node: "engine", At: 1}}}
	if _, err := crew.NewSystem(crew.Config{Library: lib, Programs: reg}, crew.WithFaults(invalid)); err == nil {
		t.Error("invalid fault plan accepted")
	}
}
