// Command crewrun compiles a LAWS specification and runs one instance of a
// workflow on the chosen control architecture, printing the execution trace
// and the final data table. Step programs are synthesized: every program
// succeeds and produces its declared outputs (numbers derived from the
// inputs), and -fail can inject a one-time failure at a named step to watch
// the failure-handling machinery (rollback, OCR, compensation) at work.
//
// The transport is selectable: -backend carries every message through
// in-process channels (default), unix-domain sockets or loopback TCP, and
// -procs runs the distributed architecture as a real multi-process
// deployment — one OS process per agent, joined through the hub wire
// protocol, with -fail exercising failure handling across genuine process
// boundaries.
//
// Usage:
//
//	crewrun [-arch central|parallel|distributed] [-wf Name] [-input I1=90 -input I2=Blower]
//	        [-backend inproc|unix|tcp] [-procs] [-fail Step] [-trace] file.laws
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crew"
	"crew/internal/mproc"
	"crew/internal/transport"
)

type inputList map[string]crew.Value

func (m inputList) String() string { return fmt.Sprintf("%v", map[string]crew.Value(m)) }

func (m inputList) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("inputs are NAME=VALUE, got %q", s)
	}
	if f, err := strconv.ParseFloat(val, 64); err == nil {
		m[name] = crew.Num(f)
	} else if val == "true" || val == "false" {
		m[name] = crew.Bool(val == "true")
	} else {
		m[name] = crew.Str(val)
	}
	return nil
}

func main() {
	// An agent-host invocation (spawned by -procs) is configured entirely
	// through the environment and never parses flags.
	if cfg, err := mproc.ChildConfigFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "crewrun:", err)
		os.Exit(1)
	} else if cfg != nil {
		if err := childMain(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "crewrun agent %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
		return
	}

	archName := flag.String("arch", "distributed", "central|parallel|distributed")
	wfName := flag.String("wf", "", "workflow class to run (default: first in file)")
	failStep := flag.String("fail", "", "inject a one-time failure at this step")
	backend := flag.String("backend", "inproc", "wire backend: inproc|unix|tcp")
	procs := flag.Bool("procs", false, "run each agent as its own OS process (distributed only)")
	trace := flag.Bool("trace", false, "print every physical message")
	timeout := flag.Duration("timeout", 30*time.Second, "run timeout")
	inputs := inputList{}
	flag.Var(inputs, "input", "workflow input NAME=VALUE (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: crewrun [flags] file.laws")
		os.Exit(2)
	}

	var err error
	if *procs {
		err = runProcs(*wfName, *failStep, *backend, *trace, *timeout, inputs, flag.Arg(0))
	} else {
		err = run(*archName, *wfName, *failStep, *backend, *trace, *timeout, inputs, flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crewrun:", err)
		os.Exit(1)
	}
}

// compile loads a LAWS file and resolves the workflow to run.
func compile(path, wfName string) (*crew.Library, string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	lib, err := crew.CompileLAWS(string(src))
	if err != nil {
		return nil, "", err
	}
	names := lib.Names()
	if len(names) == 0 {
		return nil, "", fmt.Errorf("no workflows in %s", path)
	}
	if wfName == "" {
		wfName = names[0]
	}
	if lib.Schema(wfName) == nil {
		return nil, "", fmt.Errorf("workflow %q not found (have: %s)", wfName, strings.Join(names, ", "))
	}
	return lib, wfName, nil
}

func run(archName, wfName, failStep, backend string, trace bool, timeout time.Duration, inputs inputList, path string) error {
	lib, wfName, err := compile(path, wfName)
	if err != nil {
		return err
	}

	var arch crew.Architecture
	switch archName {
	case "central":
		arch = crew.Central
	case "parallel":
		arch = crew.Parallel
	case "distributed":
		arch = crew.Distributed
	default:
		return fmt.Errorf("unknown architecture %q", archName)
	}

	var mu sync.Mutex
	reg := crew.NewRegistry()
	registerSynthetic(reg, lib, failStep, &mu)

	sys, err := crew.NewSystem(crew.Config{
		Library:      lib,
		Programs:     reg,
		Architecture: arch,
		Transport:    crew.TransportConfig{Backend: backend},
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	if trace {
		type netProvider interface{ Network() *transport.Network }
		if np, ok := sys.(netProvider); ok {
			np.Network().Trace(func(m transport.Message) {
				mu.Lock()
				fmt.Printf("  msg %-10s %-9s -> %-9s (%v)\n", m.Kind, m.From, m.To, m.Mechanism)
				mu.Unlock()
			})
		}
	}

	fmt.Printf("running %s on %s control\n", wfName, arch)
	id, st, err := sys.Run(wfName, inputs, timeout)
	if err != nil {
		return err
	}
	fmt.Printf("instance %s.%d finished: %v\n", wfName, id, st)
	if snap, ok := sys.Snapshot(wfName, id); ok {
		fmt.Println("data table:")
		keys := make([]string, 0, len(snap.Data))
		for k := range snap.Data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s = %s\n", k, snap.Data[k].GoString())
		}
		fmt.Printf("execution order: %v\n", snap.ExecOrder)
	}
	col := sys.Collector()
	fmt.Printf("messages: normal=%d failure=%d coordination=%d abort=%d\n",
		col.Messages(crew.MechNormal), col.Messages(crew.MechFailure),
		col.Messages(crew.MechCoordination), col.Messages(crew.MechAbort))
	return nil
}

// runProcs is the hub side of the multi-process mode: it spawns one OS
// process per agent (re-executing this binary with the agent-host
// environment), drives the workflow through the hub network, and prints the
// authoritative message counts.
func runProcs(wfName, failStep, backend string, trace bool, timeout time.Duration, inputs inputList, path string) error {
	absPath, err := filepath.Abs(path)
	if err != nil {
		return err
	}
	lib, wfName, err := compile(absPath, wfName)
	if err != nil {
		return err
	}
	agents := lib.SortedAgents()
	if len(agents) == 0 {
		agents = []string{"agent1", "agent2", "agent3"}
	}
	if backend == "" || backend == "inproc" {
		backend = "unix" // agent processes need a real socket to the hub
	}
	dbDir, err := os.MkdirTemp("", "crewrun-agdb")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dbDir)

	col := crew.NewCollector()
	cl, err := mproc.NewCluster(mproc.ClusterConfig{
		Network:   backend,
		Library:   lib,
		Agents:    agents,
		Collector: col,
		Command: func(name string) *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			return cmd
		},
		Child: mproc.ChildParams{
			DBDir:    dbDir,
			LawsPath: absPath,
			FailStep: failStep,
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "crewrun: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	if trace {
		var mu sync.Mutex
		cl.Network().Trace(func(m transport.Message) {
			mu.Lock()
			fmt.Printf("  msg %-10s %-9s -> %-9s (%v)\n", m.Kind, m.From, m.To, m.Mechanism)
			mu.Unlock()
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		return fmt.Errorf("agent processes never connected: %w", err)
	}
	fmt.Printf("running %s on distributed control, %d agent processes over %s\n", wfName, len(agents), backend)
	id, err := cl.Start(wfName, inputs)
	if err != nil {
		return err
	}
	st, err := cl.Wait(wfName, id, timeout)
	if err != nil {
		return err
	}
	fmt.Printf("instance %s.%d finished: %v\n", wfName, id, st)
	fmt.Printf("messages: normal=%d failure=%d coordination=%d abort=%d\n",
		col.Messages(crew.MechNormal), col.Messages(crew.MechFailure),
		col.Messages(crew.MechCoordination), col.Messages(crew.MechAbort))
	return nil
}

// childMain runs one agent process: compile the same LAWS source the hub
// compiled, register the same synthetic programs, and serve deliveries until
// the hub goes away.
func childMain(cfg *mproc.ChildConfig) error {
	if cfg.LawsPath == "" {
		return fmt.Errorf("agent host needs a LAWS path")
	}
	lib, _, err := compile(cfg.LawsPath, "")
	if err != nil {
		return err
	}
	var mu sync.Mutex
	reg := crew.NewRegistry()
	registerSynthetic(reg, lib, cfg.FailStep, &mu)
	return mproc.RunChild(cfg, lib, reg)
}

// registerSynthetic binds every program name mentioned by the library to a
// synthetic implementation that logs, derives numeric outputs from its
// inputs, and honors the one-time failure injection.
func registerSynthetic(reg *crew.Registry, lib *crew.Library, failStep string, mu *sync.Mutex) {
	seen := map[string]bool{}
	failed := false
	for _, name := range lib.Names() {
		s := lib.Schema(name)
		for _, st := range s.StepList() {
			st := st
			register := func(prog string, comp bool) {
				if prog == "" || seen[prog] {
					return
				}
				seen[prog] = true
				reg.Register(prog, func(ctx *crew.ProgramContext) (map[string]crew.Value, error) {
					mu.Lock()
					defer mu.Unlock()
					if !comp && string(ctx.Step) == failStep && !failed {
						failed = true
						fmt.Printf("  step %-10s attempt %d at instance %d: injected FAILURE\n", ctx.Step, ctx.Attempt, ctx.Instance)
						return nil, crew.Fail("injected by -fail")
					}
					verb := "exec"
					if comp {
						verb = "comp"
					}
					fmt.Printf("  step %-10s %s (mode %v, attempt %d)\n", ctx.Step, verb, ctx.Mode, ctx.Attempt)
					if comp {
						return nil, nil
					}
					out := make(map[string]crew.Value, len(st.Outputs))
					sum := 0.0
					for _, v := range ctx.Inputs {
						if f, ok := v.AsNum(); ok {
							sum += f
						}
					}
					for i, o := range st.Outputs {
						out[o] = crew.Num(sum + float64(ctx.Attempt) + float64(i))
					}
					return out, nil
				})
			}
			register(st.Program, false)
			register(st.Compensation, true)
		}
	}
}
