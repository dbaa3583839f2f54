// Command crewbench is the repository's benchmark: it deploys the workflow
// system the way a user would (crew.NewSystem, or mproc.NewCluster for the
// one-process-per-agent mode), drives a seeded instance stream through it
// and reports end-to-end metrics (-trace 0) or per-layer metrics from a
// traced run (-trace 1). bench/README.md explains every workload and metric.
//
//	crewbench -workload central-normal -seed 1 -seconds 28 -trace 0
//	crewbench -workload all -seed 1            # all four workloads
//	crewbench -selfcheck 5 -seed 1             # do two sets of runs agree?
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"crew/internal/mproc"
)

func main() {
	// An agent-host invocation (spawned by the dist-procs workload) is
	// configured entirely through the environment and never parses flags.
	if cfg, err := mproc.ChildConfigFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "crewbench:", err)
		os.Exit(1)
	} else if cfg != nil {
		lib, programs, err := cfg.ResolveWorkload()
		if err == nil {
			err = mproc.RunChild(cfg, lib, programs)
		}
		if err != nil {
			// The hub closing its end is how every agent host ends.
			fmt.Fprintf(os.Stderr, "crewbench agent %s: %v\n", cfg.Name, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(hubMain())
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	selfcheck int
	workdir   string
}

func hubMain() int {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "run length the instance counts are scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run two alternating sets of N runs and compare their medians against the bounds")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "short relative directory for databases, sockets and traces")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "crewbench: unexpected argument", flag.Arg(0))
		return 2
	}

	var specs []*spec
	if o.workload == "all" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else if sp := findWorkload(o.workload); sp != nil {
		specs = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "crewbench: unknown workload %q\n", o.workload)
		return 2
	}

	// One load-generator process on at most four cores, so a larger machine
	// measures the same configuration as the 2-core sandbox.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	os.Setenv("GOMAXPROCS", strconv.Itoa(procs)) // inherited by agent processes

	if o.selfcheck > 0 {
		return selfcheck(specs, o)
	}

	runDir, err := makeRunDir(o.workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crewbench:", err)
		return 1
	}
	// A deployment closes its own agent processes; an interrupt only has to
	// take the work directory away. Agent hosts exit when the hub's socket
	// dies with this process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(runDir)
		os.Exit(130)
	}()
	defer os.RemoveAll(runDir)

	code := 0
	for _, sp := range specs {
		r := &run{sp: sp, seed: o.seed, seconds: o.seconds, dir: runDir, mach: newMachine()}
		var res *result
		if o.trace == 1 {
			res, err = r.tracedRun(filepath.Join(o.workdir, "trace"))
		} else {
			res, err = r.endToEndRun()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "crewbench: %s: %v\n", sp.Name, err)
			return 1
		}
		report(res)
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// makeRunDir creates this invocation's private directory under the work
// directory, which gets a .gitignore of its own so nothing the benchmark
// leaves behind shows up in `git status`.
func makeRunDir(workdir string) (string, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return "", err
	}
	ignore := filepath.Join(workdir, ".gitignore")
	if _, err := os.Stat(ignore); os.IsNotExist(err) {
		if err := os.WriteFile(ignore, []byte("*\n"), 0o644); err != nil {
			return "", err
		}
	}
	// The pid keeps the unix-socket paths below it short and concurrent
	// invocations apart.
	dir := filepath.Join(workdir, "r"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// outputJSON is the contract's result line.
type outputJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable table and then the JSON result line.
func report(res *result) {
	defs := endToEnd
	kind := "end-to-end"
	if res.Traced {
		defs, kind = perLayer, "per-layer (traced)"
	}
	fmt.Printf("== %s seed=%d %s\n", res.Workload, res.Seed, kind)
	out := outputJSON{
		Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Printf("%-36s %14.4f %-6s", d.Name, v, d.Unit)
		if raw, ok := res.Raw[d.Name]; ok && raw != v {
			fmt.Printf(" (on the clock: %.4f)", raw)
		}
		fmt.Println()
		out.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if !res.Traced {
		fmt.Printf("timings are at the reference machine speed: the reference kernel took %.2f us/op against a nominal %d\n",
			res.RefUs, refNominal/time.Microsecond)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.correct())
	if res.Nudges > 0 {
		fmt.Printf("%d of the attempted were started to release instances that had stalled for %v\n", res.Nudges, nudgeAfter)
	}
	for _, p := range res.Problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil { // a NaN metric: the run produced no samples for it
		fmt.Fprintln(os.Stderr, "crewbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
