// Command crewsim regenerates the paper's evaluation: the parameter space
// (Table 3), the per-architecture load/message tables with analytic and
// measured columns (Tables 4-6), the architecture recommendation (Table 7),
// the parameter sweeps behind §6's scaling claims, and demonstrations of the
// relative-ordering protocol (Figure 4), the OCR algorithm (Figure 5) and
// the workflow packet (Figure 7).
//
// Usage:
//
//	crewsim table3
//	crewsim table4|table5|table6 [-i N] [-seed S] [-s steps] [-z agents] [-e engines]
//	crewsim table7  [-i N] [-seed S]
//	crewsim sweep   [-i N] -param s|z|e|ro -values 5,10,15 [-arch central|parallel|distributed]
//	crewsim chaos   [-i N] [-seed S] [-crashes 1,2,4] [-sfr RATE] [-drop K] [-smoke]
//	crewsim fig4
//	crewsim fig5
//	crewsim fig7
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"crew/internal/analysis"
	"crew/internal/experiment"
)

func main() {
	os.Exit(run())
}

func run() int {
	// Global flags precede the subcommand (flag parsing stops at the first
	// non-flag argument, so plain "crewsim table4 -i 5" is unaffected).
	global := flag.NewFlagSet("crewsim", flag.ExitOnError)
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := global.String("memprofile", "", "write a heap profile to `file` on exit")
	global.Usage = func() { usage() }
	global.Parse(os.Args[1:])
	if global.NArg() < 1 {
		usage()
		return 2
	}
	cmd := global.Arg(0)
	args := global.Args()[1:]

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crewsim: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "crewsim: -cpuprofile:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crewsim: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "crewsim: -memprofile:", err)
			}
		}()
	}

	if err := dispatch(cmd, args); err != nil {
		fmt.Fprintln(os.Stderr, "crewsim:", err)
		return 1
	}
	return 0
}

func dispatch(cmd string, args []string) error {
	var err error
	switch cmd {
	case "table3":
		err = cmdTable3()
	case "table4":
		err = cmdTable(analysis.Central, "Table 4: Load and Physical Messages in Centralized Workflow Control", args)
	case "table5":
		err = cmdTable(analysis.Parallel, "Table 5: Load and Physical Messages in Parallel Workflow Control", args)
	case "table6":
		err = cmdTable(analysis.Distributed, "Table 6: Load and Physical Messages in Distributed Workflow Control", args)
	case "table7":
		err = cmdTable7(args)
	case "sweep":
		err = cmdSweep(args)
	case "chaos":
		err = cmdChaos(args)
	case "fig4":
		err = cmdFig4()
	case "fig5":
		err = cmdFig5()
	case "fig7":
		err = cmdFig7()
	default:
		usage()
		os.Exit(2)
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: crewsim [-cpuprofile file] [-memprofile file] <table3|table4|table5|table6|table7|sweep|chaos|fig4|fig5|fig7> [flags]`)
}

// experimentParams defines the measured-run parameter point: Table 3
// averages scaled down in c/i so a run takes seconds, with every mechanism
// active.
func experimentParams() analysis.Parameters {
	p := analysis.Default()
	p.C = 4
	p.S = 10
	p.Z = 10
	p.A = 2
	p.F = 2
	p.R = 3
	p.W = 2
	p.ME, p.RO, p.RD = 1, 2, 1
	return p
}

func paramFlags(fs *flag.FlagSet, p *analysis.Parameters) (instances *int, seed *int64) {
	instances = fs.Int("i", 5, "instances per schema")
	seed = fs.Int64("seed", 1, "workload seed")
	fs.IntVar(&p.S, "s", p.S, "steps per workflow")
	fs.IntVar(&p.C, "c", p.C, "workflow schemas")
	fs.IntVar(&p.Z, "z", p.Z, "agents")
	fs.IntVar(&p.E, "e", p.E, "engines")
	fs.IntVar(&p.A, "a", p.A, "eligible agents per step")
	fs.IntVar(&p.RO, "ro", p.RO, "relative-order steps per workflow")
	fs.IntVar(&p.ME, "me", p.ME, "mutex steps per workflow")
	fs.IntVar(&p.RD, "rd", p.RD, "rollback-dependency steps per workflow")
	fs.Float64Var(&p.PF, "pf", p.PF, "step failure probability")
	return instances, seed
}

func cmdTable3() error {
	fmt.Println("Table 3: Parameters used in Analysis")
	fmt.Printf("  %-52s %-7s %s\n", "Parameter", "Symbol", "Value Range")
	for _, r := range analysis.Table3() {
		fmt.Printf("  %-52s %-7s %g - %g\n", r.Name, r.Symbol, r.Lo, r.Hi)
	}
	return nil
}

func cmdTable(arch analysis.Architecture, title string, args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	p := experimentParams()
	instances, seed := paramFlags(fs, &p)
	backend := fs.String("backend", "inproc", "wire backend: inproc|unix|tcp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := experiment.Run(experiment.Options{
		Arch:      arch,
		Params:    p,
		Instances: *instances,
		Seed:      *seed,
		Timeout:   5 * time.Minute,
		Backend:   *backend,
	})
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatComparison(title, m))
	return nil
}

func cmdTable7(args []string) error {
	fs := flag.NewFlagSet("table7", flag.ExitOnError)
	p := experimentParams()
	instances, seed := paramFlags(fs, &p)
	backend := fs.String("backend", "inproc", "wire backend: inproc|unix|tcp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The three deployments are independent (separate networks, separate
	// collectors), so measure them concurrently.
	results := make(map[analysis.Architecture]*experiment.Measured, 3)
	errs := make([]error, len(analysis.Architectures))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, arch := range analysis.Architectures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := experiment.Run(experiment.Options{
				Arch: arch, Params: p, Instances: *instances, Seed: *seed,
				Timeout: 5 * time.Minute, Backend: *backend,
			})
			if err != nil {
				errs[i] = fmt.Errorf("%v: %w", arch, err)
				return
			}
			mu.Lock()
			results[arch] = m
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Println("Table 7: Recommended Choice of Architectures (analytic | measured)")
	fmt.Printf("  %-18s %-34s %-34s\n", "Criteria", "Load at Node", "Physical Messages")
	for _, c := range analysis.Criteria {
		al := analysis.RecommendLoad(p, c)
		am := analysis.RecommendMessages(p, c)
		ml := experiment.RankMeasured(results, c, true)
		mm := experiment.RankMeasured(results, c, false)
		fmt.Printf("  %-18s analytic: %-24s analytic: %s\n", c, rankStr(al.Order), rankStr(am.Order))
		fmt.Printf("  %-18s measured: %-24s measured: %s\n", "", rankStr(ml.Order), rankStr(mm.Order))
	}
	return nil
}

// cmdChaos sweeps crash counts across all three architectures under the
// deterministic fault injector, reporting recovery metrics and the verified
// coordination invariants. Any non-terminal instance or invariant violation
// fails the command, so it doubles as a CI recovery check (-smoke shrinks it
// to one quick point per architecture).
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	instances := fs.Int("i", 3, "instances per schema")
	seed := fs.Int64("seed", 1, "workload and fault-plan seed")
	crashList := fs.String("crashes", "1,2,4", "comma-separated crash counts to sweep")
	sfr := fs.Float64("sfr", 0, "injected transient step-failure rate")
	drop := fs.Int("drop", 0, "drop every k-th message (0 disables)")
	backend := fs.String("backend", "inproc", "wire backend: inproc|unix|tcp")
	smoke := fs.Bool("smoke", false, "quick single-point run per architecture")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var counts []int
	if *smoke {
		counts = []int{1}
		*instances = 2
	} else {
		for _, vs := range strings.Split(*crashList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(vs))
			if err != nil {
				return err
			}
			counts = append(counts, v)
		}
	}
	p := experimentParams()
	p.RO = 3 // three ordered instances make the relative-order check non-vacuous

	fmt.Printf("Chaos sweep (seed=%d, %d instances/schema, sfr=%g, drop=%d)\n",
		*seed, *instances, *sfr, *drop)
	failures := 0
	for _, crashes := range counts {
		fmt.Printf("crashes=%d\n", crashes)
		for _, arch := range analysis.Architectures {
			m, _, err := experiment.RunChaos(experiment.ChaosOptions{
				Arch:         arch,
				Params:       p,
				Instances:    *instances,
				Seed:         *seed,
				Timeout:      5 * time.Minute,
				Crashes:      crashes,
				StepFailRate: *sfr,
				DropEvery:    *drop,
				Backend:      *backend,
			})
			if err != nil {
				return fmt.Errorf("%v crashes=%d: %w", arch, crashes, err)
			}
			fmt.Printf("  %s\n", experiment.FormatChaos(m))
			fmt.Printf("  %-12s plan: %s\n", "", m.PlanDigest())
			failures += len(m.NonTerminal) + len(m.MutexViolations) + len(m.OrderViolations)
			if m.CrashesApplied < 1 {
				failures++
				fmt.Printf("  %-12s ERROR: no crash was applied\n", "")
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d recovery-contract violations", failures)
	}
	return nil
}

func rankStr(order []analysis.Architecture) string {
	parts := make([]string, len(order))
	for i, a := range order {
		parts[i] = fmt.Sprintf("(%d)%s", i+1, a)
	}
	return strings.Join(parts, " ")
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	param := fs.String("param", "z", "parameter to sweep: s|z|e|a|ro|pf")
	values := fs.String("values", "4,8,16", "comma-separated values")
	archName := fs.String("arch", "distributed", "central|parallel|distributed")
	instances := fs.Int("i", 5, "instances per schema")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var arch analysis.Architecture
	switch *archName {
	case "central":
		arch = analysis.Central
	case "parallel":
		arch = analysis.Parallel
	case "distributed":
		arch = analysis.Distributed
	default:
		return fmt.Errorf("unknown architecture %q", *archName)
	}
	// Parse the whole sweep up front, then measure every point concurrently
	// (each point is its own deployment) and print in input order.
	var points []float64
	for _, vs := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
		if err != nil {
			return err
		}
		points = append(points, v)
	}
	lines := make([]string, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i, v := range points {
		p := experimentParams()
		switch *param {
		case "s":
			p.S = int(v)
		case "z":
			p.Z = int(v)
		case "e":
			p.E = int(v)
		case "a":
			p.A = int(v)
		case "ro":
			p.RO = int(v)
		case "pf":
			p.PF = v
		default:
			return fmt.Errorf("unknown parameter %q", *param)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := experiment.Run(experiment.Options{
				Arch: arch, Params: p, Instances: *instances, Seed: *seed,
				Timeout: 5 * time.Minute,
			})
			if err != nil {
				errs[i] = err
				return
			}
			lines[i] = fmt.Sprintf("  %s=%-6g msgs=%-8.2f coord=%-8.2f load=%-8.3f",
				*param, v,
				m.MsgsPerInstance[analysis.RowNormal],
				m.MsgsPerInstance[analysis.RowCoord],
				m.LoadPerInstance[analysis.RowNormal])
		}()
	}
	wg.Wait()
	fmt.Printf("Sweep of %s on %v (normal msgs/inst, coord msgs/inst, load/inst per node)\n", *param, arch)
	for i, line := range lines {
		if errs[i] != nil {
			return errs[i]
		}
		fmt.Println(line)
	}
	return nil
}
