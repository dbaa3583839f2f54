package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
)

// selfcheck answers "does the benchmark agree with itself": per workload it
// makes two sets of n end-to-end runs of the same binary, alternating A and B
// so drift in the machine hits both, each run a fresh process as the
// acceptance harness runs it. The i-th run of either set uses seed+i. A
// metric misses when the sets' medians differ by more than its bound, or
// (from four runs up, set-up time excepted) when a set's quartile spread
// exceeds it.
func selfcheck(specs []*spec, o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crewbench:", err)
		return 1
	}
	// An interrupt must take the run in flight with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	misses := 0
	for _, sp := range specs {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < o.selfcheck; i++ {
			for s := range sets {
				seed := o.seed + int64(i)
				out, err := runOnce(ctx, self, sp.Name, seed, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "crewbench: selfcheck %s seed %d: %v\n", sp.Name, seed, err)
					return 1
				}
				fmt.Printf("%s %c seed=%d", sp.Name, 'A'+s, seed)
				for _, d := range endToEnd {
					v := out.Metrics[d.Name].Value
					sets[s][d.Name] = append(sets[s][d.Name], v)
					fmt.Printf(" %s=%.4g", d.Name, v)
				}
				fmt.Println()
			}
		}
		fmt.Printf("== selfcheck %s: 2 x %d runs, seeds %d..%d\n", sp.Name, o.selfcheck, o.seed, o.seed+int64(o.selfcheck)-1)
		fmt.Printf("%-20s %12s %12s %8s %8s %8s %6s\n", "metric", "median A", "median B", "diff", "spreadA", "spreadB", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			if math.Abs(diff) > d.Bound {
				verdict = "MISS(median)"
			}
			if o.selfcheck >= 4 && d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound) {
				verdict = "MISS(spread)"
			}
			if verdict != "ok" {
				misses++
			}
			fmt.Printf("%-20s %12.4f %12.4f %+7.2f%% %7.2f%% %7.2f%% %5.0f%% %s\n",
				d.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if misses > 0 {
		fmt.Printf("selfcheck: %d metric(s) outside their bound\n", misses)
		return 1
	}
	fmt.Println("selfcheck: every metric within its bound")
	return 0
}

// runOnce runs one end-to-end run in a child process and decodes its result
// line.
func runOnce(ctx context.Context, self, workload string, seed int64, o options) (*outputJSON, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-workdir", o.workdir)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) } // let it clean up
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outputJSON
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("decode result line: %w", err)
	}
	if !out.Correct {
		return nil, fmt.Errorf("run reported incorrect results (%d of %d failed)", out.Failed, out.Attempted)
	}
	return &out, nil
}
