package crew_test

// Sustained-load benchmarks: where bench_test.go measures per-instance
// message and load columns (Tables 4-6), these measure what a long-lived
// deployment does under an unbounded instance stream — throughput and,
// crucially, retained heap. Instance retirement is the feature under test:
// every terminal instance is archived and evicted, so retained bytes must
// stay roughly flat as the driven instance count grows.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/deploy"
	"crew/internal/store"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// sustained is the outcome of one sustain run.
type sustained struct {
	workload.Result // summed over the rounds; Elapsed is the whole drive
	// retained is the live-heap growth the deployment keeps: heap in use
	// after the final quiesce and a forced GC, minus heap in use before the
	// first round (clamped at zero).
	retained uint64
}

// perSec is the run's instances per second.
func (s sustained) perSec() float64 { return float64(s.Instances) / s.Elapsed.Seconds() }

// sustain drives rounds successive workload.DriveRange passes of
// benchInstances instances per schema through one long-lived deployment, in
// disjoint instance-id windows, so the run exercises retirement rather than
// id reuse. dir, when non-empty, gives every scheduling node (the engines,
// or the agents where there is none) a file-backed WFDB with a spilled
// archive under it.
func sustain(tb testing.TB, arch analysis.Architecture, rounds int, seed int64, dir string) sustained {
	tb.Helper()
	p := benchParams()
	w, err := workload.Generate(p, seed)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := deploy.Config{
		Library: w.Library, Programs: w.Programs, Agents: w.Agents,
		Engines: p.E, Logf: func(string, ...any) {},
	}
	if dir != "" {
		n := deploy.Engines(arch, p.E)
		if n == 0 {
			n = len(w.Agents)
		}
		for i := 0; i < n; i++ {
			st, err := store.Open(filepath.Join(dir, fmt.Sprintf("node%d.db", i)))
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() {
				if err := st.Close(); err != nil {
					tb.Error(err)
				}
			})
			db := wfdb.New(st)
			if err := db.SpillArchive(); err != nil {
				tb.Fatal(err)
			}
			cfg.DBs = append(cfg.DBs, db)
		}
	}
	sys, err := deploy.New(arch, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer sys.Close()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	var out sustained
	start := time.Now()
	for r := 0; r < rounds; r++ {
		res, err := workload.DriveRange(sys, w, r*benchInstances+1, benchInstances, 120*time.Second)
		if err != nil {
			tb.Fatalf("round %d: %v", r, err)
		}
		out.Instances += res.Instances
		out.Committed += res.Committed
		out.Aborted += res.Aborted
	}
	out.Elapsed = time.Since(start)

	// The distributed Quiesce also has the agents drop their replicas of
	// finished instances, so retained does not depend on where the end of
	// the run fell in the sweep period.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := sys.Quiesce(ctx); err != nil {
		tb.Fatalf("quiesce: %v", err)
	}
	// Two GC cycles: the first finalizes, the second collects what the
	// finalizers released.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > before {
		out.retained = ms.HeapAlloc - before
	}
	return out
}

func runThroughputBench(b *testing.B, arch analysis.Architecture) {
	b.Helper()
	b.ReportAllocs()
	var last sustained
	for i := 0; i < b.N; i++ {
		last = sustain(b, arch, 3, int64(500+i), "")
	}
	b.ReportMetric(last.perSec(), "inst/sec")
	b.ReportMetric(float64(last.retained), "retained_B")
}

// BenchmarkThroughputCentralized drives a sustained stream through one
// centralized deployment.
func BenchmarkThroughputCentralized(b *testing.B) {
	runThroughputBench(b, analysis.Central)
}

// BenchmarkThroughputParallel drives a sustained stream through one parallel
// deployment (e engines).
func BenchmarkThroughputParallel(b *testing.B) {
	runThroughputBench(b, analysis.Parallel)
}

// BenchmarkThroughputDistributed drives a sustained stream through one
// distributed deployment (z agents).
func BenchmarkThroughputDistributed(b *testing.B) {
	runThroughputBench(b, analysis.Distributed)
}

// TestThroughputRetainedMemoryFlat is the retirement acceptance check: a
// 10x-longer instance stream through a durable (file-backed, spilled-archive)
// deployment must retain far less than 10x the heap — archived instances
// live in the WAL alone, the archive keeping a one-word reference per row,
// and the byte-per-instance terminal registry stays resident.
func TestThroughputRetainedMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained-load run")
	}
	for _, arch := range analysis.Architectures {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			r1 := sustain(t, arch, 1, 42, t.TempDir())
			r10 := sustain(t, arch, 10, 42, t.TempDir())
			if r10.Instances != 10*r1.Instances {
				t.Fatalf("instances = %d, want %d", r10.Instances, 10*r1.Instances)
			}
			if r10.Committed+r10.Aborted != r10.Instances {
				t.Fatalf("only %d of %d instances reached a terminal status",
					r10.Committed+r10.Aborted, r10.Instances)
			}
			// Sublinear-growth bound with a generous noise floor: GC
			// accounting jitters by hundreds of KiB, but a retirement
			// regression retains full instance state (rules, data tables,
			// event tables) for every driven instance and lands well past
			// the floor.
			limit := 4 * r1.retained
			if limit < 2<<20 {
				limit = 2 << 20
			}
			if r10.retained > limit {
				t.Errorf("retained after 10x run = %d bytes (1x run: %d); growth is linear, retirement is not evicting",
					r10.retained, r1.retained)
			}
			t.Logf("%s: 1x retained=%d 10x retained=%d (%.0f inst/s)",
				arch, r1.retained, r10.retained, r10.perSec())
		})
	}
}
