package crew_test

// Sustained-load benchmarks: where bench_test.go measures per-instance
// message and load columns (Tables 4-6), these measure what a long-lived
// deployment does under an unbounded instance stream — throughput, goroutine
// ceiling, and, crucially, retained heap. Instance retirement is the feature
// under test: every terminal instance is archived and evicted, so retained
// bytes must stay roughly flat as the driven instance count grows.

import (
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/experiment"
)

func runThroughputBench(b *testing.B, arch analysis.Architecture) {
	b.Helper()
	b.ReportAllocs()
	var last *experiment.ThroughputResult
	for i := 0; i < b.N; i++ {
		r, err := experiment.Throughput(experiment.ThroughputOptions{
			Arch:      arch,
			Params:    benchParams(),
			Rounds:    3,
			Instances: benchInstances,
			Seed:      int64(500 + i),
			Timeout:   120 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.InstancesPerSec, "inst/sec")
	b.ReportMetric(float64(last.PeakGoroutines), "peak_goroutines")
	b.ReportMetric(float64(last.RetainedBytes), "retained_B")
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
			measure := func(rounds int) *experiment.ThroughputResult {
				r, err := experiment.Throughput(experiment.ThroughputOptions{
					Arch:      arch,
					Params:    benchParams(),
					Rounds:    rounds,
					Instances: benchInstances,
					Seed:      42,
					Timeout:   120 * time.Second,
					DBDir:     t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r1 := measure(1)
			r10 := measure(10)
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
			limit := 4 * r1.RetainedBytes
			if limit < 2<<20 {
				limit = 2 << 20
			}
			if r10.RetainedBytes > limit {
				t.Errorf("retained after 10x run = %d bytes (1x run: %d); growth is linear, retirement is not evicting",
					r10.RetainedBytes, r1.RetainedBytes)
			}
			t.Logf("%s: 1x retained=%d 10x retained=%d (%.0f inst/s, peak %d goroutines)",
				arch, r1.RetainedBytes, r10.RetainedBytes, r10.InstancesPerSec, r10.PeakGoroutines)
		})
	}
}
