package experiment

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"crew/internal/analysis"
	"crew/internal/deploy"
	"crew/internal/store"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// ThroughputOptions configures a sustained-load run: Rounds successive
// workload passes of Instances instances per schema against one long-lived
// deployment. Successive rounds use disjoint instance-id windows, so the run
// exercises instance retirement rather than id reuse.
type ThroughputOptions struct {
	Arch   analysis.Architecture
	Params analysis.Parameters
	// Rounds is the number of back-to-back workload.DriveRange passes.
	Rounds int
	// Instances is the per-schema instance count of each round.
	Instances int
	Seed      int64
	Timeout   time.Duration
	// DBDir, when non-empty, gives every scheduling node a file-backed WFDB
	// under that directory with a spilled archive table, so RetainedBytes
	// reflects the durable configuration (archived instances live in the
	// log, not on the heap) instead of in-memory archives.
	DBDir string
}

// ThroughputResult is the outcome of one sustained-load run.
type ThroughputResult struct {
	Arch      analysis.Architecture
	Rounds    int
	Instances int // total instances driven across all rounds
	Committed int
	Aborted   int
	Elapsed   time.Duration
	// InstancesPerSec is Instances / Elapsed.
	InstancesPerSec float64
	// PeakGoroutines is the largest goroutine count sampled while driving.
	PeakGoroutines int
	// RetainedBytes is the live-heap growth attributable to the run: heap
	// in use after the final quiesce and a forced GC, minus heap in use
	// before the first round (clamped at zero). With instance retirement
	// this stays roughly flat as Rounds grows; without it, it grows
	// linearly in the total instance count.
	RetainedBytes uint64
}

// openDBs opens n file-backed WFDBs with a spilled archive under dir.
func openDBs(dir string, n int) ([]*wfdb.DB, error) {
	dbs := make([]*wfdb.DB, n)
	for i := range dbs {
		st, err := store.Open(filepath.Join(dir, fmt.Sprintf("node%d.db", i)))
		if err != nil {
			return nil, err
		}
		dbs[i] = wfdb.New(st)
		if err := dbs[i].SpillArchive(); err != nil {
			return nil, err
		}
	}
	return dbs, nil
}

// Throughput drives a sustained instance stream through one deployment and
// reports rate, goroutine and retained-memory figures. Unlike Run it keeps
// the system alive across rounds — the point is what the deployment retains
// after instances terminate, not per-run message counts.
func Throughput(opt ThroughputOptions) (*ThroughputResult, error) {
	if opt.Rounds <= 0 {
		opt.Rounds = 1
	}
	if opt.Instances <= 0 {
		opt.Instances = 5
	}
	if opt.Timeout == 0 {
		opt.Timeout = 60 * time.Second
	}
	w, err := workload.Generate(opt.Params, opt.Seed)
	if err != nil {
		return nil, err
	}
	cfg := deploy.Config{
		Library: w.Library, Programs: w.Programs, Agents: w.Agents,
		Engines: opt.Params.E, Logf: func(string, ...any) {},
	}
	if opt.DBDir != "" {
		// One database per scheduling node: the engines, or the agents where
		// there is none.
		n := deploy.Engines(opt.Arch, opt.Params.E)
		if n == 0 {
			n = len(w.Agents)
		}
		if cfg.DBs, err = openDBs(opt.DBDir, n); err != nil {
			return nil, err
		}
	}
	// The distributed Quiesce also has the agents drop their replicas of
	// finished instances, so RetainedBytes does not depend on where the end of
	// the run fell in the sweep period.
	sys, err := deploy.New(opt.Arch, cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc

	// Sample the goroutine count in the background while driving; the peak
	// bounds the cost of waiter/poller machinery under load.
	var peak atomic.Int64
	stop := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()

	res := &ThroughputResult{Arch: opt.Arch, Rounds: opt.Rounds}
	start := time.Now()
	for r := 0; r < opt.Rounds; r++ {
		dr, err := workload.DriveRange(sys, w, r*opt.Instances+1, opt.Instances, opt.Timeout)
		if err != nil {
			close(stop)
			<-sampleDone
			return nil, fmt.Errorf("experiment: round %d: %w", r, err)
		}
		res.Instances += dr.Instances
		res.Committed += dr.Committed
		res.Aborted += dr.Aborted
	}
	res.Elapsed = time.Since(start)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.InstancesPerSec = float64(res.Instances) / s
	}
	close(stop)
	<-sampleDone
	res.PeakGoroutines = int(peak.Load())

	qctx, cancel := context.WithTimeout(context.Background(), opt.Timeout)
	qerr := sys.Quiesce(qctx)
	cancel()
	if qerr != nil {
		return nil, fmt.Errorf("experiment: quiesce: %w", qerr)
	}
	// Two GC cycles: the first finalizes, the second collects what the
	// finalizers released; the remaining heap growth is what the deployment
	// actually retains per driven instance.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapBefore {
		res.RetainedBytes = ms.HeapAlloc - heapBefore
	}
	return res, nil
}

// FormatThroughput renders one result as a log-friendly line.
func FormatThroughput(r *ThroughputResult) string {
	return fmt.Sprintf("%-12v rounds=%-3d inst=%-5d committed=%-5d aborted=%-4d %8.1f inst/s  peak_goroutines=%-4d retained=%s",
		r.Arch, r.Rounds, r.Instances, r.Committed, r.Aborted,
		r.InstancesPerSec, r.PeakGoroutines, formatBytes(r.RetainedBytes))
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
