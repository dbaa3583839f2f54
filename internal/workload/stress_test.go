package workload

import (
	"fmt"
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/distributed"
	"crew/internal/metrics"
	"crew/internal/wfdb"
)

// TestStressDistributedSeeds hammers the distributed architecture across
// seeds to flush out rare ordering-dependent hangs.
func TestStressDistributedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	p := analysis.Default()
	p.C = 4
	p.S = 10
	p.Z = 8
	p.A = 2
	p.F = 2
	p.R = 3
	p.W = 2
	p.ME, p.RO, p.RD = 1, 2, 1
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, err := Generate(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			col := metrics.NewCollector()
			sys, err := distributed.NewSystem(distributed.SystemConfig{
				Library: w.Library, Programs: w.Programs, Collector: col,
				Agents: w.Agents, Logf: func(string, ...any) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if _, err := Drive(sys, w, 6, 10*time.Second); err != nil {
				t.Logf("drive error: %v", err)
				dump(t, sys, w)
				t.FailNow()
			}
		})
	}
}

func dump(t *testing.T, sys *distributed.System, w *Workload) {
	for _, wf := range w.Library.Names() {
		for i := 1; i <= 6; i++ {
			st, ok := sys.Status(wf, i)
			if ok && st != wfdb.Running {
				continue
			}
			t.Logf("--- stuck %s.%d (status=%v ok=%v)", wf, i, st, ok)
			for _, ag := range sys.SchedulingNodes() {
				if snap, has := sys.SnapshotAt(ag, wf, i); has {
					t.Logf("  %s: ev=%s exec=%v", ag, snap.Events.String(), snap.ExecOrder)
					t.Logf("  %s dbg: %s", ag, sys.Agent(ag).DebugState(wf, i))
				}
			}
		}
	}
}
