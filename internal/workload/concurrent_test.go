package workload

import (
	"context"
	"sync"
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/central"
	"crew/internal/distributed"
	"crew/internal/metrics"
)

// TestStressAllArchitecturesSharedCollector drives the centralized, parallel
// and distributed architectures at the same time against a single shared
// Collector while a reader goroutine hammers the snapshot/aggregate API.
// Under -race this exercises every hot-path counter (sharded message
// counters, NodeRecorder handles, concurrent Node registration from three
// deployments whose agent names overlap) plus Quiesce on live networks.
func TestStressAllArchitecturesSharedCollector(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	p := analysis.Default()
	p.C = 3
	p.S = 8
	p.E = 3
	p.Z = 6
	p.A = 2
	p.F = 2
	p.R = 3
	p.W = 2
	p.ME, p.RO, p.RD = 1, 2, 1

	col := metrics.NewCollector()
	quiet := func(string, ...any) {}

	type deployment struct {
		name    string
		target  Target
		quiesce func(context.Context) error
		close   func()
	}
	var deps []deployment

	w, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	csys, err := central.NewSystem(central.SystemConfig{
		Library: w.Library, Programs: w.Programs, Collector: col,
		Agents: w.Agents, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	deps = append(deps, deployment{"central", csys, csys.Quiesce, csys.Close})
	psys, err := central.NewSystem(central.SystemConfig{
		Library: w.Library, Programs: w.Programs, Collector: col,
		Engines: p.E, Agents: w.Agents, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	deps = append(deps, deployment{"parallel", psys, psys.Quiesce, psys.Close})
	dsys, err := distributed.NewSystem(distributed.SystemConfig{
		Library: w.Library, Programs: w.Programs, Collector: col,
		Agents: w.Agents, Logf: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	deps = append(deps, deployment{"distributed", dsys, dsys.Quiesce, dsys.Close})
	defer func() {
		for _, d := range deps {
			d.close()
		}
	}()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := col.Snapshot()
			for _, m := range metrics.Mechanisms {
				_ = snap.MessagesOf(m)
				_ = col.Messages(m)
				_, _ = col.MaxNodeLoad(m)
				_ = col.TotalLoad(m)
			}
			_ = col.Nodes()
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, len(deps))
	for i, d := range deps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Drive(d.target, w, 4, 30*time.Second); err != nil {
				errs[i] = err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			errs[i] = d.quiesce(ctx)
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", deps[i].name, err)
		}
	}

	// Every architecture committed or aborted all its instances; the shared
	// collector saw traffic from all three.
	if col.Messages(metrics.Normal) == 0 {
		t.Fatal("shared collector recorded no normal-execution messages")
	}
}
