package crew_test

// Cross-architecture equivalence: the three control architectures are
// different machines executing the same semantics, so a deterministic
// workload must commit the same instances with the same final data on all
// of them (paper Figure 6: the architecture is a deployment choice, not a
// semantics choice).

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crew"
	"crew/internal/analysis"
	"crew/internal/metrics"
	"crew/internal/workload"
)

type outcome struct {
	status crew.Status
	data   map[string]string
}

func equivalenceParams() analysis.Parameters {
	p := analysis.Default()
	p.C = 3
	p.S = 7
	p.Z = 6
	p.A = 2
	p.F = 2
	p.R = 2
	p.ME, p.RO, p.RD = 0, 2, 0 // ordering on, failures off: fully deterministic
	p.PF, p.PI, p.PA, p.PR = 0, 0, 0, 0
	return p
}

// collectOutcomes runs the deterministic workload on every architecture and
// returns the terminal status and final data of each instance, keyed by
// workflow and instance index.
func collectOutcomes(t *testing.T, p analysis.Parameters) map[crew.Architecture]map[string]outcome {
	t.Helper()
	const instances = 4
	results := make(map[crew.Architecture]map[string]outcome)
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		w, err := workload.Generate(p, 99)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := crew.NewSystem(crew.Config{
			Library:      w.Library,
			Programs:     w.Programs,
			Architecture: arch,
			Agents:       w.Agents,
			Engines:      3,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]outcome)
		for _, wf := range w.Library.Names() {
			for i := 0; i < instances; i++ {
				id, st, err := sys.Run(wf, w.Inputs(i), 20*time.Second)
				if err != nil {
					sys.Close()
					t.Fatalf("%v %s: %v", arch, wf, err)
				}
				snap, ok := sys.Snapshot(wf, id)
				if !ok {
					sys.Close()
					t.Fatalf("%v %s.%d: no snapshot", arch, wf, id)
				}
				data := make(map[string]string, len(snap.Data))
				for k, v := range snap.Data {
					data[k] = v.GoString()
				}
				got[wf+"#"+string(rune('0'+i))] = outcome{status: st, data: data}
			}
		}
		sys.Close()
		results[arch] = got
	}
	return results
}

// compareOutcomes fails the test on any status or data divergence between the
// two outcome sets.
func compareOutcomes(t *testing.T, label string, base, other map[string]outcome) {
	t.Helper()
	if len(other) != len(base) {
		t.Fatalf("%s produced %d outcomes, reference %d", label, len(other), len(base))
	}
	for key, want := range base {
		got, ok := other[key]
		if !ok {
			t.Errorf("%s missing outcome %s", label, key)
			continue
		}
		if got.status != want.status {
			t.Errorf("%s %s status = %v, reference %v", label, key, got.status, want.status)
		}
		for item, v := range want.data {
			if got.data[item] != v {
				t.Errorf("%s %s data %s = %s, reference %s", label, key, item, got.data[item], v)
			}
		}
	}
}

func TestArchitecturesProduceEquivalentResults(t *testing.T) {
	results := collectOutcomes(t, equivalenceParams())
	base := results[crew.Central]
	for _, arch := range []crew.Architecture{crew.Parallel, crew.Distributed} {
		compareOutcomes(t, arch.String(), base, results[arch])
	}
}

// runCounted drives the deterministic workload one instance at a time and
// returns the deployment's settled counters.
func runCounted(t *testing.T, cfg crew.Config) metrics.Snapshot {
	t.Helper()
	w, err := workload.Generate(equivalenceParams(), 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Library, cfg.Programs, cfg.Agents, cfg.Logf = w.Library, w.Programs, w.Agents, t.Logf
	sys, err := crew.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, wf := range w.Library.Names() {
		for i := 0; i < 4; i++ {
			if _, st, err := sys.Run(wf, w.Inputs(i), 20*time.Second); err != nil || st != crew.Committed {
				t.Fatalf("%v %s: %v, %v", cfg.Architecture, wf, st, err)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := sys.(interface{ Quiesce(context.Context) error }).Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	return sys.Collector().Snapshot()
}

// TestOneEngineParallelIsCentral holds the centralized architecture to what the
// paper says it is, the parallel one at e = 1: same messages and same load at
// the engine under every mechanism, so the two cannot drift apart again.
func TestOneEngineParallelIsCentral(t *testing.T) {
	central := runCounted(t, crew.Config{Architecture: crew.Central})
	single := runCounted(t, crew.Config{Architecture: crew.Parallel, Engines: 1})
	if central.Messages != single.Messages {
		t.Errorf("messages by mechanism: central %v, one-engine parallel %v", central.Messages, single.Messages)
	}
	if c, s := central.NodeLoad["engine"], single.NodeLoad["engine"]; c != s || c[crew.MechNormal] == 0 {
		t.Errorf("load at engine by mechanism: central %v, one-engine parallel %v", c, s)
	}
}

// TestSchedulingNodeNames pins the node names load is charged under, which
// crewbench and NewChaosPlan callers spell out: one engine is "engine", e of
// them are "engine0" to "engine{e-1}".
func TestSchedulingNodeNames(t *testing.T) {
	for _, tc := range []struct {
		cfg  crew.Config
		want []string
	}{
		{crew.Config{Architecture: crew.Central}, []string{"engine"}},
		{crew.Config{Architecture: crew.Parallel, Engines: 1}, []string{"engine"}},
		{crew.Config{Architecture: crew.Parallel, Engines: 2}, []string{"engine0", "engine1"}},
	} {
		loads := runCounted(t, tc.cfg).NodeLoad
		var engines []string
		for node, load := range loads {
			if strings.HasPrefix(node, "engine") {
				engines = append(engines, node)
				if load[crew.MechNormal] == 0 {
					t.Errorf("%v e=%d: no normal-execution load at %s", tc.cfg.Architecture, tc.cfg.Engines, node)
				}
			}
		}
		sort.Strings(engines)
		if !reflect.DeepEqual(engines, tc.want) {
			t.Errorf("%v e=%d: load charged at %v, want %v", tc.cfg.Architecture, tc.cfg.Engines, engines, tc.want)
		}
	}
}
