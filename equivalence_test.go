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
	"sync"
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

// scenario is one deterministic workload: a library, the programs it runs,
// the agents and each instance's inputs. The programs may keep state, so a
// scenario is built afresh for every architecture.
type scenario struct {
	lib       *crew.Library
	programs  *crew.Registry
	agents    []string
	inputs    func(i int) map[string]crew.Value
	instances int
}

// generated is the generated workload at p.
func generated(p analysis.Parameters) func(t *testing.T) scenario {
	return func(t *testing.T) scenario {
		w, err := workload.Generate(p, 99)
		if err != nil {
			t.Fatal(err)
		}
		return scenario{w.Library, w.Programs, w.Agents, w.Inputs, 4}
	}
}

// collectOutcomes runs a scenario on every architecture and returns the
// terminal status and final data of each instance, keyed by workflow and
// instance index.
func collectOutcomes(t *testing.T, build func(t *testing.T) scenario) map[crew.Architecture]map[string]outcome {
	t.Helper()
	results := make(map[crew.Architecture]map[string]outcome)
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		sc := build(t)
		sys, err := crew.NewSystem(crew.Config{
			Library:      sc.lib,
			Programs:     sc.programs,
			Architecture: arch,
			Agents:       sc.agents,
			Engines:      3,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]outcome)
		for _, wf := range sc.lib.Names() {
			for i := 0; i < sc.instances; i++ {
				id, st, err := sys.Run(wf, sc.inputs(i), 20*time.Second)
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
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) scenario
	}{
		{"generated", generated(equivalenceParams())},
		{"failure and revisit", failureAndRevisit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := collectOutcomes(t, tc.build)
			base := results[crew.Central]
			for _, arch := range []crew.Architecture{crew.Parallel, crew.Distributed} {
				compareOutcomes(t, arch.String(), base, results[arch])
			}
		})
	}
}

// failureAndRevisit is A -> B -> C where B fails its first attempt at every
// instance and rolls back to A: each instance revisits A through OCR, which
// reuses A's result because its inputs stand, and runs B again. Each
// architecture's run checks that this is what happened when the test ends.
func failureAndRevisit(t *testing.T) scenario {
	const instances = 4
	var mu sync.Mutex
	failed := map[int]bool{}
	runs := map[string]int{}
	count := func(step string) {
		mu.Lock()
		runs[step]++
		mu.Unlock()
	}
	reg := crew.NewRegistry()
	reg.Register("pa", func(ctx *crew.ProgramContext) (map[string]crew.Value, error) {
		count("A")
		i1, _ := ctx.Inputs["WF.I1"].AsNum()
		return map[string]crew.Value{"O1": crew.Num(2 * i1)}, nil
	})
	reg.Register("ca", func(*crew.ProgramContext) (map[string]crew.Value, error) {
		count("compensate A")
		return nil, nil
	})
	reg.Register("pb", func(ctx *crew.ProgramContext) (map[string]crew.Value, error) {
		mu.Lock()
		first := !failed[ctx.Instance]
		failed[ctx.Instance] = true
		mu.Unlock()
		if first {
			return nil, crew.Fail("first attempt fails")
		}
		count("B")
		a, _ := ctx.Inputs["A.O1"].AsNum()
		return map[string]crew.Value{"O1": crew.Num(a + 1)}, nil
	})
	reg.Register("pc", func(ctx *crew.ProgramContext) (map[string]crew.Value, error) {
		count("C")
		b, _ := ctx.Inputs["B.O1"].AsNum()
		return map[string]crew.Value{"O1": crew.Num(10 * b)}, nil
	})
	lib := crew.NewLibrary()
	lib.Add(crew.NewSchema("Retry", "I1").
		Step("A", "pa", crew.WithInputs("WF.I1"), crew.WithOutputs("O1"), crew.WithCompensation("ca")).
		Step("B", "pb", crew.WithInputs("A.O1"), crew.WithOutputs("O1")).
		Step("C", "pc", crew.WithInputs("B.O1"), crew.WithOutputs("O1")).
		Seq("A", "B", "C").
		OnFailure("B", "A", 2).
		MustBuild())
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		want := map[string]int{"A": instances, "B": instances, "C": instances}
		if !reflect.DeepEqual(runs, want) {
			t.Errorf("programs ran %v, want %v: one failed B, a reused A, per instance", runs, want)
		}
		if len(failed) != instances {
			t.Errorf("B failed at %d instances, want %d", len(failed), instances)
		}
	})
	return scenario{
		lib:       lib,
		programs:  reg,
		agents:    []string{"a1", "a2", "a3"},
		inputs:    func(i int) map[string]crew.Value { return map[string]crew.Value{"I1": crew.Num(float64(i + 1))} },
		instances: instances,
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
