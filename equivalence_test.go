package crew_test

// Cross-architecture equivalence: the three control architectures are
// different machines executing the same semantics, so a deterministic
// workload must commit the same instances with the same final data on all
// of them (paper Figure 6: the architecture is a deployment choice, not a
// semantics choice).

import (
	"testing"
	"time"

	"crew"
	"crew/internal/analysis"
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
