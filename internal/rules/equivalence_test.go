package rules_test

import (
	"reflect"
	"testing"
	"time"

	"crew"
	"crew/internal/analysis"
	"crew/internal/rules"
	"crew/internal/workload"
)

type outcome struct {
	status crew.Status
	data   map[string]string
}

// runEverywhere runs a deterministic workload (ordering on, failures off) on
// every architecture and returns each instance's terminal status and final
// data, keyed by architecture, workflow and instance index.
func runEverywhere(t *testing.T) map[string]outcome {
	t.Helper()
	p := analysis.Default()
	p.C, p.S, p.Z, p.A, p.F, p.R = 3, 7, 6, 2, 2, 2
	p.ME, p.RO, p.RD = 0, 2, 0
	p.PF, p.PI, p.PA, p.PR = 0, 0, 0, 0
	got := make(map[string]outcome)
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		w, err := workload.Generate(p, 99)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := crew.NewSystem(crew.Config{
			Library: w.Library, Programs: w.Programs, Architecture: arch,
			Agents: w.Agents, Engines: 3, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, wf := range w.Library.Names() {
			for i := 0; i < 4; i++ {
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
				got[arch.String()+" "+wf+"#"+string(rune('0'+i))] = outcome{status: st, data: data}
			}
		}
		sys.Close()
	}
	return got
}

// TestIndexedRulePathMatchesScanReference forces every rule engine in the
// system through the reference scan evaluation path and re-runs the
// deterministic workload: the indexed (reactive) path must produce the same
// outcomes on every architecture — the engine's inverted index is an
// evaluation strategy, never a semantics change.
func TestIndexedRulePathMatchesScanReference(t *testing.T) {
	rules.SetScanOnly(true)
	t.Cleanup(func() { rules.SetScanOnly(false) })
	scan := runEverywhere(t)
	rules.SetScanOnly(false)
	indexed := runEverywhere(t)
	if len(indexed) != len(scan) {
		t.Fatalf("indexed path produced %d outcomes, scan reference %d", len(indexed), len(scan))
	}
	for key, want := range scan {
		if got := indexed[key]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: indexed = %+v, scan reference = %+v", key, got, want)
		}
	}
}
