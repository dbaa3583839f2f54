package workload

import (
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/central"
	"crew/internal/distributed"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/wfdb"
)

// smallParams returns a fast parameter point with every mechanism active.
func smallParams() analysis.Parameters {
	p := analysis.Default()
	p.C = 4 // schemas
	p.S = 6 // steps
	p.Z = 6 // agents
	p.A = 2
	p.F = 2
	p.R = 2
	p.W = 2
	p.ME, p.RO, p.RD = 1, 2, 1
	p.PF, p.PI, p.PA, p.PR = 0.15, 0.05, 0.05, 0.3
	return p
}

func TestGenerateStructure(t *testing.T) {
	p := smallParams()
	w, err := Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	names := w.Library.Names()
	if len(names) != p.C {
		t.Fatalf("schemas = %d, want %d", len(names), p.C)
	}
	for _, name := range names {
		s := w.Library.Schema(name)
		if len(s.Steps) != p.S {
			t.Errorf("%s has %d steps, want %d", name, len(s.Steps), p.S)
		}
		if terms := s.TerminalSteps(); len(terms) != p.F {
			t.Errorf("%s has %d terminal steps, want %d", name, len(terms), p.F)
		}
		if starts := s.StartSteps(); len(starts) != 1 {
			t.Errorf("%s has %d start steps, want 1", name, len(starts))
		}
		for _, st := range s.StepList() {
			if len(st.EligibleAgents) != p.A {
				t.Errorf("%s.%s has %d eligible agents, want %d", name, st.ID, len(st.EligibleAgents), p.A)
			}
		}
		if len(s.AbortCompensate) != p.W {
			t.Errorf("%s abort set = %d, want %d", name, len(s.AbortCompensate), p.W)
		}
	}
	if err := w.Library.Validate(); err != nil {
		t.Fatal(err)
	}
	// Coordination specs exist for ro, me and rd.
	kinds := map[model.CoordKind]int{}
	for _, c := range w.Library.Coord {
		kinds[c.Kind]++
	}
	if kinds[model.RelativeOrder] == 0 || kinds[model.Mutex] == 0 || kinds[model.RollbackDep] == 0 {
		t.Errorf("coordination kinds = %v", kinds)
	}
}

func TestGenerateValidation(t *testing.T) {
	p := smallParams()
	p.S = 1
	if _, err := Generate(p, 1); err == nil {
		t.Error("s < 2 should fail")
	}
	p = smallParams()
	p.F = p.S
	if _, err := Generate(p, 1); err == nil {
		t.Error("f >= s should fail")
	}
}

func TestDeterminism(t *testing.T) {
	p := smallParams()
	w1, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Same seeds: identical eligibility, plans and failure decisions.
	for _, name := range w1.Library.Names() {
		s1, s2 := w1.Library.Schema(name), w2.Library.Schema(name)
		for _, id := range s1.Order {
			a1, a2 := s1.Steps[id].EligibleAgents, s2.Steps[id].EligibleAgents
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("eligibility differs for %s.%s", name, id)
				}
			}
		}
	}
	for i := 0; i < 50; i++ {
		if w1.PlanFor("WF01", i) != w2.PlanFor("WF01", i) {
			t.Fatalf("plan differs for instance %d", i)
		}
		if w1.shouldFail("WF01", "S2", i, 1) != w2.shouldFail("WF01", "S2", i, 1) {
			t.Fatalf("failure injection differs for instance %d", i)
		}
	}
	// Different seed changes something.
	w3, _ := Generate(p, 8)
	diff := false
	for i := 0; i < 200 && !diff; i++ {
		if w1.shouldFail("WF01", "S2", i, 1) != w3.shouldFail("WF01", "S2", i, 1) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical failure injection")
	}
}

func TestFailureInjectionRate(t *testing.T) {
	p := smallParams()
	p.PF = 0.2
	w, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	n, fails := 0, 0
	for i := 0; i < 2000; i++ {
		n++
		if w.shouldFail("WF01", "S3", i, 1) {
			fails++
		}
	}
	rate := float64(fails) / float64(n)
	if rate < 0.15 || rate > 0.25 {
		t.Errorf("failure rate = %g, want about 0.2", rate)
	}
	// Retries never fail.
	for i := 0; i < 100; i++ {
		if w.shouldFail("WF01", "S3", i, 2) {
			t.Fatal("retry failed")
		}
	}
}

func TestPlanRates(t *testing.T) {
	p := smallParams()
	p.PA, p.PI = 0.1, 0.1
	w, _ := Generate(p, 5)
	aborts, edits := 0, 0
	const n = 3000
	for i := 0; i < n; i++ {
		pl := w.PlanFor("WF01", i)
		if pl.Abort {
			aborts++
		}
		if pl.ChangeInputs {
			edits++
		}
		if pl.Abort && pl.ChangeInputs {
			t.Fatal("plan has both actions")
		}
	}
	if ar := float64(aborts) / n; ar < 0.07 || ar > 0.13 {
		t.Errorf("abort rate = %g, want about 0.1", ar)
	}
	if er := float64(edits) / n; er < 0.07 || er > 0.13 {
		t.Errorf("edit rate = %g, want about 0.1", er)
	}
}

func TestAgentNames(t *testing.T) {
	names := AgentNames(3)
	if len(names) != 3 || names[0] != "agent01" || names[2] != "agent03" {
		t.Errorf("AgentNames = %v", names)
	}
}

// driveOn runs the workload on one architecture and sanity-checks totals.
func driveOn(t *testing.T, name string, target Target, col *metrics.Collector, w *Workload, instances int) *Result {
	t.Helper()
	res, err := Drive(target, w, instances, 30*time.Second)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := len(w.Library.Names()) * instances
	if res.Instances != want {
		t.Fatalf("%s: started %d instances, want %d", name, res.Instances, want)
	}
	if res.Committed+res.Aborted != want {
		t.Fatalf("%s: %d committed + %d aborted != %d", name, res.Committed, res.Aborted, want)
	}
	if col.Messages(metrics.Normal) == 0 {
		t.Errorf("%s: no normal messages recorded", name)
	}
	return res
}

func TestDriveCentral(t *testing.T) {
	p := smallParams()
	w, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	sys, err := central.NewSystem(central.SystemConfig{
		Library:   w.Library,
		Programs:  w.Programs,
		Collector: col,
		Agents:    w.Agents,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := driveOn(t, "central", sys, col, w, 5)
	if res.Committed == 0 {
		t.Error("nothing committed")
	}
	// Coordination costs no messages in centralized control.
	if col.Messages(metrics.Coordination) != 0 {
		t.Errorf("central coordination messages = %d", col.Messages(metrics.Coordination))
	}
}

func TestDriveParallel(t *testing.T) {
	p := smallParams()
	w, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	sys, err := central.NewSystem(central.SystemConfig{
		Library:   w.Library,
		Programs:  w.Programs,
		Collector: col,
		Engines:   3,
		Agents:    w.Agents,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := driveOn(t, "parallel", sys, col, w, 5)
	if res.Committed == 0 {
		t.Error("nothing committed")
	}
}

func TestDriveDistributed(t *testing.T) {
	p := smallParams()
	w, err := Generate(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	sys, err := distributed.NewSystem(distributed.SystemConfig{
		Library:   w.Library,
		Programs:  w.Programs,
		Collector: col,
		Agents:    w.Agents,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := driveOn(t, "distributed", sys, col, w, 5)
	if res.Committed == 0 {
		t.Error("nothing committed")
	}
	// The headline scalability property: the most loaded node in the
	// distributed deployment carries far less than a central engine would.
	_, maxLoad := col.MaxNodeLoad(metrics.Normal)
	total := col.TotalLoad(metrics.Normal)
	if maxLoad*2 > total {
		t.Errorf("distributed load concentrated: max=%d total=%d", maxLoad, total)
	}
}

var _ Target = (*central.System)(nil)
var _ Target = (*distributed.System)(nil)

var _ = wfdb.Running // keep import for clarity of driver contract
