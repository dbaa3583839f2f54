package distributed

import (
	"reflect"
	"testing"

	"crew/internal/model"
	"crew/internal/rules"
	"crew/internal/wfdb"
)

// TestReplicaProgramIsEligibleStepRules: an agent's replicas load one
// program per schema, holding the rules of exactly the steps the agent is
// eligible for (a step naming no agents is everyone's), in schema order —
// what installing StepRules step by step gave each replica.
func TestReplicaProgramIsEligibleStepRules(t *testing.T) {
	s := model.NewSchema("Prog", "I1").
		Step("A", "p", model.WithAgents("a1")).
		Step("B", "p", model.WithAgents("a2", "a3")).
		Step("C", "p", model.WithAgents("a1", "a3")).
		Step("D", "p", model.WithJoin(model.JoinAny)).
		Step("E", "p", model.WithAgents("a2")).
		Seq("A", "B", "D").
		Seq("A", "C", "D").
		Seq("D", "E").
		MustBuild()
	sys := newSystem(t, lib1(s), model.NewRegistry())
	want := map[string][]string{
		"a1": {"exec:A", "exec:C", "exec:D", "exec:D#1"},
		"a2": {"exec:B", "exec:D", "exec:D#1", "exec:E"},
		"a3": {"exec:B", "exec:C", "exec:D", "exec:D#1"},
	}
	for name, ids := range want {
		a := sys.Agent(name)
		var first, second *rules.Program
		a.Do(func() {
			first = a.newReplica(s, wfdb.NewInstance("Prog", 1, nil)).Rules.Program()
			second = a.newReplica(s, wfdb.NewInstance("Prog", 2, nil)).Rules.Program()
		})
		if first != second {
			t.Errorf("%s: two replicas of one schema compiled two programs", name)
		}
		var got []string
		for _, r := range first.Rules() {
			got = append(got, r.ID)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Errorf("%s: program rules %v, want %v", name, got, ids)
		}
		var union []rules.Rule
		for _, id := range s.Order {
			for _, elig := range s.Steps[id].EligibleAgents {
				if elig == name {
					for _, r := range rules.StepRules(s, id) {
						union = append(union, *r)
					}
				}
			}
			if len(s.Steps[id].EligibleAgents) == 0 {
				for _, r := range rules.StepRules(s, id) {
					union = append(union, *r)
				}
			}
		}
		var compiled []rules.Rule
		for _, r := range first.Rules() {
			compiled = append(compiled, *r)
		}
		if !reflect.DeepEqual(compiled, union) {
			t.Errorf("%s: program %+v, want the union of StepRules %+v", name, compiled, union)
		}
	}
}
