package nav

import (
	"reflect"
	"testing"

	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/wfdb"
)

// The decisions the engine and the agent both take, as functions of (schema,
// instance, inputs): each placement keeps only what it does with the answer.

func TestAbortCandidates(t *testing.T) {
	comp := func(b *model.Builder) *model.Builder {
		return b.
			Step("A", "p", model.WithCompensation("ca")).
			Step("B", "p").
			NestedStep("N", "Child").
			Step("C", "p", model.WithCompensation("cc")).
			Seq("A", "B", "N", "C")
	}
	for _, tc := range []struct {
		name   string
		schema *model.Schema
		want   []model.StepID
	}{
		{"every compensable step in definition order, nested steps included",
			comp(model.NewSchema("W")).MustBuild(), []model.StepID{"A", "N", "C"}},
		{"the schema's own list wins, in its order",
			comp(model.NewSchema("W")).AbortCompensate("C", "A").MustBuild(), []model.StepID{"C", "A"}},
		{"nothing compensable",
			model.NewSchema("W").Step("A", "p").MustBuild(), nil},
	} {
		if got := AbortCandidates(tc.schema); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestInputChange(t *testing.T) {
	// B and C run in parallel after A; C is declared first, so definition
	// order and topological order agree only on A.
	s := model.NewSchema("W", "I1", "I2", "I3").
		Step("A", "p", model.WithInputs("WF.I1")).
		Step("C", "p", model.WithInputs("WF.I2")).
		Step("B", "p", model.WithInputs("WF.I2", "WF.I1"), model.WithOutputs("O1")).
		Step("D", "p", model.WithInputs("B.O1")).
		Arc("A", "B").Arc("A", "C").Arc("B", "D").
		MustBuild()
	vals := func(kv ...any) map[string]expr.Value {
		m := make(map[string]expr.Value)
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = expr.Num(float64(kv[i+1].(int)))
		}
		return m
	}
	first := func(ids ...model.StepID) model.StepID {
		for _, id := range s.TopoOrder() {
			for _, want := range ids {
				if id == want {
					return id
				}
			}
		}
		return ""
	}
	for _, tc := range []struct {
		name    string
		inputs  map[string]expr.Value
		changed map[string]expr.Value
		origin  model.StepID
	}{
		{"same values change nothing", vals("I1", 1, "I2", 2), vals(), ""},
		{"no inputs at all", nil, vals(), ""},
		{"the first consumer in topological order", vals("I1", 9), vals("WF.I1", 9), "A"},
		{"unchanged items are not reported", vals("I1", 1, "I2", 7), vals("WF.I2", 7), first("B", "C")},
		{"an input nobody reads changes data and rolls nothing back", vals("I3", 5), vals("WF.I3", 5), ""},
		{"an input with no value yet counts as changed", vals("I3", 0), vals("WF.I3", 0), ""},
		{"several changes roll back to the earliest consumer", vals("I2", 7, "I1", 9), vals("WF.I1", 9, "WF.I2", 7), "A"},
	} {
		ins := wfdb.NewInstance("W", 1, vals("I1", 1, "I2", 2))
		before := len(ins.Data)
		changed, origin := InputChange(s, ins, tc.inputs)
		if !reflect.DeepEqual(changed, tc.changed) || origin != tc.origin {
			t.Errorf("%s: changed %v origin %q, want %v %q", tc.name, changed, origin, tc.changed, tc.origin)
		}
		if v := ins.Data["WF.I1"]; len(ins.Data) != before || !v.Equal(expr.Num(1)) {
			t.Errorf("%s: the instance was modified: %v", tc.name, ins.Data)
		}
	}
}

func TestNestedMapping(t *testing.T) {
	child := model.NewSchema("Child", "X", "Y").
		Step("C1", "p", model.WithOutputs("O1")).
		Step("T1", "p", model.WithOutputs("O1")).
		Step("T2", "p", model.WithOutputs("O1", "O2")).
		Arc("C1", "T1").Arc("C1", "T2").
		MustBuild()
	nested := func(in []string, out ...string) *model.Step {
		return &model.Step{ID: "N", Nested: "Child", Inputs: in, Outputs: out}
	}
	ins := wfdb.NewInstance("Parent", 1, map[string]expr.Value{"I1": expr.Num(1)})
	ins.Data["P.O1"] = expr.Str("p")

	for _, tc := range []struct {
		name string
		in   []string
		want map[string]expr.Value
	}{
		{"positional", []string{"P.O1", "WF.I1"}, map[string]expr.Value{"X": expr.Str("p"), "Y": expr.Num(1)}},
		{"an input with no value yet is left out", []string{"P.O9", "WF.I1"}, map[string]expr.Value{"Y": expr.Num(1)}},
		{"inputs beyond the child's are dropped", []string{"WF.I1", "P.O1", "WF.I1"}, map[string]expr.Value{"X": expr.Num(1), "Y": expr.Str("p")}},
		{"fewer inputs than the child declares", []string{"WF.I1"}, map[string]expr.Value{"X": expr.Num(1)}},
		{"none", nil, map[string]expr.Value{}},
	} {
		if got := NestedInputs(nested(tc.in), child, ins); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("inputs, %s: %v, want %v", tc.name, got, tc.want)
		}
	}

	for _, tc := range []struct {
		name string
		out  []string
		data map[string]expr.Value
		want map[string]expr.Value
	}{
		{"the first terminal that produced the output",
			[]string{"O1", "O2"},
			map[string]expr.Value{"T1.O1": expr.Num(1), "T2.O1": expr.Num(2), "T2.O2": expr.Num(3)},
			map[string]expr.Value{"O1": expr.Num(1), "O2": expr.Num(3)}},
		{"a later terminal when the first did not run",
			[]string{"O1"},
			map[string]expr.Value{"T2.O1": expr.Num(2)},
			map[string]expr.Value{"O1": expr.Num(2)}},
		{"only terminal steps count",
			[]string{"O1"},
			map[string]expr.Value{"C1.O1": expr.Num(9)},
			map[string]expr.Value{}},
		{"no outputs", nil, map[string]expr.Value{"T1.O1": expr.Num(1)}, map[string]expr.Value{}},
	} {
		if got := NestedOutputs(nested(nil, tc.out...), child, tc.data); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("outputs, %s: %v, want %v", tc.name, got, tc.want)
		}
	}
}
