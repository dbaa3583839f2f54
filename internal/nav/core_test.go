package nav

import (
	"fmt"
	"reflect"
	"testing"

	"crew/internal/coord"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/rules"
	"crew/internal/wfdb"
)

// fakeOwner is a placement that records every decision the core hands it.
type fakeOwner struct {
	Inst
	col    *metrics.Collector
	calls  []string
	busy   map[model.StepID]bool // MayRun refuses these
	alien  bool                  // Revisits refuses every result
	retire bool                  // Run retires the instance
}

func newFake(t *testing.T, s *model.Schema) *fakeOwner {
	t.Helper()
	col := metrics.NewCollector()
	f := &fakeOwner{col: col, busy: map[model.StepID]bool{}}
	f.Inst = NewInst(wfdb.NewInstance(s.Name, 1, nil), s, &Site{
		Name:        "me",
		Rec:         col.Node("me"),
		Coordinated: map[model.StepRef]bool{},
		Logf:        t.Logf,
	})
	rules.InstallSchemaRules(f.Rules, s)
	f.Rules.Bind(f.Ins.Events)
	return f
}

func (f *fakeOwner) log(format string, args ...any) {
	f.calls = append(f.calls, fmt.Sprintf(format, args...))
}

var short = map[metrics.Mechanism]string{
	metrics.Normal: "normal", metrics.InputChange: "input", metrics.Failure: "failure",
}

func (f *fakeOwner) Stopped() bool                  { return false }
func (f *fakeOwner) MayRun(step model.StepID) bool  { return !f.busy[step] }
func (f *fakeOwner) Revisits(*wfdb.StepRecord) bool { return !f.alien }
func (f *fakeOwner) Run(step model.StepID, _ map[string]expr.Value, mech metrics.Mechanism) bool {
	f.log("run %s %s", step, short[mech])
	f.Retired = f.retire
	return false
}
func (f *fakeOwner) CompleteCR(step model.StepID, mech metrics.Mechanism) bool {
	f.log("complete %s %s", step, short[mech])
	return false
}
func (f *fakeOwner) IncrementalCR(step model.StepID, _ map[string]expr.Value, mech metrics.Mechanism) bool {
	f.log("incremental %s %s", step, short[mech])
	return false
}
func (f *fakeOwner) Done(step model.StepID, mech metrics.Mechanism) {
	f.log("done %s %s", step, short[mech])
}
func (f *fakeOwner) Loop(head model.StepID, body []model.StepID) bool {
	f.log("loop %s %v", head, body)
	return true
}
func (f *fakeOwner) Settle() {}
func (f *fakeOwner) ToHome(req coord.Request) {
	if req.Op == coord.Check && req.ReplyTo == "me" {
		f.log("check %s", req.Ref.Step)
	}
}

// charges lists the load the core charged at the fake's node, by mechanism.
func (f *fakeOwner) charges() map[metrics.Mechanism]int64 {
	out := map[metrics.Mechanism]int64{}
	for _, m := range []metrics.Mechanism{metrics.Normal, metrics.InputChange, metrics.Abort, metrics.Failure, metrics.Coordination} {
		if n := f.col.NodeLoad("me", m); n > 0 {
			out[m] = n
		}
	}
	return out
}

// pair is A -> B, B reading A's output; B has a compensation.
func pair(incremental bool) *model.Schema {
	opts := []model.StepOption{model.WithInputs("A.O1"), model.WithOutputs("O1"), model.WithCompensation("cb")}
	if incremental {
		opts = append(opts, model.WithIncremental())
	}
	return model.NewSchema("P").
		Step("A", "pa", model.WithOutputs("O1")).
		Step("B", "pb", opts...).
		Seq("A", "B").
		OnFailure("B", "A", 2).
		MustBuild()
}

// TestCoreAdmit drives one fired step through the core: the admission guard, the
// coordination gate, and the OCR decision of a revisit with its one charge.
func TestCoreAdmit(t *testing.T) {
	for _, tc := range []struct {
		name        string
		incremental bool
		setup       func(f *fakeOwner)
		want        []string
		changed     bool
		charges     map[metrics.Mechanism]int64
	}{
		{
			name:  "first visit runs fresh",
			setup: func(f *fakeOwner) {},
			want:  []string{"run B normal"},
		},
		{
			name:  "guard refuses",
			setup: func(f *fakeOwner) { f.busy["B"] = true },
		},
		{
			name: "gate asks the home",
			setup: func(f *fakeOwner) {
				f.Site.Coordinated[model.StepRef{Workflow: "P", Step: "B"}] = true
			},
			want: []string{"check B"},
		},
		{
			name: "gate blocks on a missing wait event",
			setup: func(f *fakeOwner) {
				f.Site.Coordinated[model.StepRef{Workflow: "P", Step: "B"}] = true
				f.Gate.Resolved("B", []string{"mx:m:B"})
			},
		},
		{
			name: "gate open",
			setup: func(f *fakeOwner) {
				f.Site.Coordinated[model.StepRef{Workflow: "P", Step: "B"}] = true
				f.Gate.Resolved("B", []string{"mx:m:B"})
				f.Ins.Events.Post("mx:m:B")
			},
			want: []string{"run B normal"},
		},
		{
			name:    "unchanged inputs reuse",
			setup:   func(f *fakeOwner) { revisit(f, 1) },
			want:    []string{"done B failure"},
			changed: true,
			charges: map[metrics.Mechanism]int64{metrics.Failure: 1},
		},
		{
			name:    "changed inputs compensate completely",
			setup:   func(f *fakeOwner) { revisit(f, 2) },
			want:    []string{"complete B failure"},
			charges: map[metrics.Mechanism]int64{metrics.Failure: 1},
		},
		{
			name:        "changed inputs of an incremental step compensate partially",
			incremental: true,
			setup:       func(f *fakeOwner) { revisit(f, 2) },
			want:        []string{"incremental B failure"},
			charges:     map[metrics.Mechanism]int64{metrics.Failure: 1},
		},
		{
			name: "a revisit is charged to the recovery under way",
			setup: func(f *fakeOwner) {
				revisit(f, 2)
				f.Recovery = metrics.InputChange
			},
			want:    []string{"complete B input"},
			charges: map[metrics.Mechanism]int64{metrics.InputChange: 1},
		},
		{
			name: "DisableOCR forces complete compensation",
			setup: func(f *fakeOwner) {
				revisit(f, 1)
				f.Site.DisableOCR = true
			},
			want:    []string{"complete B failure"},
			charges: map[metrics.Mechanism]int64{metrics.Failure: 1},
		},
		{
			name: "a result the owner does not revisit runs fresh",
			setup: func(f *fakeOwner) {
				revisit(f, 2)
				f.alien = true
			},
			want: []string{"run B failure"},
		},
		{
			name: "a retired instance admits nothing",
			setup: func(f *fakeOwner) {
				f.Retired = true
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake(t, pair(tc.incremental))
			f.Ins.RecordDone("A", map[string]expr.Value{"O1": expr.Num(1)})
			tc.setup(f)
			if got := Admit(f, "B"); got != tc.changed {
				t.Errorf("Admit = %v, want %v", got, tc.changed)
			}
			if !reflect.DeepEqual(f.calls, tc.want) {
				t.Errorf("calls = %q, want %q", f.calls, tc.want)
			}
			if tc.charges == nil {
				tc.charges = map[metrics.Mechanism]int64{}
			}
			if got := f.charges(); !reflect.DeepEqual(got, tc.charges) {
				t.Errorf("charges = %v, want %v", got, tc.charges)
			}
			if tc.changed && !f.Ins.Executed("B") {
				t.Error("a reused step is not recorded done")
			}
		})
	}
}

// revisit gives B a previous result computed from A.O1 = 1, and sets A.O1 to
// now: B is revisited after a rollback.
func revisit(f *fakeOwner, now float64) {
	f.Ins.RecordExecuting("B", "me", map[string]expr.Value{"A.O1": expr.Num(1)})
	f.Ins.RecordDone("B", map[string]expr.Value{"O1": expr.Num(10)})
	f.Ins.ResetStepEvents("B")
	f.Ins.Steps["B"].Status = wfdb.StepPending
	f.Ins.Data["A.O1"] = expr.Num(now)
	f.Recovery = metrics.Failure
}

func TestCoreLoopBackResetsBody(t *testing.T) {
	s := model.NewSchema("L").
		Step("A", "pa").
		Step("B", "pb", model.WithOutputs("O1")).
		Step("E", "pe").
		Seq("A", "B", "E").
		LoopArc("B", "A", "B.O1 < 3").
		MustBuild()
	for _, tc := range []struct {
		o1    float64
		want  []string
		reset bool
	}{
		{1, []string{"loop A [A B]"}, true},
		{3, nil, false},
	} {
		f := newFake(t, s)
		f.Ins.RecordDone("A", nil)
		f.Ins.RecordDone("B", map[string]expr.Value{"O1": expr.Num(tc.o1)})
		if stopped := LoopBack(f, "B"); stopped {
			t.Errorf("B.O1=%v: LoopBack stopped, but the owner's Loop goes on", tc.o1)
		}
		if !reflect.DeepEqual(f.calls, tc.want) {
			t.Errorf("B.O1=%v: calls = %q, want %q", tc.o1, f.calls, tc.want)
		}
		for _, id := range []model.StepID{"A", "B"} {
			rec := f.Ins.Steps[id]
			if reset := !rec.HasResult && !f.Ins.Events.Has(event.DoneName(string(id))); reset != tc.reset {
				t.Errorf("B.O1=%v: step %s reset = %v, want %v", tc.o1, id, reset, tc.reset)
			}
		}
		if want := map[metrics.Mechanism]int64{}; tc.reset {
			if got := f.charges(); got[metrics.Normal] != 1 {
				t.Errorf("B.O1=%v: loop charged %v, want one Normal unit", tc.o1, got)
			}
		} else if got := f.charges(); !reflect.DeepEqual(got, want) {
			t.Errorf("B.O1=%v: charged %v, want nothing", tc.o1, got)
		}
	}
}

// TestCoreRetryRollsBackThenAborts covers the failure policy and the rollback
// it leads to.
func TestCoreRetryRollsBackThenAborts(t *testing.T) {
	f := newFake(t, pair(false))
	for attempt := 1; attempt <= 3; attempt++ {
		f.Recovery = metrics.Normal
		target, ok := f.Retry("B")
		if wantOK := attempt <= 2; ok != wantOK {
			t.Fatalf("failure %d: Retry ok = %v, want %v", attempt, ok, wantOK)
		}
		if ok && (target != "A" || f.Recovery != metrics.Failure) {
			t.Errorf("failure %d: Retry = %q in %v recovery, want A in Failure", attempt, target, f.Recovery)
		}
	}
	if _, ok := f.Retry("A"); ok {
		t.Error("a step without a failure policy must abort")
	}
	f.Ins.RecordDone("A", nil)
	f.Ins.RecordDone("B", nil)
	if all := f.Rollback("A", metrics.InputChange); !reflect.DeepEqual(all, []model.StepID{"B", "A"}) {
		t.Errorf("Rollback(A) reset %v, want [B A]", all)
	}
	if f.Recovery != metrics.InputChange || f.Ins.Executed("A") || f.Ins.Executed("B") {
		t.Errorf("after Rollback(A): recovery %v, A done %v, B done %v", f.Recovery, f.Ins.Executed("A"), f.Ins.Executed("B"))
	}
	if got := f.charges(); !reflect.DeepEqual(got, map[metrics.Mechanism]int64{metrics.InputChange: 2}) {
		t.Errorf("Rollback(A) charged %v, want one unit per reset step plus one", got)
	}
}

// TestCoreRetiredStopsRuleLoop: the rules of two start steps fire in one
// pass, and running A retires the instance; the core must not run B.
func TestCoreRetiredStopsRuleLoop(t *testing.T) {
	s := model.NewSchema("Two").
		Step("A", "pa").
		Step("B", "pb").
		MustBuild()
	for _, retire := range []bool{false, true} {
		f := newFake(t, s)
		f.retire = retire
		f.Ins.Events.Post(event.WorkflowStartName)
		Evaluate(f)
		want := []string{"run A normal", "run B normal"}
		if retire {
			want = want[:1]
		}
		if !reflect.DeepEqual(f.calls, want) {
			t.Errorf("retire=%v: calls = %q, want %q", retire, f.calls, want)
		}
	}
}
