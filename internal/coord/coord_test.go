package coord

import (
	"testing"

	"crew/internal/model"
)

// libWithOrder builds two order-processing classes with a two-pair
// relative-order spec — the paper's Figure 2 scenario (S12/S23 and S14/S25).
func libWithOrder(t *testing.T) *model.Library {
	t.Helper()
	wf1 := model.NewSchema("WF1").
		Step("S11", "p").Step("S12", "p").Step("S13", "p").Step("S14", "p").
		Seq("S11", "S12", "S13", "S14").
		MustBuild()
	wf2 := model.NewSchema("WF2").
		Step("S21", "p").Step("S23", "p").Step("S24", "p").Step("S25", "p").
		Seq("S21", "S23", "S24", "S25").
		MustBuild()
	lib := model.NewLibrary()
	lib.Add(wf1)
	lib.Add(wf2)
	lib.AddCoord(model.CoordSpec{
		Kind: model.RelativeOrder,
		Name: "orders",
		Pairs: []model.ConflictPair{
			{A: model.StepRef{Workflow: "WF1", Step: "S12"}, B: model.StepRef{Workflow: "WF2", Step: "S23"}},
			{A: model.StepRef{Workflow: "WF1", Step: "S14"}, B: model.StepRef{Workflow: "WF2", Step: "S25"}},
		},
	})
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	return lib
}

func libWithMutex(t *testing.T) *model.Library {
	t.Helper()
	a := model.NewSchema("A").Step("S1", "p").Step("S2", "p").Seq("S1", "S2").MustBuild()
	b := model.NewSchema("B").Step("T1", "p").Step("T2", "p").Seq("T1", "T2").MustBuild()
	lib := model.NewLibrary()
	lib.Add(a)
	lib.Add(b)
	lib.AddCoord(model.CoordSpec{
		Kind: model.Mutex,
		Name: "inv",
		MutexSteps: []model.StepRef{
			{Workflow: "A", Step: "S2"},
			{Workflow: "B", Step: "T2"},
		},
	})
	return lib
}

func TestRelativeOrderEstablishment(t *testing.T) {
	lib := libWithOrder(t)
	tr := NewTracker(lib)
	i1 := InstanceRef{Workflow: "WF1", ID: 1}
	i2 := InstanceRef{Workflow: "WF2", ID: 1}

	// WF2 completes its pair-0 step first: it becomes leading.
	inj := tr.OrderStepDone(model.StepRef{Workflow: "WF2", Step: "S23"}, i2)
	if len(inj) != 0 {
		t.Errorf("first enrollment should not notify anyone: %v", inj)
	}
	inj = tr.OrderStepDone(model.StepRef{Workflow: "WF1", Step: "S12"}, i1)
	if len(inj) != 0 {
		t.Errorf("second enrollment should not notify (pair-0 already done by leader): %v", inj)
	}
	q := tr.OrderQueue("orders")
	if len(q) != 2 || q[0] != i2 || q[1] != i1 {
		t.Errorf("queue = %v", q)
	}
	if tr.OrderQueue("nope") != nil {
		t.Error("unknown spec queue should be nil")
	}
}

func TestRelativeOrderLaggingWaits(t *testing.T) {
	lib := libWithOrder(t)
	tr := NewTracker(lib)
	i1 := InstanceRef{Workflow: "WF1", ID: 1}
	i2 := InstanceRef{Workflow: "WF2", ID: 1}

	tr.OrderStepDone(model.StepRef{Workflow: "WF2", Step: "S23"}, i2) // leader
	tr.OrderStepDone(model.StepRef{Workflow: "WF1", Step: "S12"}, i1) // lagging

	// Lagging WF1.1 wants to execute S14 (pair 1): must wait for the leader.
	waits := tr.OrderWait(model.StepRef{Workflow: "WF1", Step: "S14"}, i1)
	if len(waits) != 1 {
		t.Fatalf("waits = %v", waits)
	}
	want := OrderEventName("orders", 1, i2)
	if waits[0] != want {
		t.Errorf("wait event = %q, want %q", waits[0], want)
	}

	// Leading instance never waits.
	if w := tr.OrderWait(model.StepRef{Workflow: "WF2", Step: "S25"}, i2); len(w) != 0 {
		t.Errorf("leader waits = %v", w)
	}

	// Leader completes pair-1 step: injection targets the lagging instance.
	inj := tr.OrderStepDone(model.StepRef{Workflow: "WF2", Step: "S25"}, i2)
	if len(inj) != 1 || inj[0].Target != i1 || inj[0].Event != want {
		t.Errorf("injections = %v", inj)
	}

	// After the event, the lagging instance no longer waits.
	if w := tr.OrderWait(model.StepRef{Workflow: "WF1", Step: "S14"}, i1); len(w) != 0 {
		t.Errorf("waits after leader done = %v", w)
	}
}

func TestRelativeOrderPairStepOfUnknownClassIgnored(t *testing.T) {
	lib := libWithOrder(t)
	tr := NewTracker(lib)
	i9 := InstanceRef{Workflow: "WF9", ID: 1}
	if inj := tr.OrderStepDone(model.StepRef{Workflow: "WF9", Step: "SX"}, i9); len(inj) != 0 {
		t.Errorf("unrelated step produced injections: %v", inj)
	}
	if w := tr.OrderWait(model.StepRef{Workflow: "WF9", Step: "SX"}, i9); len(w) != 0 {
		t.Errorf("unrelated step produced waits: %v", w)
	}
}

func TestRelativeOrderLaterPairWithoutEnrollment(t *testing.T) {
	lib := libWithOrder(t)
	tr := NewTracker(lib)
	i1 := InstanceRef{Workflow: "WF1", ID: 1}
	// Completing pair-1 without pair-0 does not enroll.
	tr.OrderStepDone(model.StepRef{Workflow: "WF1", Step: "S14"}, i1)
	if q := tr.OrderQueue("orders"); len(q) != 0 {
		t.Errorf("queue = %v, want empty", q)
	}
}

func TestRelativeOrderThreeInstancesChain(t *testing.T) {
	lib := libWithOrder(t)
	tr := NewTracker(lib)
	a := InstanceRef{Workflow: "WF1", ID: 1}
	b := InstanceRef{Workflow: "WF2", ID: 1}
	c := InstanceRef{Workflow: "WF1", ID: 2}
	tr.OrderStepDone(model.StepRef{Workflow: "WF1", Step: "S12"}, a)
	tr.OrderStepDone(model.StepRef{Workflow: "WF2", Step: "S23"}, b)
	tr.OrderStepDone(model.StepRef{Workflow: "WF1", Step: "S12"}, c)

	// c waits on b (its immediate predecessor), not on a.
	waits := tr.OrderWait(model.StepRef{Workflow: "WF1", Step: "S14"}, c)
	if len(waits) != 1 || waits[0] != OrderEventName("orders", 1, b) {
		t.Errorf("waits = %v", waits)
	}
	// b waits on a.
	waits = tr.OrderWait(model.StepRef{Workflow: "WF2", Step: "S25"}, b)
	if len(waits) != 1 || waits[0] != OrderEventName("orders", 1, a) {
		t.Errorf("waits = %v", waits)
	}
}

func TestOrderForget(t *testing.T) {
	lib := libWithOrder(t)
	tr := NewTracker(lib)
	a := InstanceRef{Workflow: "WF1", ID: 1}
	b := InstanceRef{Workflow: "WF2", ID: 1}
	tr.OrderStepDone(model.StepRef{Workflow: "WF1", Step: "S12"}, a)
	tr.OrderStepDone(model.StepRef{Workflow: "WF2", Step: "S23"}, b)

	// Leader a vanishes (aborted): successor b gets released for pair 1.
	inj := tr.OrderForget(a)
	if len(inj) != 1 || inj[0].Target != b || inj[0].Event != OrderEventName("orders", 1, a) {
		t.Errorf("forget injections = %v", inj)
	}
	q := tr.OrderQueue("orders")
	if len(q) != 1 || q[0] != b {
		t.Errorf("queue after forget = %v", q)
	}
	// Forgetting an unenrolled instance is a no-op.
	if inj := tr.OrderForget(InstanceRef{Workflow: "WF1", ID: 99}); len(inj) != 0 {
		t.Errorf("no-op forget = %v", inj)
	}
}

func TestMutexAcquireRelease(t *testing.T) {
	lib := libWithMutex(t)
	tr := NewTracker(lib)
	a1 := InstanceRef{Workflow: "A", ID: 1}
	b1 := InstanceRef{Workflow: "B", ID: 1}
	refA := model.StepRef{Workflow: "A", Step: "S2"}
	refB := model.StepRef{Workflow: "B", Step: "T2"}

	grants, waits := tr.MutexAcquire(refA, a1)
	if len(grants) != 1 || len(waits) != 1 {
		t.Fatalf("first acquire = (%v, %v)", grants, waits)
	}
	if grants[0].Event != GrantEventName("inv", a1, "S2") {
		t.Errorf("grant event = %q", grants[0].Event)
	}

	// Second acquirer queues.
	grants2, waits2 := tr.MutexAcquire(refB, b1)
	if len(grants2) != 0 || len(waits2) != 1 {
		t.Fatalf("second acquire = (%v, %v)", grants2, waits2)
	}

	// Releasing grants to the waiter.
	rel := tr.MutexRelease(refA, a1)
	if len(rel) != 1 || rel[0].Target != b1 || rel[0].Event != GrantEventName("inv", b1, "T2") {
		t.Errorf("release = %v", rel)
	}
	// Release by the new holder with no waiters frees the lock.
	if rel := tr.MutexRelease(refB, b1); len(rel) != 0 {
		t.Errorf("final release = %v", rel)
	}
	// Lock is free again.
	grants3, _ := tr.MutexAcquire(refA, a1)
	if len(grants3) != 1 {
		t.Error("lock not free after releases")
	}
}

func TestMutexReacquireByHolderIsIdempotent(t *testing.T) {
	lib := libWithMutex(t)
	tr := NewTracker(lib)
	a1 := InstanceRef{Workflow: "A", ID: 1}
	refA := model.StepRef{Workflow: "A", Step: "S2"}
	tr.MutexAcquire(refA, a1)
	grants, _ := tr.MutexAcquire(refA, a1)
	if len(grants) != 1 {
		t.Errorf("re-acquire by holder should re-grant: %v", grants)
	}
}

func TestMutexReleaseByNonHolderIgnored(t *testing.T) {
	lib := libWithMutex(t)
	tr := NewTracker(lib)
	a1 := InstanceRef{Workflow: "A", ID: 1}
	b1 := InstanceRef{Workflow: "B", ID: 1}
	tr.MutexAcquire(model.StepRef{Workflow: "A", Step: "S2"}, a1)
	if rel := tr.MutexRelease(model.StepRef{Workflow: "B", Step: "T2"}, b1); len(rel) != 0 {
		t.Errorf("non-holder release = %v", rel)
	}
	// Lock still held by a1.
	_, waits := tr.MutexAcquire(model.StepRef{Workflow: "B", Step: "T2"}, b1)
	if len(waits) != 1 {
		t.Error("lock should still be held")
	}
}

func TestMutexForget(t *testing.T) {
	lib := libWithMutex(t)
	tr := NewTracker(lib)
	a1 := InstanceRef{Workflow: "A", ID: 1}
	b1 := InstanceRef{Workflow: "B", ID: 1}
	tr.MutexAcquire(model.StepRef{Workflow: "A", Step: "S2"}, a1)
	tr.MutexAcquire(model.StepRef{Workflow: "B", Step: "T2"}, b1) // queued

	inj := tr.MutexForget(a1)
	if len(inj) != 1 || inj[0].Target != b1 {
		t.Errorf("forget should grant to waiter: %v", inj)
	}
	// Forgetting a waiter removes it from the queue.
	a2 := InstanceRef{Workflow: "A", ID: 2}
	tr.MutexAcquire(model.StepRef{Workflow: "A", Step: "S2"}, a2) // queued behind b1
	if inj := tr.MutexForget(a2); len(inj) != 0 {
		t.Errorf("forgetting waiter should not grant: %v", inj)
	}
	rel := tr.MutexRelease(model.StepRef{Workflow: "B", Step: "T2"}, b1)
	if len(rel) != 0 {
		t.Errorf("queue should be empty after waiter forgotten: %v", rel)
	}
}

func TestRollbackTriggered(t *testing.T) {
	lib := libWithOrder(t)
	lib.AddCoord(model.CoordSpec{
		Kind:    model.RollbackDep,
		Name:    "dep",
		Trigger: model.StepRef{Workflow: "WF1", Step: "S13"},
		Target:  model.StepRef{Workflow: "WF2", Step: "S23"},
	})
	tr := NewTracker(lib)

	orders := tr.RollbackTriggered("WF1", []model.StepID{"S13", "S14"})
	if len(orders) != 1 || orders[0].TargetWorkflow != "WF2" || orders[0].TargetStep != "S23" {
		t.Errorf("orders = %v", orders)
	}
	// Rollback not covering the trigger: nothing.
	if got := tr.RollbackTriggered("WF1", []model.StepID{"S14"}); len(got) != 0 {
		t.Errorf("non-trigger rollback = %v", got)
	}
	// Different class: nothing.
	if got := tr.RollbackTriggered("WF2", []model.StepID{"S13"}); len(got) != 0 {
		t.Errorf("wrong class rollback = %v", got)
	}
}

func TestCoordinatedSteps(t *testing.T) {
	lib := libWithOrder(t)
	lib.AddCoord(model.CoordSpec{
		Kind:    model.RollbackDep,
		Name:    "dep",
		Trigger: model.StepRef{Workflow: "WF1", Step: "S13"},
		Target:  model.StepRef{Workflow: "WF2", Step: "S23"},
	})
	lib.AddCoord(model.CoordSpec{
		Kind: model.Mutex,
		Name: "mx",
		MutexSteps: []model.StepRef{
			{Workflow: "WF1", Step: "S11"},
			{Workflow: "WF2", Step: "S21"},
		},
	})
	tr := NewTracker(lib)
	got := tr.CoordinatedSteps()
	for _, ref := range []model.StepRef{
		{Workflow: "WF1", Step: "S12"}, {Workflow: "WF2", Step: "S23"},
		{Workflow: "WF1", Step: "S14"}, {Workflow: "WF2", Step: "S25"},
		{Workflow: "WF1", Step: "S13"}, {Workflow: "WF1", Step: "S11"},
		{Workflow: "WF2", Step: "S21"},
	} {
		if !got[ref] {
			t.Errorf("missing coordinated step %v", ref)
		}
	}
	if got[model.StepRef{Workflow: "WF1", Step: "S99"}] {
		t.Error("unexpected coordinated step")
	}
}

func TestInstanceRefString(t *testing.T) {
	if (InstanceRef{Workflow: "WF3", ID: 15}).String() != "WF3.15" {
		t.Error("InstanceRef.String wrong")
	}
}
