package coord

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crew/internal/model"
)

// recHost records what a Home says, one line per call.
type recHost struct {
	lines   []string
	charges int
}

func (h *recHost) Charge() { h.charges++ }
func (h *recHost) Resolve(to string, r Resolve) {
	h.lines = append(h.lines, fmt.Sprintf("resolve %s %s:%s %v", to, r.Inst, r.Step, r.WaitEvents))
}
func (h *recHost) Inject(inj Injection) {
	h.lines = append(h.lines, fmt.Sprintf("inject %s %s", inj.Target, inj.Event))
}
func (h *recHost) Order(ord RollbackOrder) {
	h.lines = append(h.lines, fmt.Sprintf("order %s.%s", ord.TargetWorkflow, ord.TargetStep))
}

// homeLib has all three kinds of spec over classes A (S1, S2) and B (T1, T2):
// a relative order with pairs (S1,T1) and (S2,T2), a mutex over S2 and T2,
// and a rollback dependency from A.S1 to B.T1.
func homeLib() *model.Library {
	lib := simOrderLib()
	lib.AddCoord(model.CoordSpec{Kind: model.Mutex, Name: "mx", MutexSteps: []model.StepRef{
		{Workflow: "A", Step: "S2"}, {Workflow: "B", Step: "T2"},
	}})
	lib.AddCoord(model.CoordSpec{Kind: model.RollbackDep, Name: "rd",
		Trigger: model.StepRef{Workflow: "A", Step: "S1"}, Target: model.StepRef{Workflow: "B", Step: "T1"}})
	return lib
}

// TestHome drives a Home through each Op against a recording host. The cases
// run in order on one home: each names the request and everything the home
// must say in answer.
func TestHome(t *testing.T) {
	a1, a2, b1 := InstanceRef{Workflow: "A", ID: 1}, InstanceRef{Workflow: "A", ID: 2}, InstanceRef{Workflow: "B", ID: 1}
	ref := func(wf string, step model.StepID) model.StepRef { return model.StepRef{Workflow: wf, Step: step} }
	req := func(op Op, inst InstanceRef, step model.StepID) Request {
		return Request{Op: op, Ref: ref(inst.Workflow, step), Inst: inst, ReplyTo: "n-" + inst.String()}
	}
	host := &recHost{}
	home := NewHome(homeLib(), host)
	steps := []struct {
		name string
		req  Request
		want []string
	}{
		{"relative order: the first pair enrolls, nobody waits", req(Check, b1, "T1"), []string{"resolve n-B.1 B.1:T1 []"}},
		{"B.1 leads", req(Done, b1, "T1"), nil},
		{"A.1 lags", req(Done, a1, "S1"), nil},
		{"the lagging instance waits for the leader's second pair and takes the free mutex", req(Check, a1, "S2"),
			[]string{"resolve n-A.1 A.1:S2 [ro:ro:1:B.1 mx:mx:A.1:S2]", "inject A.1 mx:mx:A.1:S2"}},
		{"a repeated Check by the holder is granted again", req(Check, a1, "S2"),
			[]string{"resolve n-A.1 A.1:S2 [ro:ro:1:B.1 mx:mx:A.1:S2]", "inject A.1 mx:mx:A.1:S2"}},
		{"mutex: the leader queues behind the holder", req(Check, b1, "T2"), []string{"resolve n-B.1 B.1:T2 [mx:mx:B.1:T2]"}},
		{"a repeated Check by a waiter does not queue twice", req(Check, b1, "T2"), []string{"resolve n-B.1 B.1:T2 [mx:mx:B.1:T2]"}},
		{"Failed releases the mutex to the one waiter and leaves the order queue alone", req(Failed, a1, "S2"),
			[]string{"inject B.1 mx:mx:B.1:T2"}},
		{"Done releases the successor's order wait; the mutex has no further waiter", req(Done, b1, "T2"),
			[]string{"inject A.1 ro:ro:1:B.1"}},
		{"the mutex is free again", req(Check, a1, "S2"), []string{"resolve n-A.1 A.1:S2 [mx:mx:A.1:S2]", "inject A.1 mx:mx:A.1:S2"}},
		{"rollback dependency: invalidating the trigger orders the target class back",
			Request{Op: Rollback, Ref: ref("A", ""), Invalidated: []model.StepID{"S2", "S1"}}, []string{"order B.T1"}},
		{"a rollback that spares the trigger orders nothing",
			Request{Op: Rollback, Ref: ref("A", ""), Invalidated: []model.StepID{"S2"}}, nil},
		{"a second instance queues for the mutex A.1 holds", req(Check, a2, "S2"), []string{"resolve n-A.2 A.2:S2 [mx:mx:A.2:S2]"}},
		{"Forget releases what the instance held", Request{Op: Forget, Inst: a1}, []string{"inject A.2 mx:mx:A.2:S2"}},
		{"a Check after Forget is answered with no waits", req(Check, a1, "S2"), []string{"resolve n-A.1 A.1:S2 []"}},
		{"and took no lock: A.2 still holds it", req(Check, a2, "S2"), []string{"resolve n-A.2 A.2:S2 [mx:mx:A.2:S2]", "inject A.2 mx:mx:A.2:S2"}},
		{"Done after Forget is ignored", req(Done, a1, "S1"), nil},
		{"Failed after Forget is ignored", req(Failed, a1, "S2"), nil},
		{"B.1 queues behind A.2", req(Check, b1, "T2"), []string{"resolve n-B.1 B.1:T2 [mx:mx:B.1:T2]"}},
		{"a second replica of B.1 asks too", Request{Op: Check, Ref: ref("B", "T2"), Inst: b1, ReplyTo: "n-B.1b"},
			[]string{"resolve n-B.1b B.1:T2 [mx:mx:B.1:T2]"}},
		{"Failed from one of two askers keeps the queue place",
			Request{Op: Failed, Ref: ref("B", "T2"), Inst: b1, ReplyTo: "n-B.1b"}, nil},
		{"Failed from a node that never asked changes nothing",
			Request{Op: Failed, Ref: ref("B", "T2"), Inst: b1, ReplyTo: "n-elsewhere"}, nil},
		{"so the holder's Done passes the mutex to B.1", req(Done, a2, "S2"), []string{"inject B.1 mx:mx:B.1:T2"}},
		{"A.2 queues behind B.1", req(Check, a2, "S2"), []string{"resolve n-A.2 A.2:S2 [mx:mx:A.2:S2]"}},
		{"Failed by a queued waiter gives up its queue place", req(Failed, a2, "S2"), nil},
		{"so the holder's Done passes the mutex to nobody", req(Done, b1, "T2"), nil},
	}
	for i, st := range steps {
		host.lines = nil
		home.Handle(st.req)
		if !reflect.DeepEqual(host.lines, st.want) {
			t.Fatalf("step %d (%s):\n got  %q\n want %q", i, st.name, host.lines, st.want)
		}
		if host.charges != i+1 {
			t.Fatalf("step %d (%s): %d load units charged for %d requests", i, st.name, host.charges, i+1)
		}
	}
	if q := home.Tracker().OrderQueue("ro"); len(q) != 1 || q[0] != b1 {
		t.Fatalf("order queue = %v, want the forgotten A.1 gone and B.1 left", q)
	}
	if s := home.String(); !strings.Contains(s, "mx held=false") || !strings.Contains(s, "waiters=[]") || !strings.Contains(s, "home forgot A: 1..1 and 0 above") {
		t.Fatalf("String() = %q", s)
	}
}

// TestOrderFollowsGrants: the home queues relative-order instances in the
// order it grants their pair-0 steps, whatever order their Done notes arrive
// in. A pair-0 step that fails before its Done keeps the place its grant
// took: its instance's other branches may run later pairs in that place.
func TestOrderFollowsGrants(t *testing.T) {
	a1, b2, a3, b4 := InstanceRef{Workflow: "A", ID: 1}, InstanceRef{Workflow: "B", ID: 2}, InstanceRef{Workflow: "A", ID: 3}, InstanceRef{Workflow: "B", ID: 4}
	req := func(op Op, inst InstanceRef, step model.StepID) Request {
		return Request{Op: op, Ref: model.StepRef{Workflow: inst.Workflow, Step: step}, Inst: inst, ReplyTo: "n-" + inst.String()}
	}
	host := &recHost{}
	home := NewHome(simOrderLib(), host)
	for i, st := range []struct {
		name  string
		req   Request
		want  []string
		queue []InstanceRef
	}{
		{"grant B.2's pair 0: it enrolls first", req(Check, b2, "T1"), []string{"resolve n-B.2 B.2:T1 []"}, []InstanceRef{b2}},
		{"grant A.1's pair 0 after it", req(Check, a1, "S1"), []string{"resolve n-A.1 A.1:S1 []"}, []InstanceRef{b2, a1}},
		{"A.1's Done arrives first", req(Done, a1, "S1"), nil, []InstanceRef{b2, a1}},
		{"B.2's Done after it", req(Done, b2, "T1"), nil, []InstanceRef{b2, a1}},
		{"so B.2 leads: A.1 waits for its second pair", req(Check, a1, "S2"), []string{"resolve n-A.1 A.1:S2 [ro:ro:1:B.2]"}, nil},
		{"and B.2 does not", req(Check, b2, "T2"), []string{"resolve n-B.2 B.2:T2 []"}, nil},
		{"B.2's second pair releases A.1", req(Done, b2, "T2"), []string{"inject A.1 ro:ro:1:B.2"}, nil},
		{"grant A.3's pair 0", req(Check, a3, "S1"), []string{"resolve n-A.3 A.3:S1 []"}, []InstanceRef{b2, a1, a3}},
		{"grant B.4's pair 0", req(Check, b4, "T1"), []string{"resolve n-B.4 B.4:T1 []"}, []InstanceRef{b2, a1, a3, b4}},
		{"B.4 ran and waits for A.3", req(Check, b4, "T2"), []string{"resolve n-B.4 B.4:T2 [ro:ro:1:A.3]"}, nil},
		{"A.3's pair 0 failed before its Done: it keeps its place, and B.4 still waits", req(Failed, a3, "S1"), nil, []InstanceRef{b2, a1, a3, b4}},
		{"A.3's next grant keeps the place too", req(Check, a3, "S1"), []string{"resolve n-A.3 A.3:S1 []"}, []InstanceRef{b2, a1, a3, b4}},
		{"A.3's second pair releases B.4", req(Done, a3, "S2"), []string{"inject B.4 ro:ro:1:A.3"}, []InstanceRef{b2, a1, a3, b4}},
	} {
		host.lines = nil
		home.Handle(st.req)
		if !reflect.DeepEqual(host.lines, st.want) {
			t.Fatalf("step %d (%s):\n got  %q\n want %q", i, st.name, host.lines, st.want)
		}
		if q := home.Tracker().OrderQueue("ro"); st.queue != nil && !reflect.DeepEqual(q, st.queue) {
			t.Fatalf("step %d (%s): queue %v, want %v", i, st.name, q, st.queue)
		}
	}
}

// TestTombstonesAreCompact: the tombstones of finished instances were one map
// entry each for ever. Forgotten in ID order they retain nothing per
// instance; out of order they stay exact.
func TestTombstonesAreCompact(t *testing.T) {
	host := &recHost{}
	home := NewHome(homeLib(), host)
	forget := func(id int) { home.Handle(Request{Op: Forget, Inst: InstanceRef{Workflow: "A", ID: id}}) }
	retained := func() int { return len(home.tombs["A"].above) }
	forgotten := func(id int) bool { return home.forgotten(InstanceRef{Workflow: "A", ID: id}) }

	for id := 1; id <= 10000; id++ {
		forget(id)
	}
	if n := retained(); n != 0 || len(home.tombs) != 1 {
		t.Fatalf("10000 instances forgotten in order retain %d entries in %d classes, want 0 in 1", n, len(home.tombs))
	}
	if !forgotten(1) || !forgotten(10000) || forgotten(10001) || forgotten(0) || forgotten(-3) {
		t.Fatal("1..10000 must be forgotten and nothing else")
	}

	// Out of order: 10001 is still running when its successors finish.
	for _, id := range []int{10003, 10005, 10002, 10003} {
		forget(id)
	}
	for id, want := range map[int]bool{10001: false, 10002: true, 10003: true, 10004: false, 10005: true, 10006: false} {
		if forgotten(id) != want {
			t.Fatalf("Forgotten(A.%d) = %v, want %v", id, !want, want)
		}
	}
	if n := retained(); n != 3 {
		t.Fatalf("%d entries retained, want the 3 above the gap", n)
	}
	forget(10001)
	if n := retained(); n != 1 || !forgotten(10001) || !forgotten(10003) || forgotten(10004) {
		t.Fatalf("after the gap closed: %d entries retained (want 1, for 10005)", n)
	}
	forget(10004)
	if n := retained(); n != 0 || !forgotten(10005) || forgotten(10006) {
		t.Fatalf("after the last gap closed: %d entries retained, want 0", n)
	}
	// A forgotten instance's late Check is answered and takes nothing.
	host.lines = nil
	home.Handle(Request{Op: Check, Ref: model.StepRef{Workflow: "A", Step: "S2"}, Inst: InstanceRef{Workflow: "A", ID: 10002}, ReplyTo: "n"})
	if want := []string{"resolve n A.10002:S2 []"}; !reflect.DeepEqual(host.lines, want) {
		t.Fatalf("late Check: %q, want %q", host.lines, want)
	}
}

// TestGate walks one step through the gate's states.
func TestGate(t *testing.T) {
	var g Gate
	events := simEvents{}
	if g.Blocked() != nil || g.String() != "" {
		t.Fatal("zero gate holds nothing")
	}
	if v := g.Admit("S", events); v != AskHome {
		t.Fatalf("first Admit = %v, want AskHome", v)
	}
	if v := g.Admit("S", events); v != Blocked {
		t.Fatalf("Admit while asked = %v, want Blocked (one request outstanding, not two)", v)
	}
	g.Resolved("S", []string{"e1", "e2"})
	events["e1"] = true
	if v := g.Admit("S", events); v != Blocked {
		t.Fatalf("Admit with e2 missing = %v, want Blocked", v)
	}
	g.Admit("R", events)
	if got := g.Blocked(); !reflect.DeepEqual(got, []model.StepID{"R", "S"}) {
		t.Fatalf("Blocked() = %v, want [R S] in step order", got)
	}
	if s := g.String(); !strings.Contains(s, "gate R asked=true") || !strings.Contains(s, "gate S asked=false blocked=true stale=0 waits=[e1 e2]") {
		t.Fatalf("String() = %q", s)
	}
	events["e2"] = true
	if v := g.Admit("S", events); v != Open {
		t.Fatalf("Admit with every event valid = %v, want Open", v)
	}
	if got := g.Blocked(); !reflect.DeepEqual(got, []model.StepID{"R"}) {
		t.Fatalf("Blocked() after Open = %v, want [R]", got)
	}
	g.Release("S")
	if v := g.Admit("S", events); v != AskHome {
		t.Fatalf("Admit after Release = %v: a revisit must re-acquire", v)
	}
	// Reset returns the steps the home must hear Failed for: R, which asked,
	// and Q, which was answered; not P, which was released, nor N, which
	// never asked.
	g.Admit("Q", events)
	g.Resolved("Q", []string{"e3"})
	g.Admit("P", events)
	g.Resolved("P", nil)
	g.Admit("P", events)
	g.Release("P")
	if got := g.Reset([]model.StepID{"N", "P", "Q", "R"}); !reflect.DeepEqual(got, []model.StepID{"Q", "R"}) {
		t.Fatalf("Reset() = %v, want [Q R]", got)
	}
	// R asks again; the answer to its withdrawn Check arrives first and is
	// dropped.
	if v := g.Admit("R", events); v != AskHome {
		t.Fatalf("Admit after Reset = %v, want AskHome", v)
	}
	if g.Resolved("R", []string{"e3"}) {
		t.Fatal("the answer to a withdrawn Check was taken")
	}
	if v := g.Admit("R", events); v != Blocked {
		t.Fatalf("Admit with the fresh answer outstanding = %v, want Blocked", v)
	}
	if !g.Resolved("R", nil) {
		t.Fatal("the answer to the fresh Check was dropped")
	}
	if v := g.Admit("R", events); v != Open {
		t.Fatalf("Admit after the fresh answer = %v, want Open", v)
	}
	if got := g.Reset([]model.StepID{"R", "S"}); !reflect.DeepEqual(got, []model.StepID{"R", "S"}) {
		t.Fatalf("Reset() = %v, want [R S]", got)
	}
	if g.Blocked() != nil {
		t.Fatalf("Blocked() after Reset = %v", g.Blocked())
	}
	// A Resolve may reach a gate that has never admitted anything (an engine
	// rebuilt its instances from the WFDB while the answer was in flight).
	var fresh Gate
	fresh.Resolved("S", nil)
	if v := fresh.Admit("S", events); v != Open {
		t.Fatalf("Admit on a resolved fresh gate = %v, want Open", v)
	}
}
