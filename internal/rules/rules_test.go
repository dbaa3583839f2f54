package rules

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

func execRule(id string, events ...string) *Rule {
	return &Rule{ID: id, Events: events, Step: model.StepID(id)}
}

// load returns an unbound engine running the rules, compiled in order.
func load(rs ...*Rule) *Engine {
	e := NewEngine()
	e.Load(Compile(rs))
	return e
}

func fire(t *testing.T, e *Engine, tab *event.Table, env expr.Env) []string {
	t.Helper()
	fired, err := e.Evaluate(tab, env)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	ids := make([]string, len(fired))
	for i, r := range fired {
		ids[i] = r.ID
	}
	return ids
}

func TestBasicFiring(t *testing.T) {
	e := load(execRule("r1", "a.done"))
	tab := event.NewTable()

	if ids := fire(t, e, tab, nil); len(ids) != 0 {
		t.Errorf("fired without events: %v", ids)
	}
	tab.Post("a.done")
	if ids := fire(t, e, tab, nil); len(ids) != 1 || ids[0] != "r1" {
		t.Errorf("fired = %v, want [r1]", ids)
	}
	// Same satisfaction epoch: no refire.
	if ids := fire(t, e, tab, nil); len(ids) != 0 {
		t.Errorf("refired in same epoch: %v", ids)
	}
}

func TestConjunctiveEvents(t *testing.T) {
	e := load(execRule("join", "a.done", "b.done"))
	tab := event.NewTable()
	tab.Post("a.done")
	if ids := fire(t, e, tab, nil); len(ids) != 0 {
		t.Errorf("fired with partial events: %v", ids)
	}
	tab.Post("b.done")
	if ids := fire(t, e, tab, nil); len(ids) != 1 {
		t.Errorf("join did not fire: %v", ids)
	}
}

func TestPreconditionGating(t *testing.T) {
	r := execRule("cond", "a.done")
	r.Precond = expr.MustCompile("X > 5")
	e := load(r)
	tab := event.NewTable()
	tab.Post("a.done")
	env := expr.MapEnv{"X": expr.Num(3)}
	if ids := fire(t, e, tab, env); len(ids) != 0 {
		t.Errorf("fired with false precondition: %v", ids)
	}
	// Condition later becomes true (data changed): rule is still eligible.
	env["X"] = expr.Num(7)
	if ids := fire(t, e, tab, env); len(ids) != 1 {
		t.Errorf("did not fire once precondition true: %v", ids)
	}
}

func TestPreconditionErrorDoesNotWedge(t *testing.T) {
	bad := execRule("bad", "a.done")
	bad.Precond = expr.MustCompile(`"s" < 1`)
	e := load(bad, execRule("good", "a.done"))
	tab := event.NewTable()
	tab.Post("a.done")
	fired, err := e.Evaluate(tab, nil)
	if err == nil {
		t.Error("expected precondition error")
	}
	if len(fired) != 1 || fired[0].ID != "good" {
		t.Errorf("good rule should fire despite bad one: %v", fired)
	}
}

func TestInvalidationAndRefire(t *testing.T) {
	e := load(execRule("r", "a.done"))
	tab := event.NewTable()
	tab.Post("a.done")
	fire(t, e, tab, nil)

	// Rollback invalidates the event; rule must not fire.
	tab.Invalidate("a.done")
	if ids := fire(t, e, tab, nil); len(ids) != 0 {
		t.Errorf("fired on invalidated event: %v", ids)
	}
	// Re-execution re-posts; count changed, so the rule fires again.
	tab.Post("a.done")
	if ids := fire(t, e, tab, nil); len(ids) != 1 {
		t.Errorf("did not refire after re-post: %v", ids)
	}
}

func TestRearm(t *testing.T) {
	e := load(execRule("r", "a.done"), execRule("q", "a.done"))
	tab := event.NewTable()
	tab.Post("a.done")
	fire(t, e, tab, nil)
	if n := e.RearmExecRules("r"); n != 1 {
		t.Errorf("RearmExecRules = %d", n)
	}
	if ids := fire(t, e, tab, nil); len(ids) != 1 || ids[0] != "r" {
		t.Errorf("RearmExecRules did not allow refire of r alone: %v", ids)
	}
	if n := e.RearmExecRules("missing"); n != 0 {
		t.Errorf("RearmExecRules(missing) = %d", n)
	}
	n := e.RearmWhere(func(step model.StepID) bool { return step == "q" })
	if n != 1 {
		t.Errorf("RearmWhere = %d", n)
	}
	if ids := fire(t, e, tab, nil); len(ids) != 1 || ids[0] != "q" {
		t.Errorf("RearmWhere did not allow refire of q alone: %v", ids)
	}
}

func TestEventlessRuleFiresOnce(t *testing.T) {
	e := load(&Rule{ID: "now", Step: "S"})
	tab := event.NewTable()
	if ids := fire(t, e, tab, nil); len(ids) != 1 {
		t.Errorf("eventless rule did not fire: %v", ids)
	}
	if ids := fire(t, e, tab, nil); len(ids) != 0 {
		t.Errorf("eventless rule refired: %v", ids)
	}
}

func TestCompileDoesNotAliasCaller(t *testing.T) {
	src := execRule("r", "a.done")
	e := load(src)
	src.Events[0] = "mutated"
	src.Step = "mutated"
	tab := event.NewTable()
	tab.Post("a.done")
	fired, err := e.Evaluate(tab, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0].Step != "r" {
		t.Errorf("program affected by caller mutation: fired %+v", fired)
	}
}

func TestWaitingRules(t *testing.T) {
	e := load(execRule("one", "a.done", "b.done"), execRule("two", "c.done"))
	tab := event.NewTable()
	tab.Post("a.done")
	w := e.WaitingRules(tab)
	if len(w) != 2 {
		t.Fatalf("WaitingRules = %d entries", len(w))
	}
	if w[0].Rule.ID != "one" || len(w[0].Missing) != 1 || w[0].Missing[0] != "b.done" {
		t.Errorf("Waiting[0] = %+v", w[0])
	}
	if w[1].Rule.ID != "two" || w[1].Missing[0] != "c.done" {
		t.Errorf("Waiting[1] = %+v", w[1])
	}
	tab.Post("b.done")
	tab.Post("c.done")
	if w := e.WaitingRules(tab); len(w) != 0 {
		t.Errorf("no rules should wait: %+v", w)
	}
}

func TestFiringOrderIsInsertionOrder(t *testing.T) {
	e := load(execRule("z", "a.done"), execRule("a", "a.done"))
	tab := event.NewTable()
	tab.Post("a.done")
	ids := fire(t, e, tab, nil)
	if len(ids) != 2 || ids[0] != "z" || ids[1] != "a" {
		t.Errorf("fired order = %v, want [z a]", ids)
	}
}

// TestRebindKeepsArmedRules: a rule armed on the first table and still
// fireable on the second fires after Bind moves the engine there.
func TestRebindKeepsArmedRules(t *testing.T) {
	e := load(execRule("r", "a.done"))
	first, second := event.NewTable(), event.NewTable()
	e.Bind(first)
	first.Post("a.done") // arms r
	second.Post("a.done")
	e.Bind(second)
	if ids := fire(t, e, second, nil); len(ids) != 1 || ids[0] != "r" {
		t.Errorf("after rebind fired %v, want [r]", ids)
	}
}

// TestRebindDetachesOldTable: once the engine moved to a new table, posts to
// the old one no longer reach its counters.
func TestRebindDetachesOldTable(t *testing.T) {
	e := load(execRule("r", "a.done"))
	first, second := event.NewTable(), event.NewTable()
	e.Bind(first)
	e.Bind(second)
	first.Post("a.done")
	if ids := fire(t, e, second, nil); len(ids) != 0 {
		t.Errorf("a post to the old table fired %v on the new one", ids)
	}
	second.Post("a.done")
	if ids := fire(t, e, second, nil); len(ids) != 1 {
		t.Errorf("fired %v, want [r]", ids)
	}
}

// TestEnginesShareProgram: engines loading one program keep their own
// counters; a post to one instance's table fires nothing in another, and
// concurrent instances on one program do not race (run with -race).
func TestEnginesShareProgram(t *testing.T) {
	prog := Compile([]*Rule{execRule("A", "start"), execRule("B", "A.done"), execRule("C", "A.done", "B.done")})
	e1, e2 := NewEngine(), NewEngine()
	e1.Load(prog)
	e2.Load(prog)
	t1, t2 := event.NewTable(), event.NewTable()
	e1.Bind(t1)
	e2.Bind(t2)
	t1.Post("start")
	if ids := fire(t, e2, t2, nil); len(ids) != 0 {
		t.Fatalf("a post to the first table fired %v in the second engine", ids)
	}
	t2.Post("start")
	t2.Post("A.done")
	if ids := fire(t, e1, t1, nil); len(ids) != 1 || ids[0] != "A" {
		t.Fatalf("first engine fired %v, want [A]", ids)
	}
	if ids := fire(t, e2, t2, nil); len(ids) != 2 || ids[0] != "A" || ids[1] != "B" {
		t.Fatalf("second engine fired %v, want [A B]", ids)
	}

	walk := []string{"start", "A.done", "B.done"}
	want := []string{"A", "B", "C"}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				e := NewEngine()
				e.Load(prog)
				e.Bind(event.NewTable())
				var got []string
				for _, name := range walk {
					fired, err := e.FireOn(name, nil)
					if err != nil {
						errs <- err.Error()
						return
					}
					for _, r := range fired {
						got = append(got, r.ID)
					}
				}
				if !slices.Equal(got, want) {
					errs <- fmt.Sprintf("instance %d fired %v, want %v", n, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
