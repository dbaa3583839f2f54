package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// twin drives an indexed engine (bound to its table) and a scan engine (the
// unbound reference) through identical mutations and fails the test the first
// time their fired-rule sequences diverge.
type twin struct {
	t        *testing.T
	idx, ref *Engine
	itab     *event.Table
	rtab     *event.Table
	env      expr.MapEnv
}

// newTwin compiles the rules once and loads the program into both engines.
func newTwin(t *testing.T, rs ...*Rule) *twin {
	prog := Compile(rs)
	tw := &twin{
		t: t, idx: NewEngine(), ref: NewEngine(),
		itab: event.NewTable(), rtab: event.NewTable(),
		env: expr.MapEnv{},
	}
	tw.idx.Load(prog)
	tw.ref.Load(prog)
	tw.idx.Bind(tw.itab)
	return tw
}

// rearm re-arms a step's rules on both engines.
func (tw *twin) rearm(step model.StepID) {
	tw.idx.RearmExecRules(step)
	tw.ref.RearmExecRules(step)
}

func (tw *twin) post(name string) {
	tw.itab.Post(name)
	tw.rtab.Post(name)
}

func (tw *twin) invalidate(name string) {
	tw.itab.Invalidate(name)
	tw.rtab.Invalidate(name)
}

// eval evaluates both engines and asserts identical firing order.
func (tw *twin) eval(when string) []string {
	tw.t.Helper()
	got, gerr := tw.idx.Evaluate(tw.itab, tw.env)
	want, werr := tw.ref.EvaluateScan(tw.rtab, tw.env)
	if (gerr == nil) != (werr == nil) {
		tw.t.Fatalf("%s: indexed err=%v, scan err=%v", when, gerr, werr)
	}
	ids := func(rs []*Rule) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		return out
	}
	g, w := ids(got), ids(want)
	if len(g) != len(w) {
		tw.t.Fatalf("%s: indexed fired %v, scan fired %v", when, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			tw.t.Fatalf("%s: indexed fired %v, scan fired %v", when, g, w)
		}
	}
	return g
}

func TestIndexedMatchesScanBasics(t *testing.T) {
	cond := expr.MustCompile(`WF.x > 3`)
	tw := newTwin(t,
		execRule("r1", "a.done"),
		&Rule{ID: "r2", Events: []string{"a.done", "b.done"}, Step: "S2"},
		&Rule{ID: "r3", Events: []string{"b.done"}, Precond: cond, Step: "S3"})

	tw.eval("empty table")
	tw.post("a.done")
	if got := tw.eval("a.done"); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("fired %v, want [r1]", got)
	}
	tw.post("b.done")
	// r2 becomes satisfied; r3's precondition is still false (x unset).
	if got := tw.eval("b.done"); len(got) != 1 || got[0] != "r2" {
		t.Fatalf("fired %v, want [r2]", got)
	}
	// Data-only change: no event traffic, but r3's precondition turns true.
	tw.env["WF.x"] = expr.Num(5)
	if got := tw.eval("data change"); len(got) != 1 || got[0] != "r3" {
		t.Fatalf("fired %v, want [r3]", got)
	}
	tw.eval("steady state")

	// Rollback shape: invalidate and re-post re-fires in insertion order.
	tw.invalidate("a.done")
	tw.invalidate("b.done")
	tw.eval("after invalidation")
	tw.post("a.done")
	tw.post("b.done")
	if got := tw.eval("refire"); len(got) != 3 {
		t.Fatalf("refire fired %v, want all three", got)
	}
}

// TestIndexedMatchesScanRearm: re-arming, eventless rules and preconditions
// that turn true on data alone, against the reference.
func TestIndexedMatchesScanRearm(t *testing.T) {
	tw := newTwin(t,
		execRule("r1", "a.done"),
		&Rule{ID: "r0", Events: []string{"c.done", "d.done"}, Step: "r0"},
		&Rule{ID: "now", Step: "now"},
		&Rule{ID: "gated", Events: []string{"a.done"}, Precond: expr.MustCompile(`WF.go == 1`), Step: "gated"})
	tw.env["WF.go"] = expr.Num(0)
	if got := tw.eval("eventless"); len(got) != 1 || got[0] != "now" {
		t.Fatalf("fired %v, want [now]", got)
	}
	tw.post("a.done")
	if got := tw.eval("r1 fires"); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("fired %v, want [r1]", got)
	}
	tw.post("c.done")
	tw.eval("r0 half satisfied")
	tw.post("d.done")
	if got := tw.eval("d.done"); len(got) != 1 || got[0] != "r0" {
		t.Fatalf("fired %v, want [r0]", got)
	}

	// Re-arming re-fires on the current table state, in program order; an
	// eventless rule fires once per re-arm.
	tw.rearm("r0")
	tw.rearm("r1")
	tw.rearm("now")
	if got := tw.eval("rearm"); len(got) != 3 || got[0] != "r1" || got[1] != "r0" || got[2] != "now" {
		t.Fatalf("fired %v, want [r1 r0 now]", got)
	}
	tw.env["WF.go"] = expr.Num(1)
	if got := tw.eval("data change"); len(got) != 1 || got[0] != "gated" {
		t.Fatalf("fired %v, want [gated]", got)
	}

	// Invalidation then re-post re-fires without a re-arm.
	tw.invalidate("c.done")
	tw.eval("after invalidation")
	tw.post("c.done")
	if got := tw.eval("re-post"); len(got) != 1 || got[0] != "r0" {
		t.Fatalf("fired %v, want [r0]", got)
	}
}

// TestIndexedMatchesScanRandomized drives both paths through a seeded random
// mutation script — posts, invalidations, data flips, rearms — over a rule
// set with overlapping event subscriptions and preconditions.
func TestIndexedMatchesScanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := []string{"a.done", "b.done", "c.done", "d.done", "e.done"}
	cond := expr.MustCompile(`WF.flag == 1`)
	var rs []*Rule
	for i := 0; i < 24; i++ {
		evs := []string{events[i%len(events)]}
		if i%3 == 0 {
			evs = append(evs, events[(i+2)%len(events)])
		}
		id := fmt.Sprintf("r%02d", i)
		r := &Rule{ID: id, Events: evs, Step: model.StepID(id)}
		if i%4 == 0 {
			r.Precond = cond
		}
		rs = append(rs, r)
	}
	tw := newTwin(t, rs...)
	tw.env["WF.flag"] = expr.Num(0)
	for step := 0; step < 400; step++ {
		ev := events[rng.Intn(len(events))]
		switch rng.Intn(6) {
		case 0, 1, 2:
			tw.post(ev)
		case 3:
			tw.invalidate(ev)
		case 4:
			tw.env["WF.flag"] = expr.Num(float64(rng.Intn(2)))
		case 5:
			tw.rearm(model.StepID(fmt.Sprintf("r%02d", rng.Intn(24))))
		}
		tw.eval(fmt.Sprintf("step %d", step))
	}
}
