package rules

import (
	"testing"

	"crew/internal/event"
)

// TestFireOnAllocBudget guards the reactive dispatch hot path (FireOn and
// fireArmed): a steady-state FireOn that completes no rule — the
// overwhelmingly common case on a busy agent — must not allocate. Rules
// waiting on other events stay untouched, and the armed agenda drains
// without building anything.
func TestFireOnAllocBudget(t *testing.T) {
	// A realistic standing rule set: conjunctive rules none of which the
	// posted event completes.
	e := load(execRule("r1", "r1.a", "r1.b"), execRule("r2", "r2.a", "r2.b"), execRule("r3", "r3.a", "r3.b"))
	tab := event.NewTable()
	e.Bind(tab)
	// Warm up: the first Post inserts the event's table entry.
	if _, err := e.FireOn("tick", nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if _, err := e.FireOn("tick", nil); err != nil {
			t.Error(err)
		}
	})
	if avg > 0 {
		t.Errorf("FireOn allocates %.2f/op on the no-fire path, budget 0", avg)
	}
}

// TestInstallAllocBudget: what every instance start pays for its rule set —
// a new engine, the schema's shared program loaded, bound to the instance's
// event table — is the engine and its counter slice, nothing per rule.
func TestInstallAllocBudget(t *testing.T) {
	s := fig3Schema(t)
	tab := event.NewTable()
	avg := testing.AllocsPerRun(500, func() {
		e := NewEngine()
		InstallSchemaRules(e, s)
		e.Bind(tab)
	})
	if avg > 2 {
		t.Errorf("NewEngine+InstallSchemaRules+Bind allocates %.2f/op, budget 2", avg)
	}
}
