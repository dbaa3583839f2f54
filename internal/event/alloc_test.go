package event

import (
	"testing"

	"crew/internal/binenc"
)

// TestPostAllocBudget guards the event-table hot path (Post): re-posting an
// existing event — the steady-state shape, since loops re-post step.done
// every iteration — must not allocate.
func TestPostAllocBudget(t *testing.T) {
	tab := NewTable()
	tab.Post("step.done") // inserts the entry
	avg := testing.AllocsPerRun(500, func() {
		tab.Post("step.done")
	})
	if avg > 0 {
		t.Errorf("Post allocates %.2f/op on an existing entry, budget 0", avg)
	}
}

// TestAppendAllocBudget guards the row-encoding hot path (Walk): with a warm
// buffer and walker it must not allocate.
func TestAppendAllocBudget(t *testing.T) {
	tab := NewTable()
	for _, name := range []string{WorkflowStartName, "S2.done", "S1.done", "S1.fail", "ext:WF1.3:S12.done"} {
		tab.Post(name)
	}
	var w binenc.Walker
	buf := w.Append(nil, tab)
	avg := testing.AllocsPerRun(500, func() {
		buf = w.Append(buf[:0], tab)
	})
	if avg > 0 {
		t.Errorf("Walk allocates %.2f/op into a warm buffer, budget 0", avg)
	}
}
