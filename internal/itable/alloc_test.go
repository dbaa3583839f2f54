package itable

import (
	"testing"

	"crew/internal/wfdb"
)

// TestHotReadAllocBudgets guards the sharded-table read paths (shardOf,
// Map.Get, Terminal.Status): lookups run on every packet an agent routes, and
// must not allocate.
func TestHotReadAllocBudgets(t *testing.T) {
	var m Map[int]
	m.Put(Ref{"wf", 7}, 42)
	var term Terminal
	term.Complete("wf", 7, wfdb.Committed)

	avg := testing.AllocsPerRun(500, func() {
		if v, ok := m.Get(Ref{"wf", 7}); !ok || v != 42 {
			t.Error("Get lost the entry")
		}
	})
	if avg > 0 {
		t.Errorf("Map.Get allocates %.2f/op, budget 0", avg)
	}

	avg = testing.AllocsPerRun(500, func() {
		if st, ok := term.Status("wf", 7); !ok || st != wfdb.Committed {
			t.Error("Status lost the record")
		}
	})
	if avg > 0 {
		t.Errorf("Terminal.Status allocates %.2f/op, budget 0", avg)
	}
}

// TestFeedAllocBudgets: an agent reads the completion feed at the start of
// every turn, into a buffer it keeps, and Complete appends to it once per
// finished instance; neither may allocate for the feed.
func TestFeedAllocBudgets(t *testing.T) {
	var term Terminal
	cur := term.Follow()
	for id := 1; id <= 100; id++ {
		term.Complete("wf", id, wfdb.Committed)
	}
	buf := make([]Ref, 0, 100)
	avg := testing.AllocsPerRun(500, func() {
		if refs, _, lagged := term.FinishedSince(cur, buf[:0]); len(refs) != 100 || lagged {
			t.Error("FinishedSince lost completions")
		}
	})
	if avg > 0 {
		t.Errorf("FinishedSince into a warm buffer allocates %.2f/op, budget 0", avg)
	}
	avg = testing.AllocsPerRun(500, func() {
		term.FinishedSince(term.feed.seq.Load(), buf[:0])
	})
	if avg > 0 {
		t.Errorf("FinishedSince with nothing new allocates %.2f/op, budget 0", avg)
	}

	// Complete on a followed registry allocates what it allocates on one
	// nobody follows: the same ids grow the same status vectors.
	completeAllocs := func(term *Terminal) float64 {
		id := 0
		return testing.AllocsPerRun(2000, func() {
			id++
			term.Complete("wf", id, wfdb.Committed)
		})
	}
	var plain, followed Terminal
	followed.Follow()
	if p, f := completeAllocs(&plain), completeAllocs(&followed); f > p {
		t.Errorf("Complete allocates %.3f/op followed, %.3f/op not: the feed append allocates", f, p)
	}
}
