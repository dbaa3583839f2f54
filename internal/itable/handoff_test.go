package itable

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crew/internal/wfdb"
)

// sameShard returns an id after id whose instance lands in id's shard.
func sameShard(workflow string, id int) int {
	other := id + 1
	for shardOf(workflow, other) != shardOf(workflow, id) {
		other++
	}
	return other
}

// TestHandOffNeedsAWaiter: nobody waiting at completion, or the only waiter
// gone before it, means nothing is handed off.
func TestHandOffNeedsAWaiter(t *testing.T) {
	var term Terminal
	term.CompleteWith("wf", 1, wfdb.Committed, wfdb.NewInstance("wf", 1, nil))
	if got := term.Take("wf", 1); got != nil {
		t.Errorf("Take without a waiter = %p", got)
	}

	_, _, w, gen := term.Subscribe("wf", 2)
	term.Unsubscribe("wf", 2, w, gen)
	term.CompleteWith("wf", 2, wfdb.Aborted, wfdb.NewInstance("wf", 2, nil))
	if got := term.Take("wf", 2); got != nil {
		t.Errorf("Take after the waiter left = %p", got)
	}
	if st, ok := term.Status("wf", 2); !ok || st != wfdb.Aborted {
		t.Errorf("Status = (%v, %v)", st, ok)
	}
}

// TestHandOffTakenOnce: with a waiter, the waiter wakes with the status and
// the first Take gets the instance; a second Take, or one for another instance
// of the same shard, gets nothing.
func TestHandOffTakenOnce(t *testing.T) {
	var term Terminal
	_, _, w, _ := term.Subscribe("wf", 1)
	ins := wfdb.NewInstance("wf", 1, nil)
	term.CompleteWith("wf", 1, wfdb.Committed, ins)
	<-w.Done()
	if w.Result() != wfdb.Committed {
		t.Errorf("waiter woke with %v", w.Result())
	}
	if got := term.Take("wf", sameShard("wf", 1)); got != nil {
		t.Errorf("Take of a neighbour = %p", got)
	}
	if got := term.Take("wf", 1); got != ins {
		t.Fatalf("first Take = %p, want %p", got, ins)
	}
	if got := term.Take("wf", 1); got != nil {
		t.Errorf("second Take = %p", got)
	}
}

// TestHandOffLaterReplacesEarlier: a shard keeps one hand-off, the latest.
func TestHandOffLaterReplacesEarlier(t *testing.T) {
	var term Terminal
	first, second := 1, sameShard("wf", 1)
	var ins [2]*wfdb.Instance
	for i, id := range []int{first, second} {
		term.Subscribe("wf", id)
		ins[i] = wfdb.NewInstance("wf", id, nil)
		term.CompleteWith("wf", id, wfdb.Committed, ins[i])
	}
	if got := term.Take("wf", first); got != nil {
		t.Errorf("Take of the replaced hand-off = %p", got)
	}
	if got := term.Take("wf", second); got != ins[1] {
		t.Errorf("Take of the later hand-off = %p, want %p", got, ins[1])
	}
}

// TestHandOffKeepsAtMostOnePerShard: hand-offs nobody takes cost at most one
// instance per shard, however many there were.
func TestHandOffKeepsAtMostOnePerShard(t *testing.T) {
	var term Terminal
	const n = 10_000
	var freed atomic.Int64
	for id := 1; id <= n; id++ {
		_, _, w, _ := term.Subscribe("wf", id)
		ins := wfdb.NewInstance("wf", id, nil)
		runtime.SetFinalizer(ins, func(*wfdb.Instance) { freed.Add(1) })
		term.CompleteWith("wf", id, wfdb.Committed, ins)
		<-w.Done()
	}
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < n-shardCount; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d handed-off instances still reachable, want at most %d", n-freed.Load(), n, shardCount)
		}
		runtime.GC()
	}
	// The registry itself is still live and still hands off the latest.
	if term.Take("wf", n) == nil {
		t.Error("the last hand-off is gone")
	}
}

// TestHandOffCompleteIsCompleteWithNil: Complete and CompleteWith(..., nil)
// leave the same record, feed and waiter outcome, and nothing to take.
func TestHandOffCompleteIsCompleteWithNil(t *testing.T) {
	var plain, with Terminal
	complete := map[*Terminal]func(id int, st wfdb.Status){
		&plain: func(id int, st wfdb.Status) { plain.Complete("wf", id, st) },
		&with:  func(id int, st wfdb.Status) { with.CompleteWith("wf", id, st, nil) },
	}
	for term, done := range complete {
		cur := term.Follow()
		_, _, w, _ := term.Subscribe("wf", 1)
		done(1, wfdb.Aborted)
		done(1, wfdb.Committed) // a duplicate keeps the first status
		done(2, wfdb.Committed)
		<-w.Done()
		if w.Result() != wfdb.Aborted {
			t.Errorf("waiter woke with %v", w.Result())
		}
		if st, ok := term.Status("wf", 1); !ok || st != wfdb.Aborted {
			t.Errorf("Status = (%v, %v)", st, ok)
		}
		if refs, _, _ := term.FinishedSince(cur, nil); len(refs) != 2 || term.Len() != 2 || term.Waiting() != 0 {
			t.Errorf("feed %v, Len %d, Waiting %d", refs, term.Len(), term.Waiting())
		}
		if got := term.Take("wf", 1); got != nil {
			t.Errorf("Take = %p", got)
		}
	}
}

// TestHandOffAllocBudget: Take runs in every Snapshot and CompleteWith in
// every retirement; neither may allocate for the hand-off.
func TestHandOffAllocBudget(t *testing.T) {
	var term Terminal
	// Completing one high id per shard grows every status vector past the ids
	// below, so no completion below allocates for its record.
	const high = 1 << 16
	for id := high; id < high+shardCount; id++ {
		term.Complete("wf", id, wfdb.Committed)
	}
	id := 0
	if avg := testing.AllocsPerRun(1000, func() {
		id++
		term.CompleteWith("wf", id, wfdb.Committed, nil)
	}); avg > 0 {
		t.Errorf("CompleteWith without a waiter allocates %.2f/op, budget 0", avg)
	}

	ins := wfdb.NewInstance("wf", 1, nil)
	if avg := testing.AllocsPerRun(1000, func() {
		term.shards[shardOf("wf", 1)].handed = handOff{Ref{"wf", 1}, ins}
		if term.Take("wf", 1) != ins {
			t.Error("Take missed")
		}
		term.Take("wf", 2)
	}); avg > 0 {
		t.Errorf("Take allocates %.2f/op, budget 0", avg)
	}
}
