package itable

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crew/internal/cerrors"
	"crew/internal/wfdb"
)

func TestShardSpread(t *testing.T) {
	// Sequential ids of one workflow must not pile onto one shard.
	hit := make(map[uint32]int)
	for id := 1; id <= 1024; id++ {
		hit[shardOf("WF", id)]++
	}
	if len(hit) != shardCount {
		t.Fatalf("1024 sequential ids landed on %d/%d shards", len(hit), shardCount)
	}
	for sh, n := range hit {
		if n != 1024/shardCount {
			t.Fatalf("shard %d got %d ids, want %d", sh, n, 1024/shardCount)
		}
	}
}

func TestMapBasics(t *testing.T) {
	var m Map[string]
	ref := Ref{Workflow: "WF", ID: 7}
	if _, ok := m.Get(ref); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Put(ref, "e1")
	if v, ok := m.Get(ref); !ok || v != "e1" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(ref) || m.Delete(ref) {
		t.Fatal("Delete should report true then false")
	}
	if m.Len() != 0 {
		t.Fatalf("Len after delete = %d", m.Len())
	}
}

func TestMapUpdateAtomicCounter(t *testing.T) {
	var m Map[int]
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.Update(Ref{Workflow: "WF"}, func(v int, _ bool) int { return v + 1 })
			}
		}()
	}
	wg.Wait()
	if v, _ := m.Get(Ref{Workflow: "WF"}); v != workers*perWorker {
		t.Fatalf("counter = %d, want %d", v, workers*perWorker)
	}
}

func TestMapRange(t *testing.T) {
	var m Map[int]
	for id := 1; id <= 100; id++ {
		m.Put(Ref{Workflow: "WF", ID: id}, id)
	}
	sum := 0
	m.Range(func(ref Ref, v int) bool {
		if ref.ID != v {
			t.Fatalf("ref %v carries %d", ref, v)
		}
		sum += v
		return true
	})
	if sum != 5050 {
		t.Fatalf("sum = %d", sum)
	}
	n := 0
	m.Range(func(Ref, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Range visited %d entries", n)
	}
}

func TestTerminalCompleteAndStatus(t *testing.T) {
	var reg Terminal
	if _, ok := reg.Status("WF", 1); ok {
		t.Fatal("empty registry reported a status")
	}
	reg.Complete("WF", 1, wfdb.Committed)
	reg.Complete("WF", 2, wfdb.Aborted)
	if st, ok := reg.Status("WF", 1); !ok || st != wfdb.Committed {
		t.Fatalf("Status(1) = %v,%v", st, ok)
	}
	if st, ok := reg.Status("WF", 2); !ok || st != wfdb.Aborted {
		t.Fatalf("Status(2) = %v,%v", st, ok)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}
	// Duplicate completions keep the first status (distributed election
	// flips can double-commit) and do not double-count.
	reg.Complete("WF", 1, wfdb.Aborted)
	if st, _ := reg.Status("WF", 1); st != wfdb.Committed {
		t.Fatalf("duplicate Complete overwrote status: %v", st)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len after duplicate = %d", reg.Len())
	}
}

func TestTerminalSparseFallback(t *testing.T) {
	var reg Terminal
	// Nested children are numbered parentID*1000+attempt and can exceed the
	// dense vector limit; negative/zero ids must also be representable.
	ids := []int{denseLimit, denseLimit + 1001, 0, -3}
	for i, id := range ids {
		st := wfdb.Committed
		if i%2 == 1 {
			st = wfdb.Aborted
		}
		reg.Complete("WF", id, st)
		if got, ok := reg.Status("WF", id); !ok || got != st {
			t.Fatalf("Status(%d) = %v,%v want %v", id, got, ok, st)
		}
	}
	// A huge id must not balloon resident memory via the dense vector.
	if vec := reg.shards[shardOf("WF", denseLimit)].dense["WF"]; len(vec) >= denseLimit>>6 {
		t.Fatalf("dense vector grew to %d entries for an out-of-range id", len(vec))
	}
}

func TestTerminalSubscribeBeforeComplete(t *testing.T) {
	var reg Terminal
	st, done, w, _ := reg.Subscribe("WF", 9)
	if done || w == nil {
		t.Fatalf("Subscribe on live instance = %v,%v,%v", st, done, w)
	}
	go reg.Complete("WF", 9, wfdb.Committed)
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
	if w.Result() != wfdb.Committed {
		t.Fatalf("Result = %v", w.Result())
	}
	if reg.Waiting() != 0 {
		t.Fatalf("Waiting = %d after completion", reg.Waiting())
	}
}

func TestTerminalSubscribeAfterComplete(t *testing.T) {
	var reg Terminal
	reg.Complete("WF", 3, wfdb.Aborted)
	st, done, w, gen := reg.Subscribe("WF", 3)
	if !done || st != wfdb.Aborted || w != nil || gen != 0 {
		t.Fatalf("Subscribe on finished instance = %v,%v,%v,%d", st, done, w, gen)
	}
}

func TestTerminalUnsubscribeGenerations(t *testing.T) {
	var reg Terminal
	_, _, w, gen := reg.Subscribe("WF", 5)
	// Stale stamp (wrong generation) must be a no-op.
	reg.Unsubscribe("WF", 5, w, gen+1)
	if reg.Waiting() != 1 {
		t.Fatalf("stale Unsubscribe released the waiter (Waiting=%d)", reg.Waiting())
	}
	// Two subscribers share one waiter; both must release before recycle.
	_, _, w2, gen2 := reg.Subscribe("WF", 5)
	if w2 != w {
		t.Fatal("second Subscribe allocated a fresh waiter")
	}
	reg.Unsubscribe("WF", 5, w, gen)
	if reg.Waiting() != 1 {
		t.Fatalf("waiter released while a subscriber remains (Waiting=%d)", reg.Waiting())
	}
	reg.Unsubscribe("WF", 5, w2, gen2)
	if reg.Waiting() != 0 {
		t.Fatalf("Waiting = %d after final Unsubscribe", reg.Waiting())
	}
	// The recycle bumped the generation, so a double-release is harmless
	// even if the pool hands the same waiter to a new instance.
	reg.Unsubscribe("WF", 5, w, gen)
}

func TestTerminalConcurrentSubscribeComplete(t *testing.T) {
	var reg Terminal
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 1; id <= n; id++ {
		id := id
		wg.Add(2)
		go func() {
			defer wg.Done()
			st, done, w, _ := reg.Subscribe("WF", id)
			if !done {
				select {
				case <-w.Done():
					st = w.Result()
				case <-time.After(5 * time.Second):
					errs <- fmt.Errorf("id %d: waiter never woke", id)
					return
				}
			}
			if st != wfdb.Committed {
				errs <- fmt.Errorf("id %d: status %v", id, st)
			}
		}()
		go func() {
			defer wg.Done()
			reg.Complete("WF", id, wfdb.Committed)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reg.Len() != n {
		t.Fatalf("Len = %d, want %d", reg.Len(), n)
	}
}

// TestWaitExpiredCtxWinsTie pins the tie rule of the wait contract. The
// older hook runs between Wait's subscription and its select, so completing
// the instance and ending the context from inside it makes both ready at
// once: the context must win every time, as a timeout for a deadline and as
// ctx.Err() for a cancellation, and the subscription must be gone.
func TestWaitExpiredCtxWinsTie(t *testing.T) {
	var reg Terminal
	for i := 1; i <= 200; i++ {
		newCtx, wantErr := context.WithCancel, context.Canceled
		if i%2 == 0 {
			newCtx = func(parent context.Context) (context.Context, context.CancelFunc) {
				return context.WithDeadline(parent, time.Now().Add(-time.Second))
			}
			wantErr = cerrors.ErrTimeout
		}
		ctx, cancel := newCtx(context.Background())
		_, err := reg.Wait(ctx, "WF", i, func() (wfdb.Status, bool) {
			reg.Complete("WF", i, wfdb.Committed)
			cancel()
			return 0, false
		})
		cancel()
		if !errors.Is(err, wantErr) {
			t.Fatalf("round %d: Wait = %v, want %v", i, err, wantErr)
		}
	}
	if reg.Waiting() != 0 {
		t.Errorf("Waiting = %d after the waits ended", reg.Waiting())
	}
	// Without a tie the same calls report the status, from the registry or
	// from the older incarnation's record.
	if st, err := reg.Wait(context.Background(), "WF", 1, nil); err != nil || st != wfdb.Committed {
		t.Errorf("Wait on a finished instance = (%v, %v)", st, err)
	}
	older := func() (wfdb.Status, bool) { return wfdb.Aborted, true }
	if st, err := reg.Wait(context.Background(), "Old", 1, older); err != nil || st != wfdb.Aborted {
		t.Errorf("Wait on an older incarnation's instance = (%v, %v)", st, err)
	}
	if reg.Waiting() != 0 {
		t.Errorf("Waiting = %d: the older-incarnation path leaked its subscription", reg.Waiting())
	}
}
