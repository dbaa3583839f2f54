package itable

import (
	"runtime"
	"sync"
	"testing"

	"crew/internal/wfdb"
)

// TestFeedOrderWrapAndLag: completions come back in completion order across
// the ring's wrap-around, and a follower further behind than the ring is told
// it lagged, gets nothing, and reads normally from the cursor it is handed.
func TestFeedOrderWrapAndLag(t *testing.T) {
	var term Terminal
	cur := term.Follow()
	id := 0
	complete := func(n int) {
		for i := 0; i < n; i++ {
			id++
			term.Complete("wf", id, wfdb.Committed)
		}
	}
	expect := func(refs []Ref, from, n int) {
		t.Helper()
		if len(refs) != n {
			t.Fatalf("read %d completions, want %d", len(refs), n)
		}
		for i, r := range refs {
			if r != (Ref{Workflow: "wf", ID: from + i}) {
				t.Fatalf("completion %d is %v, want wf.%d", i, r, from+i)
			}
		}
	}

	// Chunks of 300 cross the ring's end several times.
	buf := make([]Ref, 0, feedSize)
	for chunk := 0; chunk < 10; chunk++ {
		from := id + 1
		complete(300)
		refs, next, lagged := term.FinishedSince(cur, buf[:0])
		if lagged {
			t.Fatalf("chunk %d: lagged with 300 of %d behind", chunk, feedSize)
		}
		expect(refs, from, 300)
		cur = next
	}

	// Nothing new: same cursor, nothing appended.
	if refs, next, lagged := term.FinishedSince(cur, buf[:0]); len(refs) != 0 || next != cur || lagged {
		t.Fatalf("idle read = (%d refs, %d, %v), want (0, %d, false)", len(refs), next, lagged, cur)
	}

	// Exactly the ring's worth behind is still readable.
	from := id + 1
	complete(feedSize)
	refs, next, lagged := term.FinishedSince(cur, buf[:0])
	if lagged {
		t.Fatal("lagged with exactly one ring of completions behind")
	}
	expect(refs, from, feedSize)
	cur = next

	// One more than the ring holds: lagged, nothing appended, and the cursor
	// handed back reads on normally.
	complete(feedSize + 1)
	refs, next, lagged = term.FinishedSince(cur, buf[:0])
	if !lagged || len(refs) != 0 {
		t.Fatalf("%d behind: (%d refs, lagged %v), want (0, true)", feedSize+1, len(refs), lagged)
	}
	if want := cur + feedSize + 1; next != want {
		t.Fatalf("cursor after a lag = %d, want %d", next, want)
	}
	from = id + 1
	complete(5)
	refs, _, lagged = term.FinishedSince(next, buf[:0])
	if lagged {
		t.Fatal("lagged again after taking the new cursor")
	}
	expect(refs, from, 5)

	// A duplicate Complete is not a completion.
	before := term.feed.seq.Load()
	term.Complete("wf", 1, wfdb.Aborted)
	if term.feed.seq.Load() != before {
		t.Fatal("a duplicate Complete entered the feed")
	}
}

// TestUnfollowedRegistryKeepsNoRing: central engines and the multi-process
// hub never follow their registry, so it must not allocate the ring for them.
func TestUnfollowedRegistryKeepsNoRing(t *testing.T) {
	var term Terminal
	for id := 1; id <= 2*feedSize; id++ {
		term.Complete("wf", id, wfdb.Committed)
	}
	if term.feed.ring.Load() != nil {
		t.Fatal("a registry nobody follows allocated the completion ring")
	}
	if refs, next, lagged := term.FinishedSince(0, nil); len(refs) != 0 || next != 0 || lagged {
		t.Fatalf("unfollowed read = (%d refs, %d, %v)", len(refs), next, lagged)
	}
	// Following later starts at the next completion.
	cur := term.Follow()
	term.Complete("wf", 2*feedSize+1, wfdb.Committed)
	refs, _, _ := term.FinishedSince(cur, nil)
	if len(refs) != 1 || refs[0].ID != 2*feedSize+1 {
		t.Fatalf("first read after Follow = %v", refs)
	}
}

// TestFeedFootprintIsConstant: ten ring sizes of completions leave the feed
// at the ring it allocated on Follow. Measured as heap against the same
// completions on a registry nobody follows, so a feed that kept a growing log
// (10,240 Refs, 240 KiB) fails however it stores it.
func TestFeedFootprintIsConstant(t *testing.T) {
	const n = 10 * feedSize
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	grow := func(follow bool) uint64 {
		before := heap()
		term := new(Terminal)
		footprintSink = term
		if follow {
			term.Follow()
		}
		ring := term.feed.ring.Load()
		for id := 1; id <= n; id++ {
			term.Complete("wf", id, wfdb.Committed)
		}
		if term.feed.ring.Load() != ring {
			t.Fatal("the ring was replaced")
		}
		after := heap()
		footprintSink = nil
		return after - before
	}

	grow(false) // warm-up: a process's first measurement reads low
	plain, followed := grow(false), grow(true)
	const ringBytes = feedSize * 24
	if extra := int64(followed) - int64(plain); extra > 2*ringBytes {
		t.Fatalf("following cost %d bytes over %d completions (%d against %d), the ring is %d",
			extra, n, followed, plain, ringBytes)
	}
}

// footprintSink keeps the measured registry on the heap and alive.
var footprintSink *Terminal

// TestFeedConcurrentCompleteAndRead: completions from several goroutines and
// a follower reading as they land (run under -race). Fewer completions than
// the ring holds, so the follower must see each exactly once, and each
// writer's in the order it made them.
func TestFeedConcurrentCompleteAndRead(t *testing.T) {
	const writers, each = 4, 200
	var term Terminal
	cur := term.Follow()

	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		wf := string(rune('a' + w))
		go func() {
			defer wg.Done()
			for id := 1; id <= each; id++ {
				term.Complete(wf, id, wfdb.Committed)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	last := make(map[string]int)
	var buf []Ref
	read := func() {
		refs, next, lagged := term.FinishedSince(cur, buf[:0])
		if lagged {
			t.Fatal("lagged below the ring's size")
		}
		for _, r := range refs {
			if r.ID != last[r.Workflow]+1 {
				t.Fatalf("%s.%d after %s.%d", r.Workflow, r.ID, r.Workflow, last[r.Workflow])
			}
			last[r.Workflow] = r.ID
		}
		cur, buf = next, refs
	}
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		read()
	}
	read()
	for w := 0; w < writers; w++ {
		if wf := string(rune('a' + w)); last[wf] != each {
			t.Errorf("read %s up to %d, want %d", wf, last[wf], each)
		}
	}
}
