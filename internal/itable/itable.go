// Package itable provides the sharded instance-state tables behind the
// steady-state runtime layer: a generic fixed-shard map keyed by
// (workflow, id) for cross-goroutine routing state (owners, coordinator
// names, next-id counters), and Terminal, a sharded terminal-status
// registry with pooled, generation-stamped completion waiters.
//
// Shards are fixed at construction (a power of two) and each shard is
// guarded by its own mutex, so concurrent Start / event-delivery / Wait
// traffic for different instances does not contend on a single lock.
// Sharding is an implementation detail of one logical table: it adds no
// control nodes and sends no messages, so the paper's per-architecture
// message and load columns (Tables 3-7) are unaffected.
package itable

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crew/internal/cerrors"
	"crew/internal/wfdb"
)

// shardCount is the fixed number of shards. A power of two so the shard
// index is a mask, sized well past the core counts the simulator runs at.
const shardCount = 64

// Ref names one workflow instance.
type Ref struct {
	Workflow string
	ID       int
}

// shardOf hashes a (workflow, id) pair onto a shard. The workflow name is
// FNV-1a hashed once and the id is folded in additively, which both spreads
// sequential ids of one workflow across all shards and keeps the residue
// class of ids within a shard fixed — the property Terminal's dense status
// vectors index by.
func shardOf(workflow string, id int) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(workflow); i++ {
		h ^= uint32(workflow[i])
		h *= 16777619
	}
	return (h + uint32(id)) & (shardCount - 1)
}

// Map is a fixed-shard concurrent map keyed by instance Ref. Workflow-level
// entries (for example per-workflow id counters) use ID 0.
type Map[V any] struct {
	shards [shardCount]mapShard[V]
}

type mapShard[V any] struct {
	mu sync.RWMutex
	m  map[Ref]V
}

// Get returns the value stored for ref, if any.
func (t *Map[V]) Get(ref Ref) (V, bool) {
	s := &t.shards[shardOf(ref.Workflow, ref.ID)]
	s.mu.RLock()
	v, ok := s.m[ref]
	s.mu.RUnlock()
	return v, ok
}

// Put stores v for ref.
func (t *Map[V]) Put(ref Ref, v V) {
	s := &t.shards[shardOf(ref.Workflow, ref.ID)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[Ref]V)
	}
	s.m[ref] = v
	s.mu.Unlock()
}

// Delete removes ref's entry, reporting whether one existed.
func (t *Map[V]) Delete(ref Ref) bool {
	s := &t.shards[shardOf(ref.Workflow, ref.ID)]
	s.mu.Lock()
	_, ok := s.m[ref]
	if ok {
		delete(s.m, ref)
	}
	s.mu.Unlock()
	return ok
}

// Update applies fn to the current value (zero value if absent) under the
// shard lock and stores the result, returning it. Used for atomic
// read-modify-write of counters such as per-workflow next ids.
func (t *Map[V]) Update(ref Ref, fn func(v V, ok bool) V) V {
	s := &t.shards[shardOf(ref.Workflow, ref.ID)]
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[Ref]V)
	}
	v, ok := s.m[ref]
	v = fn(v, ok)
	s.m[ref] = v
	s.mu.Unlock()
	return v
}

// Len reports the total number of entries across all shards.
func (t *Map[V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Each shard is
// snapshotted under its lock before fn runs, so fn may call back into the
// map.
func (t *Map[V]) Range(fn func(ref Ref, v V) bool) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		refs := make([]Ref, 0, len(s.m))
		vals := make([]V, 0, len(s.m))
		for r, v := range s.m {
			refs = append(refs, r)
			vals = append(vals, v)
		}
		s.mu.RUnlock()
		for j, r := range refs {
			if !fn(r, vals[j]) {
				return
			}
		}
	}
}

// denseLimit bounds the ids recorded in the dense per-workflow status
// vectors; larger ids (nested children are numbered parentID*1000+attempt)
// fall back to a sparse map so one huge id cannot balloon the vector.
const denseLimit = 1 << 20

// Terminal is the push-based completion registry: a sharded table mapping
// every finished instance to its terminal status, plus per-instance waiter
// channels closed exactly once when the instance commits or aborts.
//
// Status storage is deliberately tiny — one byte per instance in a dense
// per-workflow vector — so the registry stays resident after the instance
// itself has been archived and evicted, and resident memory stays flat
// under an unbounded instance stream.
//
// Waiters are pooled and generation-stamped: a waiter returned to the pool
// bumps its generation, so a stale Unsubscribe (for example a context
// cancellation racing a recycle) can never release a later subscriber's
// waiter.
//
// Followers (Follow, FinishedSince) read the recent completions in order from
// a fixed ring, the completion feed, which exists only once somebody follows.
//
// An owner completing an instance somebody waits for may hand its final state
// over (CompleteWith) for the first reader to Take. Each shard holds one such
// hand-off, so at most shardCount instances are kept for readers that never
// come, whatever the length of the instance stream.
type Terminal struct {
	shards [shardCount]termShard
	feed   feed
}

// feedSize is how many recent completions the feed keeps (24 KiB of Refs):
// a follower further behind than this is told it lagged. The footprint is
// this constant, whatever the length of the instance stream.
const feedSize = 1024

// feed is the ring of recent completions. seq counts the completions
// appended so far, which makes it the sequence number of the next one; the
// entry of sequence number s sits at ring[s%feedSize]. Appends and copies
// out hold mu; seq is atomic only so a follower with nothing new takes no
// lock.
type feed struct {
	mu   sync.Mutex
	ring atomic.Pointer[[feedSize]Ref]
	seq  atomic.Uint64
}

type termShard struct {
	mu     sync.Mutex
	dense  map[string][]byte // workflow -> status+1, indexed by id>>6
	sparse map[Ref]wfdb.Status
	waits  map[Ref]*Waiter
	count  int
	handed handOff
}

// handOff is a shard's one slot for a completed instance's final state; a
// later hand-off in the shard replaces one nobody took.
type handOff struct {
	ref Ref
	ins *wfdb.Instance
}

// Waiter is a pooled completion handle. Done is closed when the instance
// reaches a terminal status; Result is valid after Done is closed.
type Waiter struct {
	gen  uint64
	refs int
	st   wfdb.Status
	done chan struct{}
}

// Done returns the channel closed at terminal status.
func (w *Waiter) Done() <-chan struct{} { return w.done }

// Result returns the terminal status. Only valid after Done is closed.
func (w *Waiter) Result() wfdb.Status { return w.st }

var waiterPool = sync.Pool{New: func() any {
	return &Waiter{done: make(chan struct{})}
}}

// Status reports the recorded terminal status of the instance, if any.
func (t *Terminal) Status(workflow string, id int) (wfdb.Status, bool) {
	s := &t.shards[shardOf(workflow, id)]
	s.mu.Lock()
	st, ok := s.status(workflow, id)
	s.mu.Unlock()
	return st, ok
}

// status reads the shard's record for (workflow, id). Caller holds s.mu.
func (s *termShard) status(workflow string, id int) (wfdb.Status, bool) {
	if id > 0 && id < denseLimit {
		if vec := s.dense[workflow]; id>>6 < len(vec) {
			if b := vec[id>>6]; b != 0 {
				return wfdb.Status(b - 1), true
			}
		}
		return 0, false
	}
	st, ok := s.sparse[Ref{workflow, id}]
	return st, ok
}

// setStatus records st for (workflow, id). Caller holds s.mu. Reports
// whether this was the first record (false on duplicate Complete).
func (s *termShard) setStatus(workflow string, id int, st wfdb.Status) bool {
	if id > 0 && id < denseLimit {
		if s.dense == nil {
			s.dense = make(map[string][]byte)
		}
		vec := s.dense[workflow]
		if idx := id >> 6; idx >= len(vec) {
			grown := make([]byte, idx+1)
			copy(grown, vec)
			vec = grown
			s.dense[workflow] = vec
		}
		if s.dense[workflow][id>>6] != 0 {
			return false
		}
		s.dense[workflow][id>>6] = byte(st) + 1
		return true
	}
	if s.sparse == nil {
		s.sparse = make(map[Ref]wfdb.Status)
	}
	if _, ok := s.sparse[Ref{workflow, id}]; ok {
		return false
	}
	s.sparse[Ref{workflow, id}] = st
	return true
}

// Complete records the terminal status for an instance, appends it to the
// completion feed when the registry is followed, and closes its waiter, if
// any, waking every subscriber. Duplicate completions keep the first status
// and are otherwise no-ops.
func (t *Terminal) Complete(workflow string, id int, st wfdb.Status) {
	t.CompleteWith(workflow, id, st, nil)
}

// CompleteWith is Complete, and if somebody waits for the instance and final
// is not nil, it also hands final to the first Take. From the call on, final
// belongs to whoever takes it: the caller must not read or write it again.
func (t *Terminal) CompleteWith(workflow string, id int, st wfdb.Status, final *wfdb.Instance) {
	s := &t.shards[shardOf(workflow, id)]
	ref := Ref{workflow, id}
	s.mu.Lock()
	if !s.setStatus(workflow, id, st) {
		s.mu.Unlock()
		return
	}
	s.count++
	w := s.waits[ref]
	if w != nil {
		delete(s.waits, ref)
		if final != nil {
			s.handed = handOff{ref, final}
		}
	}
	s.mu.Unlock()
	// The status is readable before the feed names the instance, and the feed
	// names it before any waiter wakes: a follower that has read past it finds
	// it terminal, and a woken waiter finds it in the feed.
	if ring := t.feed.ring.Load(); ring != nil {
		t.feed.mu.Lock()
		seq := t.feed.seq.Load()
		ring[seq%feedSize] = ref
		t.feed.seq.Store(seq + 1)
		t.feed.mu.Unlock()
	}
	if w != nil {
		// Publish the status before the close: subscribers observe st via
		// the happens-before edge of the channel close. A completed waiter
		// is never pooled (its done channel is spent), so this write can
		// never race a recycled use.
		w.st = st
		close(w.done)
	}
}

// Take returns the final state CompleteWith handed over for the instance and
// clears the slot, so only the first call gets it; nil when there is none (no
// waiter at completion, already taken, or replaced by a later hand-off).
func (t *Terminal) Take(workflow string, id int) *wfdb.Instance {
	s := &t.shards[shardOf(workflow, id)]
	var ins *wfdb.Instance
	s.mu.Lock()
	if h := s.handed; h.ins != nil && h.ref.ID == id && h.ref.Workflow == workflow {
		ins, s.handed = h.ins, handOff{}
	}
	s.mu.Unlock()
	return ins
}

// Subscribe registers interest in an instance's completion. If the
// instance is already terminal it returns (st, true, nil, 0) and nothing
// needs releasing. Otherwise it returns a waiter and the generation stamp
// that must be passed back to Unsubscribe if the caller stops waiting
// before Done closes; after Done closes no Unsubscribe is needed.
func (t *Terminal) Subscribe(workflow string, id int) (st wfdb.Status, done bool, w *Waiter, gen uint64) {
	s := &t.shards[shardOf(workflow, id)]
	ref := Ref{workflow, id}
	s.mu.Lock()
	if st, ok := s.status(workflow, id); ok {
		s.mu.Unlock()
		return st, true, nil, 0
	}
	w = s.waits[ref]
	if w == nil {
		w = waiterPool.Get().(*Waiter)
		if s.waits == nil {
			s.waits = make(map[Ref]*Waiter)
		}
		s.waits[ref] = w
	}
	w.refs++
	gen = w.gen
	s.mu.Unlock()
	return 0, false, w, gen
}

// Unsubscribe releases one Subscribe reference for a waiter whose Done
// never closed (context cancellation, timeout). The generation stamp makes
// stale calls — racing a Complete that already detached the waiter, or
// arriving after the waiter was recycled for a new instance — harmless.
func (t *Terminal) Unsubscribe(workflow string, id int, w *Waiter, gen uint64) {
	s := &t.shards[shardOf(workflow, id)]
	ref := Ref{workflow, id}
	s.mu.Lock()
	cur, ok := s.waits[ref]
	if !ok || cur != w || w.gen != gen {
		s.mu.Unlock()
		return
	}
	w.refs--
	if w.refs > 0 {
		s.mu.Unlock()
		return
	}
	delete(s.waits, ref)
	w.gen++ // invalidate outstanding stamps before the recycle
	s.mu.Unlock()
	waiterPool.Put(w)
}

// Wait blocks until the instance reaches a terminal status or ctx ends: the
// one wait contract of every front end. Completion is push-based (a
// subscription woken by Complete; nothing polls). older, when non-nil, is
// asked once about an instance the registry has no record of: one that
// finished under an earlier incarnation exists only as a database archive
// row and will never be completed here. An expired ctx wins even when the
// terminal status lands at the same instant, so the outcome of a deadline is
// deterministic: a deadline is reported as cerrors.ErrTimeout
// (errors.Is-matchable), a cancellation as ctx.Err().
func (t *Terminal) Wait(ctx context.Context, workflow string, id int, older func() (wfdb.Status, bool)) (wfdb.Status, error) {
	st, done, w, gen := t.Subscribe(workflow, id)
	if done {
		return st, nil
	}
	if older != nil {
		if st, ok := older(); ok && st != wfdb.Running {
			t.Unsubscribe(workflow, id, w, gen)
			return st, nil
		}
	}
	select {
	case <-w.Done():
		if ctx.Err() == nil {
			return w.Result(), nil
		}
	case <-ctx.Done():
		t.Unsubscribe(workflow, id, w, gen)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return 0, fmt.Errorf("%w: %s.%d", cerrors.ErrTimeout, workflow, id)
	}
	return 0, ctx.Err()
}

// Follow starts the completion feed, allocating its ring on the first call,
// and returns the cursor of the next completion. A follower passes its cursor
// to FinishedSince and keeps the one that call returns. Completions recorded
// before the first Follow are not in the feed.
func (t *Terminal) Follow() uint64 {
	t.feed.mu.Lock()
	defer t.feed.mu.Unlock()
	if t.feed.ring.Load() == nil {
		t.feed.ring.Store(new([feedSize]Ref))
	}
	return t.feed.seq.Load()
}

// FinishedSince appends to buf the instances completed from cursor on, oldest
// first, and returns the result with the cursor to pass next time. lagged
// reports that some of those completions have already left the ring; nothing
// is appended then, and the caller must find what finished through Status.
// With nothing new it takes no lock.
func (t *Terminal) FinishedSince(cursor uint64, buf []Ref) (refs []Ref, next uint64, lagged bool) {
	if t.feed.seq.Load() == cursor {
		return buf, cursor, false
	}
	t.feed.mu.Lock()
	next = t.feed.seq.Load()
	// A cursor ahead of seq was not handed out here; it wraps to a huge
	// distance and is treated as lagged too.
	if lagged = next-cursor > feedSize; !lagged {
		ring := t.feed.ring.Load()
		for s := cursor; s != next; s++ {
			buf = append(buf, ring[s%feedSize])
		}
	}
	t.feed.mu.Unlock()
	return buf, next, lagged
}

// Len reports the number of recorded terminal instances.
func (t *Terminal) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.count
		s.mu.Unlock()
	}
	return n
}

// Waiting reports the number of instances with live waiters, for tests.
func (t *Terminal) Waiting() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.waits)
		s.mu.Unlock()
	}
	return n
}
