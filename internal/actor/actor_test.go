package actor

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crew/internal/metrics"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// trail is the ordered record of what a turn did.
type trail struct {
	mu     sync.Mutex
	events []string
}

func (t *trail) add(ev string) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

func (t *trail) take() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.events
	t.events = nil
	return out
}

// recStore is the fake committer: it records each commit and hands the batch
// to a memory WFDB, which empties it as the real store does.
type recStore struct {
	tr *trail
	db *wfdb.DB
}

func (s recStore) Commit(b *wfdb.Batch) error {
	s.tr.add("commit")
	return s.db.Commit(b)
}

// row is a dirty instance; the owner-side flag is what makes a second Mark in
// the same turn a no-op.
type row struct {
	tr    *trail
	ins   *wfdb.Instance
	dirty bool
}

func (r *row) Save(tx *wfdb.Batch) {
	if r.dirty {
		r.dirty = false
		r.tr.add("save")
		tx.SaveInstance(r.ins)
	}
}

type fixture struct {
	net *transport.Network
	act *Actor
	tr  *trail
	db  *wfdb.DB
	row *row
	// unacked is the in-flight count seen by each of the actor's sends as
	// the transport accepted it (before the send itself is counted).
	unacked []int64
}

// newFixture builds a network with the actor under test ("node") and a
// drained peer ("sink"), and records the actor's sends from the transport's
// trace hook — the moment a flush hands a message over.
func newFixture(t *testing.T, logf func(string, ...any)) *fixture {
	t.Helper()
	f := &fixture{tr: &trail{}, db: wfdb.NewMemory()}
	f.net = transport.NewNetwork(transport.NetworkConfig{})
	f.row = &row{tr: f.tr, ins: wfdb.NewInstance("WF", 1, nil)}
	sink, err := f.net.Register("sink")
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sink.Inbox() {
		}
	}()
	if logf == nil {
		logf = t.Logf
	}
	f.act, err = New(f.net, "node", recStore{f.tr, f.db}, logf)
	if err != nil {
		t.Fatal(err)
	}
	f.net.Trace(func(m transport.Message) {
		if m.From == "node" {
			f.tr.add("send " + m.Kind)
			f.tr.mu.Lock()
			f.unacked = append(f.unacked, f.net.InFlight())
			f.tr.mu.Unlock()
		}
	})
	t.Cleanup(func() {
		f.net.Close()
		f.act.Stop()
		<-drained
	})
	return f
}

// work is what every kind of turn does in these tests: mark the row twice and
// send one message.
func (f *fixture) work(label string) {
	f.tr.add(label)
	for i := 0; i < 2; i++ {
		f.mark(f.row)
	}
	f.act.Send("sink", metrics.Normal, "Out", label)
}

// mark queues r for the turn's commit unless its dirty flag says it already
// is, as an owner does.
func (f *fixture) mark(r *row) {
	if !r.dirty {
		r.dirty = true
		f.act.Mark(r)
	}
}

// marking launches the actor with a handler that records each message, marks
// the row rows holds under its payload (rowless payloads have none) and sends
// one message to the sink; then, if the handler is given, runs it.
func (f *fixture) marking(rows map[string]*row, then func(payload string)) {
	f.act.Launch(func(m transport.Message) {
		p := m.Payload.(string)
		f.tr.add("handle " + p)
		if r := rows[p]; r != nil {
			f.mark(r)
		}
		f.act.Send("sink", metrics.Normal, "Out", p)
		if then != nil {
			then(p)
		}
	}, nil)
}

// rowsFor gives each payload an instance row of its own.
func (f *fixture) rowsFor(payloads ...string) map[string]*row {
	rows := make(map[string]*row)
	for i, p := range payloads {
		rows[p] = &row{tr: f.tr, ins: wfdb.NewInstance("WF", 10+i, nil)}
	}
	return rows
}

// onePass hands payloads to the actor so that one drain pass takes them all:
// they queue while the node is down, and its recovery wakes it once.
func (f *fixture) onePass(t *testing.T, payloads ...string) {
	t.Helper()
	f.net.Crash("node")
	for _, p := range payloads {
		f.deliver(t, p)
	}
	f.net.Recover("node")
}

// stalled waits until every message in flight is parked at a crashed node: a
// message neither parked nor retired (handled but never acked) times it out.
func (f *fixture) stalled(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if stalled, err := f.net.AwaitStall(ctx); err != nil || !stalled {
		t.Fatalf("AwaitStall = (%v, %v), want every message in flight parked", stalled, err)
	}
}

func (f *fixture) quiesce(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.net.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

func (f *fixture) deliver(t *testing.T, payload any) {
	t.Helper()
	err := f.net.Send(transport.Message{From: "test", To: "node", Mechanism: metrics.Normal, Kind: "In", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
}

func wantTrail(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("turn order = %v, want %v", got, want)
	}
}

// TestMessageTurnOrder: handler, then commit (the dirty row encoded once),
// then flush, then ack — the send is accepted while the message that caused
// it still counts as in flight, and the network goes idle afterwards.
func TestMessageTurnOrder(t *testing.T) {
	f := newFixture(t, nil)
	f.act.Launch(func(m transport.Message) { f.work("handle") }, nil)
	f.deliver(t, "x")
	f.quiesce(t)
	wantTrail(t, f.tr.take(), "handle", "save", "commit", "send Out")
	f.tr.mu.Lock()
	if len(f.unacked) != 1 || f.unacked[0] != 1 {
		t.Errorf("in-flight count at flush = %v, want [1]: the triggering message must still be unacked", f.unacked)
	}
	f.tr.mu.Unlock()
	if _, ok, _ := f.db.LoadInstance("WF", 1); !ok {
		t.Error("marked row was not committed")
	}
}

// TestCommandTurnOrder: by the time Do returns, the command's rows are
// committed and its sends are with the transport.
func TestCommandTurnOrder(t *testing.T) {
	f := newFixture(t, nil)
	f.act.Launch(func(transport.Message) {}, nil)
	f.act.Do(func() { f.work("command") })
	wantTrail(t, f.tr.take(), "command", "save", "commit", "send Out")
	f.quiesce(t)
}

// TestTurnEndHookRunsOncePerTurn: the turn-end hook runs once per turn,
// after its commit and flush, also when a handler sent the actor a message
// that was handled inside the turn.
func TestTurnEndHookRunsOncePerTurn(t *testing.T) {
	f := newFixture(t, nil)
	f.act.OnTurnEnd(func() { f.tr.add("end") })
	f.act.Launch(func(m transport.Message) {
		if m.Payload == "self" {
			f.tr.add("self")
			return
		}
		f.work("handle")
		f.act.Send("node", metrics.Normal, "In", "self")
	}, nil)
	f.deliver(t, "x")
	f.quiesce(t)
	wantTrail(t, f.tr.take(), "handle", "self", "save", "commit", "send Out", "end")
	f.act.Do(func() { f.work("command") })
	wantTrail(t, f.tr.take(), "command", "save", "commit", "send Out", "end")
}

// TestTimerTurn covers the timer's turn (tick, commit, flush, and no ack:
// the in-flight count returns to zero, not below) and its arming rule: never
// while the owner reports idle, again only once it reports work.
func TestTimerTurn(t *testing.T) {
	f := newFixture(t, nil)
	var busy atomic.Bool
	var ticks atomic.Int32
	ticked := make(chan struct{}, 1)
	f.act.Launch(func(transport.Message) {}, &Timer{
		Every: time.Millisecond,
		Busy:  busy.Load,
		Tick: func() {
			ticks.Add(1)
			busy.Store(false)
			f.work("tick")
			ticked <- struct{}{}
		},
	})
	// Idle owner: turns come and go, the timer stays unarmed.
	for i := 0; i < 3; i++ {
		f.act.Do(func() {})
	}
	time.Sleep(30 * time.Millisecond)
	if n := ticks.Load(); n != 0 {
		t.Fatalf("timer fired %d times while the owner was idle", n)
	}
	f.tr.take()

	f.act.Do(func() { busy.Store(true) })
	select {
	case <-ticked:
	case <-time.After(10 * time.Second):
		t.Fatal("timer never fired for a busy owner")
	}
	f.act.Do(func() {}) // the tick's epilogue precedes any later turn
	got := f.tr.take()
	wantTrail(t, got[1:], "tick", "save", "commit", "send Out", "commit")
	f.quiesce(t)
	if n := f.net.InFlight(); n != 0 {
		t.Errorf("in-flight = %d after a timer turn, want 0 (a timer turn has nothing to ack)", n)
	}
	time.Sleep(30 * time.Millisecond)
	if n := ticks.Load(); n != 1 {
		t.Errorf("timer fired %d times, want once: the owner went idle in the tick", n)
	}
}

// TestIdleActorTakesNoTrailingTick: a timer an earlier turn armed fires for
// an owner a later turn left idle, and no tick runs.
func TestIdleActorTakesNoTrailingTick(t *testing.T) {
	f := newFixture(t, nil)
	busy := false // owned by the turns
	var ticks atomic.Int32
	f.act.Launch(func(transport.Message) {}, &Timer{
		Every: 20 * time.Millisecond,
		Busy:  func() bool { return busy },
		Tick:  func() { ticks.Add(1) },
	})
	f.act.Do(func() { busy = true })  // arms the timer
	f.act.Do(func() { busy = false }) // the owner is idle again
	time.Sleep(100 * time.Millisecond)
	if n := ticks.Load(); n != 0 {
		t.Fatalf("an idle actor took %d ticks", n)
	}
	f.act.Do(func() { busy = true }) // arms it again, and it fires
	for deadline := time.Now().Add(10 * time.Second); ticks.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the timer never fired once the owner was busy again")
		}
	}
}

// TestDoAsyncFromHandlerIsItsOwnTurn: a command scheduled inside a handler
// runs after the handler's epilogue, with an epilogue of its own.
func TestDoAsyncFromHandlerIsItsOwnTurn(t *testing.T) {
	f := newFixture(t, nil)
	ran := make(chan struct{})
	f.act.Launch(func(transport.Message) {
		f.tr.add("handle")
		f.act.DoAsync(func() {
			f.tr.add("async")
			close(ran)
		})
	}, nil)
	f.deliver(t, "x")
	<-ran
	f.act.Do(func() {})
	wantTrail(t, f.tr.take(), "handle", "commit", "async", "commit", "commit")
}

// TestCommandRunsBetweenBatchedMessages: three messages that reach the actor
// as one batch of its drain pass (they queued while the node was down) are
// still three turns, and a command queued during the first runs before the
// second, not after the batch.
func TestCommandRunsBetweenBatchedMessages(t *testing.T) {
	f := newFixture(t, nil)
	started, release := make(chan struct{}), make(chan struct{})
	f.act.Launch(func(m transport.Message) {
		f.tr.add("handle " + m.Payload.(string))
		if m.Payload == "a" {
			close(started)
			<-release
		}
	}, nil)
	f.net.Crash("node")
	for _, p := range []string{"a", "b", "c"} {
		f.deliver(t, p)
	}
	f.net.Recover("node")
	<-started
	f.act.DoAsync(func() { f.tr.add("command") })
	close(release)
	f.quiesce(t)
	wantTrail(t, f.tr.take(), "handle a", "commit", "command", "commit", "handle b", "commit", "handle c", "commit")
}

// TestPassSharesOneCommit: three messages drained in one pass that each leave
// a row are one group: one commit holding the three rows, no send before it,
// and the three acks after the flush. The sink is down, so what the flush
// hands over stays countable.
func TestPassSharesOneCommit(t *testing.T) {
	f := newFixture(t, nil)
	rows := f.rowsFor("a", "b", "c")
	f.marking(rows, nil)
	f.net.Crash("sink")
	f.onePass(t, "a", "b", "c")
	f.stalled(t)
	wantTrail(t, f.tr.take(), "handle a", "handle b", "handle c", "save", "save", "save", "commit",
		"send Out", "send Out", "send Out")
	f.tr.mu.Lock()
	if want := []int64{3, 3, 3}; !reflect.DeepEqual(f.unacked, want) {
		t.Errorf("in-flight count at each send = %v, want %v: every message of the group is acked after the flush", f.unacked, want)
	}
	f.tr.mu.Unlock()
	if n := f.net.InFlight(); n != 1 {
		t.Errorf("in-flight = %d after the pass, want 1 (the sink's envelope): three acks", n)
	}
	for p, r := range rows {
		if _, ok, _ := f.db.LoadInstance("WF", r.ins.ID); !ok {
			t.Errorf("row of %s was not committed", p)
		}
	}
	f.net.Recover("sink")
	f.quiesce(t)
}

// TestRowlessTurnEndsAtOnce: a message that leaves nothing to commit, with no
// group pending, ends at once — its send leaves before the next message of the
// pass is handled. Once a message left a row, the rowless one behind it joins
// that message's group.
func TestRowlessTurnEndsAtOnce(t *testing.T) {
	f := newFixture(t, nil)
	f.marking(f.rowsFor("c"), nil)
	f.onePass(t, "a", "b", "c", "d")
	f.quiesce(t)
	wantTrail(t, f.tr.take(),
		"handle a", "commit", "send Out",
		"handle b", "commit", "send Out",
		"handle c", "handle d", "save", "commit", "send Out", "send Out")
}

// TestCommandWaitsForPendingGroup: a command queued by the first of two
// row-marking messages runs after that message is committed, flushed and
// acked, and before the second is handled.
func TestCommandWaitsForPendingGroup(t *testing.T) {
	f := newFixture(t, nil)
	var inFlight, parked int64
	f.marking(f.rowsFor("a", "b"), func(p string) {
		if p == "a" {
			f.act.DoAsync(func() {
				f.tr.add("command")
				inFlight, parked = f.net.InFlight(), f.net.Parked()
			})
		}
	})
	f.net.Crash("sink")
	f.onePass(t, "a", "b")
	f.stalled(t)
	wantTrail(t, f.tr.take(),
		"handle a", "save", "commit", "send Out",
		"command", "commit",
		"handle b", "save", "commit", "send Out")
	if inFlight != 2 || parked != 1 {
		t.Errorf("command saw %d in flight, %d parked; want 2 and 1 (b, and a's send): a acked first", inFlight, parked)
	}
	f.net.Recover("sink")
	f.quiesce(t)
}

// TestCrashMidPassCommitsHandledPrefix: a crash that cuts a pass short commits
// and acks what the pass handled; the rest is parked and, after recovery,
// handled as a group of its own.
func TestCrashMidPassCommitsHandledPrefix(t *testing.T) {
	f := newFixture(t, nil)
	rows := f.rowsFor("a", "b", "c")
	f.marking(rows, func(p string) {
		if p == "a" {
			f.net.Crash("node")
		}
	})
	f.net.Crash("sink")
	f.onePass(t, "a", "b", "c")
	f.stalled(t)
	wantTrail(t, f.tr.take(), "handle a", "save", "commit", "send Out")
	if n, q := f.net.InFlight(), f.net.QueuedFor("node"); n != 3 || q != 2 {
		t.Errorf("after the cut: %d in flight, %d queued at the node; want 3 (b, c, a's send) and 2", n, q)
	}
	for p, want := range map[string]bool{"a": true, "b": false, "c": false} {
		if _, ok, _ := f.db.LoadInstance("WF", rows[p].ins.ID); ok != want {
			t.Errorf("row of %s on file = %v, want %v", p, ok, want)
		}
	}
	f.net.Recover("node")
	f.stalled(t)
	wantTrail(t, f.tr.take(), "handle b", "handle c", "save", "save", "commit", "send Out", "send Out")
	f.net.Recover("sink")
	f.quiesce(t)
}

// TestCloseDrainsQueuedCommands: commands queued behind a running turn when
// the network closes still run before the goroutine exits.
func TestCloseDrainsQueuedCommands(t *testing.T) {
	f := newFixture(t, nil)
	f.act.Launch(func(transport.Message) {}, nil)
	started, release := make(chan struct{}), make(chan struct{})
	f.act.DoAsync(func() {
		close(started)
		<-release
	})
	<-started
	var ran atomic.Int32
	for i := 0; i < 3; i++ {
		f.act.DoAsync(func() { ran.Add(1) })
	}
	f.net.Close()
	close(release)
	f.act.Stop()
	if n := ran.Load(); n != 3 {
		t.Errorf("%d of 3 queued commands ran before Stop returned", n)
	}
}

// TestEnvelopeIsOneTurn: N logical messages in one envelope are N handler
// calls, one epilogue, and one Release after the last handler.
func TestEnvelopeIsOneTurn(t *testing.T) {
	f := newFixture(t, nil)
	var seen []string
	f.act.Launch(func(m transport.Message) {
		f.tr.add("handle")
		seen = append(seen, m.Payload.(string))
	}, nil)
	h, err := f.net.Handle("node")
	if err != nil {
		t.Fatal(err)
	}
	env := transport.NewEnvelope()
	for _, p := range []string{"a", "b", "c"} {
		env.Msgs = append(env.Msgs, transport.Message{From: "test", To: "node", Mechanism: metrics.Normal, Kind: "In", Payload: p})
	}
	if err := h.SendBatch(env); err != nil {
		t.Fatal(err)
	}
	f.quiesce(t)
	wantTrail(t, f.tr.take(), "handle", "handle", "handle", "commit")
	if strings.Join(seen, "") != "abc" {
		t.Errorf("handled payloads %v, want a b c: the envelope was released before its messages were handled", seen)
	}
	if len(env.Msgs) != 0 {
		t.Errorf("envelope still holds %d messages after its turn: not released", len(env.Msgs))
	}
	// Released twice, the pool could hand the same envelope to two owners.
	if a, b := transport.NewEnvelope(), transport.NewEnvelope(); a == b {
		t.Error("envelope pool returned one envelope twice: released more than once")
	}
}

// TestSendFailureIsLogged: an unknown destination is reported through Logf
// and does not disturb the turn.
func TestSendFailureIsLogged(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	f := newFixture(t, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	})
	f.act.Launch(func(transport.Message) {
		f.act.Send("nobody", metrics.Normal, "Out", nil)
	}, nil)
	f.deliver(t, "x")
	f.quiesce(t)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "send ") {
		t.Errorf("log lines = %q, want one send failure", lines)
	}
}

// inMsg is a message as a connection's reader would hand it to Deliver.
func inMsg(payload any) transport.Message {
	return transport.Message{From: "test", To: "node", Mechanism: metrics.Normal, Kind: "In", Payload: payload}
}

// TestDeliverTurnIsExclusive: Deliver runs the handler on the caller's
// goroutine, and a turn entered that way never overlaps a timer tick or a
// command. The in-turn flag is a plain bool, so under -race an overlap is a
// reported race as well as a failed check.
func TestDeliverTurnIsExclusive(t *testing.T) {
	f := newFixture(t, nil)
	var (
		inTurn                 bool
		handled, ticks, cmds   int
		onCaller, seenT, seenC int // the test's copies, taken inside a delivered turn
		enter                  = func() {
			if inTurn {
				t.Error("two turns at once")
			}
			inTurn = true
		}
	)
	stack := make([]byte, 16<<10)
	f.act.Launch(func(transport.Message) {
		enter()
		handled++
		if strings.Contains(string(stack[:runtime.Stack(stack, false)]), "TestDeliverTurnIsExclusive") {
			onCaller++
		}
		seenT, seenC = ticks, cmds
		inTurn = false
	}, &Timer{
		Every: time.Millisecond,
		Busy:  func() bool { return true },
		Tick: func() {
			enter()
			ticks++
			inTurn = false
		},
	})
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				f.act.Do(func() {
					enter()
					cmds++
					inTurn = false
				})
			}
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for n := 0; n < 1000 || seenT == 0 || seenC == 0; n++ {
		if time.Now().After(deadline) {
			t.Fatalf("after %d deliveries: %d ticks and %d commands ran between them, want both", n, seenT, seenC)
		}
		f.act.Deliver(inMsg("x"))
	}
	close(stop)
	<-stopped
	if onCaller != handled {
		t.Errorf("%d of %d handlers ran on the goroutine that called Deliver", onCaller, handled)
	}
}

// TestDeliverTurnArmsTimer: the delivered turn that makes the owner busy arms
// the timer, and it fires with no mailbox traffic and no command at all.
func TestDeliverTurnArmsTimer(t *testing.T) {
	f := newFixture(t, nil)
	busy := false // owned by the turn
	var ticks atomic.Int32
	ticked := make(chan struct{}, 1)
	f.act.Launch(func(m transport.Message) { busy = m.Payload == "work" }, &Timer{
		Every: time.Millisecond,
		Busy:  func() bool { return busy },
		Tick: func() {
			ticks.Add(1)
			busy = false
			f.work("tick")
			ticked <- struct{}{}
		},
	})
	f.act.Deliver(inMsg("nothing"))
	time.Sleep(30 * time.Millisecond)
	if n := ticks.Load(); n != 0 {
		t.Fatalf("timer fired %d times for an idle owner", n)
	}
	f.act.Deliver(inMsg("work"))
	select {
	case <-ticked:
	case <-time.After(10 * time.Second):
		t.Fatal("timer never fired: the delivered turn did not arm it")
	}
	f.act.Deliver(inMsg("nothing")) // a turn behind the tick's: its epilogue is over
	got := f.tr.take()
	wantTrail(t, got[2:], "tick", "save", "commit", "send Out", "commit")
	time.Sleep(30 * time.Millisecond)
	if n := ticks.Load(); n != 1 {
		t.Errorf("timer fired %d times, want once: the owner went idle in the tick", n)
	}
}

// TestDeliverTurnCommitPrecedesDirectSend is the order an agent process relies
// on: by the time Deliver returns the turn's rows are committed and its sends
// have been through the destination's function, in that order, with no
// goroutine in between to wait for.
func TestDeliverTurnCommitPrecedesDirectSend(t *testing.T) {
	f := newFixture(t, nil)
	err := f.net.RegisterDirect("hub", func(m transport.Message) { f.tr.add("wire " + m.Kind) })
	if err != nil {
		t.Fatal(err)
	}
	f.act.Launch(func(transport.Message) {
		f.work("handle")
		f.act.Send("hub", metrics.Normal, "Packet", nil)
	}, nil)
	f.act.Deliver(inMsg("x"))
	wantTrail(t, f.tr.take(), "handle", "save", "commit", "send Out", "send Packet", "wire Packet")
	if n := f.net.InFlight(); n > 1 {
		t.Errorf("in-flight = %d: a direct node holds nothing, only the message to sink may be waiting", n)
	}
	f.quiesce(t)
}

// TestDeliverTurnRunsQueuedCommands: a command a handler queues runs, as a
// turn of its own, before Deliver returns.
func TestDeliverTurnRunsQueuedCommands(t *testing.T) {
	f := newFixture(t, nil)
	f.act.Launch(func(transport.Message) {
		f.tr.add("handle")
		f.act.DoAsync(func() { f.tr.add("async") })
	}, nil)
	f.act.Deliver(inMsg("x"))
	wantTrail(t, f.tr.take(), "handle", "commit", "async", "commit")
}

// panicStore is a committer no turn may reach.
type panicStore struct{}

func (*panicStore) Commit(*wfdb.Batch) error { panic("commit through a nil committer") }

// TestNilCommitterIsNoStore: a nil committer of any type, an unset *wfdb.DB
// among them, is no store. A turn that adds rows through Tx and marks a row
// commits through nothing, and ends with the batch empty and the mark cleared.
func TestNilCommitterIsNoStore(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store Committer
	}{
		{"nil", nil},
		{"nil *wfdb.DB", (*wfdb.DB)(nil)},
		{"nil pointer", (*panicStore)(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewNetwork(transport.NetworkConfig{})
			act, err := New(net, "node", tc.store, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			act.Launch(func(transport.Message) {}, nil)
			t.Cleanup(func() {
				net.Close()
				act.Stop()
			})
			tr := &trail{}
			r := &row{tr: tr, ins: wfdb.NewInstance("WF", 1, nil), dirty: true}
			act.Do(func() {
				act.Tx().Archive(r.ins)
				act.Tx().DeleteInstance("WF", 1)
				act.Mark(r)
			})
			var left int
			act.Do(func() { left = act.Tx().Len() })
			if left != 0 {
				t.Errorf("%d rows left in the batch after the turn, want none", left)
			}
			if r.dirty {
				t.Error("the marked row is still dirty after the turn")
			}
		})
	}
}

// TestTickDueDuringBlockedTurnRunsOnce: a tick that comes due while a message
// turn is blocked runs once, after that turn's epilogue. The timer is armed
// by the first message of the pass, so the second is handled before the tick
// can run.
func TestTickDueDuringBlockedTurnRunsOnce(t *testing.T) {
	f := newFixture(t, nil)
	var busy atomic.Bool
	var ticks atomic.Int32
	started, release, ticked := make(chan struct{}), make(chan struct{}), make(chan struct{}, 1)
	f.act.Launch(func(m transport.Message) {
		f.tr.add("handle " + m.Payload.(string))
		switch m.Payload {
		case "arm":
			busy.Store(true)
		case "block":
			close(started)
			<-release
		}
	}, &Timer{
		Every: time.Millisecond,
		Busy:  busy.Load,
		Tick: func() {
			ticks.Add(1)
			busy.Store(false)
			f.tr.add("tick")
			select {
			case ticked <- struct{}{}:
			default: // a second tick is counted, not waited for
			}
		},
	})
	f.onePass(t, "arm", "block")
	<-started
	for deadline := time.Now().Add(10 * time.Second); !f.act.due.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the timer never came due")
		}
	}
	if n := ticks.Load(); n != 0 {
		t.Fatalf("tick ran %d times during a blocked turn", n)
	}
	close(release)
	<-ticked
	f.act.Do(func() {}) // behind the tick's epilogue
	time.Sleep(10 * time.Millisecond)
	if n := ticks.Load(); n != 1 {
		t.Errorf("tick ran %d times, want once", n)
	}
	wantTrail(t, f.tr.take(), "handle arm", "commit", "handle block", "commit", "tick", "commit", "commit")
}

// TestOneWakeRunsPassThenTickThenCommand: what is pending when the loop wakes
// runs in the order drain pass, tick, commands. A command already queued when
// the pass handles a message runs right after that message's turn, as any
// command does (TestCommandRunsBetweenBatchedMessages), so it still precedes
// the tick; with no message pending, the tick runs first. The test holds the
// turn lock, as a turn would, while the work arrives, and makes the tick due
// as the timer's callback does (TestTickDueDuringBlockedTurnRunsOnce runs
// the callback itself).
func TestOneWakeRunsPassThenTickThenCommand(t *testing.T) {
	for _, tc := range []struct {
		name    string
		message bool
		want    []string
	}{
		{"tick and command", false, []string{"tick", "commit", "command", "commit"}},
		{"message, tick and command", true, []string{"handle m", "commit", "command", "commit", "tick", "commit"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, nil)
			ticked := make(chan struct{})
			f.act.Launch(func(m transport.Message) { f.tr.add("handle " + m.Payload.(string)) }, &Timer{
				Every: time.Hour,
				Busy:  func() bool { return true }, // an idle owner takes no tick
				Tick: func() {
					f.tr.add("tick")
					close(ticked)
				},
			})
			f.act.turnMu.Lock()
			if tc.message {
				f.deliver(t, "m")
			}
			f.act.DoAsync(func() { f.tr.add("command") })
			f.act.due.Store(true)
			f.act.ep.Nudge()
			f.act.turnMu.Unlock()
			<-ticked
			f.act.Do(func() {}) // behind the tick's epilogue and the command
			wantTrail(t, f.tr.take(), append(tc.want, "commit")...)
		})
	}
}

// TestNoTickAfterStop: once the network is closed and Stop has returned, an
// armed timer that fires only marks the tick due and sets the wake token;
// nothing runs the tick.
func TestNoTickAfterStop(t *testing.T) {
	f := newFixture(t, nil)
	var ticks atomic.Int32
	f.act.Launch(func(transport.Message) {}, &Timer{
		Every: time.Hour,
		Busy:  func() bool { return true },
		Tick:  func() { ticks.Add(1) },
	})
	f.act.Do(func() {}) // arms the timer
	f.net.Close()
	f.act.Stop()
	f.act.clock.Reset(time.Millisecond) // the callback fires after all
	for deadline := time.Now().Add(10 * time.Second); !f.act.due.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the timer's callback never ran")
		}
	}
	time.Sleep(10 * time.Millisecond)
	if n := ticks.Load(); n != 0 {
		t.Errorf("tick ran %d times after Stop", n)
	}
	select {
	case <-f.act.ep.Wake():
	default:
		t.Error("the callback left no wake token")
	}
}
