// Package actor is the one runtime shell under the three control
// architectures. The paper's point in §6 is that the same navigation, failure
// handling and coordination run centralized, parallel or distributed, the
// architectures differing only in where state lives and who talks to whom;
// accordingly an engine, an application agent and a distributed agent are the
// same kind of thing at run time — a named node whose state is owned by one
// goroutine — and this package is that thing, once.
//
// An Actor registers a manual-ack endpoint, runs the node's goroutine (it
// drains its own mailbox, so a message reaches its handler with no goroutine
// in between; command queue; an optional on-demand timer; all three set one
// wake token), unwraps envelopes into logical messages, batches the turn's
// sends per destination and collects the turn's WFDB rows. A turn has three
// entries: a message out of the mailbox, a command or timer tick, both on the
// actor's goroutine, and Deliver, for an actor whose messages arrive on a
// connection: the connection's reader runs the turn itself. The turn lock
// makes the three one owner at a time. Every turn ends in endTurn, which is
// where the orderings the rest of the system relies on are implemented:
//
//   - write-ahead of dispatch: the turn's rows are committed before any
//     message the turn produced leaves, so a restarted node knows of every
//     request or compensation a peer may have received;
//   - persist before ack: a message's effects are durable before the
//     transport may consider it processed;
//   - flush before ack: quiescence accounting never sees a
//     processed-but-unsent gap;
//   - flush before Do completes: a caller that runs a command and then
//     quiesces or crashes the node finds nothing of that command still
//     buffered.
//
// The message turns of one mailbox pass share an epilogue once one of them
// leaves rows to commit (group commit): from that turn on, the pass's turns
// join one group, whose endTurn runs when the pass ends or before the first
// queued command, whichever comes first. The group's rows are then one WAL
// write and the orderings above hold per group. A turn that leaves nothing to
// commit, with nothing pending before it, ends at once, so an actor that keeps
// no rows flushes exactly as often as before. Commands, ticks and Deliver end
// one turn each.
package actor

import (
	"log"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"crew/internal/metrics"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// Committer is where an actor's rows go: a *wfdb.DB, or a recording fake in
// the kernel's own tests. A nil one, of any pointer type, is no store.
type Committer interface {
	Commit(b *wfdb.Batch) error
}

// Row is a live instance whose WFDB row the turn's commit must write.
type Row interface {
	// Save adds the row to tx unless the instance retired since it was
	// marked (retirement adds its own rows), and clears the owner's mark.
	Save(tx *wfdb.Batch)
}

// Timer is an owner's maintenance turn, run off a one-shot timer that is
// armed only while Busy reports work: an idle actor blocks with no timer at
// all and takes zero wakeups. The turn that makes Busy true arms it, whichever
// goroutine ran that turn. A timer that fires for an owner that went idle
// since runs no tick.
type Timer struct {
	Every time.Duration
	Busy  func() bool
	Tick  func()
}

// command is one queued closure; done, when non-nil, is closed after the
// command's turn has ended.
type command struct {
	f    func()
	done chan struct{}
}

// Actor is one node of a deployment. Send, Tx, Mark and Commit belong to the
// running turn (handlers, commands and timer ticks); Deliver, Do, DoAsync,
// Stop, Name and Logf may be called from anywhere.
type Actor struct {
	name   string
	net    *transport.Network
	ep     *transport.Endpoint
	store  Committer
	logf   func(format string, args ...any)
	handle func(m transport.Message)

	// turnMu is held across every turn and guards everything a turn touches,
	// the fields below and the owner's state. The loop takes it once per
	// wake, Deliver once per message; nothing blocks under it but the turn
	// itself. It is taken before every lock a turn takes (the destination
	// node's among them).
	turnMu sync.Mutex //crew:lockrank 5
	// timer is the owner's maintenance turn; clock its one-shot, whose
	// callback sets due and wakes the loop. armed holds from arming to the
	// tick, so each arming runs one tick.
	timer *Timer
	clock *time.Timer
	armed bool
	due   atomic.Bool
	// turnEnd, when set, runs at the end of every turn (OnTurnEnd).
	turnEnd func()

	// handles caches per-destination senders; batch coalesces the turn's
	// sends into per-destination envelopes; tx collects the turn's rows and
	// dirty lists, in marking order, the instances still to be encoded into
	// it. held counts the mailbox messages of the current pass whose epilogue
	// has not run: the group, acked by its endTurn.
	handles map[string]*transport.Handle
	batch   transport.Batcher
	tx      wfdb.Batch
	dirty   []Row
	held    int

	// cmdQ is swapped out whole per burst, as the mailbox is; cmdRun is the
	// burst being run and the buffer the next swap hands back.
	cmdMu  sync.Mutex
	cmdQ   []command
	cmdRun []command
	wg     sync.WaitGroup
}

// New registers the node on the network. store may be nil, a nil interface or
// a nil pointer such as an unset *wfdb.DB, for an actor that keeps no rows;
// logf nil logs through the standard logger. The actor receives nothing until
// Launch.
func New(net *transport.Network, name string, store Committer, logf func(format string, args ...any)) (*Actor, error) {
	ep, err := net.Register(name)
	if err != nil {
		return nil, err
	}
	ep.ManualAck()
	if isNil(store) {
		store = nil
	}
	if logf == nil {
		logf = func(format string, args ...any) {
			log.Printf("actor[%s]: "+format, append([]any{name}, args...)...)
		}
	}
	return &Actor{
		name:    name,
		net:     net,
		ep:      ep,
		store:   store,
		logf:    logf,
		handles: make(map[string]*transport.Handle),
	}, nil
}

// Launch starts the actor's goroutine: handle receives every logical
// message, timer (optional) is the owner's maintenance turn. Separate from
// New so the owner can store the actor before its handlers can run.
func (a *Actor) Launch(handle func(m transport.Message), timer *Timer) {
	a.handle = handle
	if timer != nil {
		a.timer = timer
		a.clock = time.AfterFunc(time.Hour, func() { a.due.Store(true); a.ep.Nudge() })
		a.clock.Stop() // until a turn arms it
	}
	a.wg.Add(1)
	go a.loop()
}

// OnTurnEnd has f run at the end of every turn, once the turn's rows are
// committed and its sends flushed, and before its messages are acked (so a
// quiesced network has run it): what f releases, no part of the turn still
// uses. A message the actor sends itself is handled inside the sending turn,
// so a handler cannot tell where a turn ends; this is where. Set it before
// Launch.
func (a *Actor) OnTurnEnd(f func()) { a.turnEnd = f }

// Name returns the node name.
func (a *Actor) Name() string { return a.name }

// Stop waits for the goroutine to exit; the network must be closed first,
// which is what ends it. Commands queued before the close still run.
func (a *Actor) Stop() { a.wg.Wait() }

// Logf reports a diagnostic.
func (a *Actor) Logf(format string, args ...any) { a.logf(format, args...) }

// loop is the actor's goroutine. It sleeps on one channel, the endpoint's
// wake token, which a message's arrival, a queued command (enqueue) and the
// timer's callback all set: a select over n channels locks all n on every
// park and every wake. Each wake runs, under the turn lock, the drain
// pass, then the tick if one came due, then the queued commands.
func (a *Actor) loop() {
	defer a.wg.Done()
	wake, turn := a.ep.Wake(), transport.Sink(a.mailboxTurn)
	if a.clock != nil {
		defer a.clock.Stop()
	}
	for open := true; open; {
		<-wake
		a.turnMu.Lock()
		open = a.ep.Drain(turn)
		if a.held > 0 {
			// The pass is over, or a crash or close cut it short: the
			// messages it handled are committed and acked, the rest wait.
			a.endTurn(nil)
		}
		if a.due.Swap(false) {
			a.armed = false
			// An owner that went idle after the arming takes no tick.
			// Stopping the timer at that turn instead would restart the
			// period at the next busy turn and delay its sweep.
			if a.timer.Busy() {
				a.timer.Tick()
				a.endTurn(nil)
			}
		}
		a.drainCmds()
		a.turnMu.Unlock()
	}
}

// Deliver runs one received message as a turn on the caller's goroutine and
// returns when the turn, and the commands queued during it, have ended: its
// rows are committed and its sends are with the transport. It is for an
// actor whose messages arrive on a connection rather than in the mailbox, and
// there is no mailbox entry to ack.
func (a *Actor) Deliver(m transport.Message) {
	a.turnMu.Lock()
	a.unwrap(m)
	a.endTurn(nil)
	a.drainCmds()
	a.turnMu.Unlock()
}

// mailboxTurn is the sink of the actor's drain pass. The message joins the
// pass's group if it left rows to commit or an earlier one did; otherwise it
// ends at once. Commands queued meanwhile run before the next message.
func (a *Actor) mailboxTurn(m transport.Message) error {
	a.unwrap(m)
	a.held++
	if a.held == 1 && len(a.dirty) == 0 && a.tx.Len() == 0 {
		a.endTurn(nil)
	}
	a.drainCmds()
	return nil
}

// unwrap hands one received physical message to the handler, an envelope's
// logical messages one by one.
func (a *Actor) unwrap(m transport.Message) {
	if env, isEnv := m.Payload.(*transport.Envelope); isEnv {
		for _, lm := range env.Msgs {
			a.handle(lm)
		}
		env.Release()
	} else {
		a.handle(m)
	}
}

// endTurn is the one epilogue of every turn — a group of mailbox messages
// (acked), a delivered message, a command (done non-nil for Do) or a timer
// tick: commit the turn's rows, then flush its sends, run the owner's turn-end
// hook, and only then mark the turn as over. The order is the contract
// stated at the top of the package, held here and nowhere else. A turn that
// left the owner busy arms the timer.
func (a *Actor) endTurn(done chan struct{}) {
	a.Commit()
	if err := a.batch.Flush(); err != nil {
		a.logf("flush sends: %v", err)
	}
	if a.turnEnd != nil {
		a.turnEnd()
	}
	for ; a.held > 0; a.held-- {
		a.ep.Ack()
	}
	if a.timer != nil && !a.armed && a.timer.Busy() {
		a.armed = true
		a.clock.Reset(a.timer.Every)
	}
	if done != nil {
		close(done)
	}
}

// Commit encodes every marked row once, behind the rows the turn already
// added to Tx, and writes the lot as one WFDB group — one WAL write, replayed
// all or nothing. endTurn calls it; an owner calls it mid-turn only where
// rows must be readable before the turn ends (retirement archives before it
// publishes the terminal status). An actor with no store keeps nothing: the
// turn's rows are dropped and its marks cleared all the same.
func (a *Actor) Commit() {
	for i, r := range a.dirty {
		r.Save(&a.tx)
		a.dirty[i] = nil
	}
	a.dirty = a.dirty[:0]
	if a.store == nil {
		a.tx.Reset()
		return
	}
	if err := a.store.Commit(&a.tx); err != nil {
		a.logf("commit: %v", err)
	}
}

// isNil reports whether c is no committer: nil, or a nil pointer of a type
// that implements Committer.
func isNil(c Committer) bool {
	v := reflect.ValueOf(c)
	return !v.IsValid() || v.Kind() == reflect.Pointer && v.IsNil()
}

// Tx is the turn's batch: rows added to it are committed, in order, with the
// marked rows behind them.
func (a *Actor) Tx() *wfdb.Batch { return &a.tx }

// Mark queues r for the turn's commit. The owner keeps the per-instance
// dirty flag, so an instance is marked, and encoded, once per turn however
// often it changed.
func (a *Actor) Mark(r Row) { a.dirty = append(a.dirty, r) }

// drainCmds runs every queued command, each as a turn of its own, including
// those queued while it runs. A pending group ends first: no command (a crash
// among them) runs while a handled message is uncommitted.
func (a *Actor) drainCmds() {
	for {
		a.cmdMu.Lock()
		a.cmdRun, a.cmdQ = a.cmdQ, a.cmdRun[:0]
		a.cmdMu.Unlock()
		if len(a.cmdRun) == 0 {
			return
		}
		if a.held > 0 {
			a.endTurn(nil)
		}
		for i := range a.cmdRun {
			c := a.cmdRun[i]
			a.cmdRun[i] = command{}
			c.f()
			a.endTurn(c.done)
		}
	}
}

func (a *Actor) enqueue(c command) {
	a.cmdMu.Lock()
	a.cmdQ = append(a.cmdQ, c)
	a.cmdMu.Unlock()
	a.ep.Nudge()
}

// Do runs f as a turn of its own and returns once that turn has ended. It
// must not be called from inside a turn.
func (a *Actor) Do(f func()) {
	done := make(chan struct{})
	a.enqueue(command{f: f, done: done})
	<-done
}

// DoAsync schedules f as a later turn without waiting. Safe from any
// goroutine, including the actor's own.
func (a *Actor) DoAsync(f func()) { a.enqueue(command{f: f}) }

// Send queues one logical message for the turn's flush, charged to mech. A
// message to the actor itself is handled on the spot: it is not a physical
// message.
func (a *Actor) Send(to string, mech metrics.Mechanism, kind string, payload any) {
	m := transport.Message{From: a.name, To: to, Mechanism: mech, Kind: kind, Payload: payload}
	if to == a.name {
		a.handle(m)
		return
	}
	h := a.handles[to]
	if h == nil {
		var err error
		if h, err = a.net.Handle(to); err != nil {
			a.logf("send %s to %s: %v", kind, to, err)
			return
		}
		a.handles[to] = h
	}
	a.batch.Add(h, m)
}
