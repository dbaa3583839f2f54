// Package transport simulates the reliable messaging layer between workflow
// nodes (engines, agents, the front end). The paper assumes messages are
// reliably delivered between agents using persistent-queue techniques
// (Exotica/FMQM); this transport preserves those semantics in-process:
//
//   - delivery is reliable and FIFO per receiver;
//   - messages to a crashed node are queued and delivered on recovery;
//   - senders never block (each node has an unbounded mailbox, drained by
//     its consumer), so protocol deadlocks cannot be introduced by the
//     transport itself;
//   - every physical message is counted in a metrics.Collector under its
//     mechanism class, which is the quantity the paper's evaluation compares
//     across architectures.
//
// The send side is the system's hottest path, so it is lock-free: the node
// table is copy-on-write (registration is rare, sends are not), the closed
// flag and trace callback are atomics, and per-destination Handles returned
// by Network.Handle skip the node lookup entirely. The receive side batches
// and has no goroutine of its own: the consumer waits on the node's wake-up
// signal and runs a drain pass, which swaps the whole queued slice out under
// the node lock and hands the batch, message by message, to a Sink. The pass
// (drainer.pass) is written once and is the only place the crash cut-off,
// the injected-delay hold, per-sender FIFO and in-flight retirement live.
// Its sinks are an actor's turn, run inline on the actor's goroutine
// (Endpoint.Drain); a channel, for consumers that range over Endpoint.Inbox
// (a goroutine started on first use); and a hub peer's connection, for nodes
// whose consumer is a hub child, in another process or, behind a SocketWire,
// in this one (the pump goroutine, which only those nodes have). A direct
// node (RegisterDirect) has no receive side at all: the sender hands the
// message to the node's function itself.
//
// The network also tracks every accepted message until it is consumed, which
// is what makes Quiesce possible: experiment harnesses block until no message
// is queued or undelivered instead of sleeping an arbitrary grace period.
//
// Fault injection hooks into this layer through a FaultPolicy: a policy
// installed with SetFaultPolicy observes every accepted message (with its
// global sequence number) and may charge retransmissions for it or delay its
// delivery by a number of drain passes. The network additionally distinguishes
// in-flight messages that are parked at a crashed node; AwaitStall blocks
// until either the network drains or every remaining in-flight message is
// parked — the signal a fault injector uses to force recovery when a crash
// has stalled all forward progress.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"crew/internal/metrics"
)

// Message is one physical message between nodes.
type Message struct {
	From string
	To   string
	// Mechanism classifies the message for the evaluation's message counts.
	Mechanism metrics.Mechanism
	// Kind is a free-form label naming the workflow interface invoked
	// (e.g. "StepExecute"); used by protocol traces and tests.
	Kind string
	// Payload carries the WI arguments; consumers type-switch on it.
	Payload any
}

// Verdict is a FaultPolicy's decision about one accepted message. The zero
// Verdict means "deliver normally".
type Verdict struct {
	// Retransmits charges that many extra physical transmissions of the
	// message (a drop followed by retransmission under a reliable transport:
	// the message still arrives, but it cost 1+Retransmits sends). The extra
	// copies are counted in the collector under the message's mechanism and
	// in the retransmit recovery counter.
	Retransmits int
	// Delay holds the message at the receiving node for that many delivery
	// rounds (drain passes). Per-link FIFO order is preserved: messages from
	// the same sender queued behind a delayed message are held with it.
	Delay int
}

// FaultPolicy is consulted on every message accepted for delivery. seq is the
// message's global 1-based acceptance sequence number — the network's logical
// clock, in delivered-message ticks. Implementations must be safe for
// concurrent use and must not block: the policy runs on the sender's
// goroutine.
type FaultPolicy interface {
	OnMessage(m Message, seq int64) Verdict
}

// Endpoint is a node's receive side. It has one consumer, which either runs
// drain passes itself (Wake and Drain: an actor) or ranges over Inbox.
type Endpoint struct {
	nd *node
	// d drains the mailbox the consumer reads: the node's own for an
	// in-process node, the one its child fills for a node behind a
	// SocketWire.
	d drainer

	inbox sync.Once
	ch    chan Message
}

// Name returns the node name.
func (e *Endpoint) Name() string { return e.nd.name }

// Wake returns the consumer's wake-up signal. It holds a token whenever
// messages may be waiting, once the network has closed and after a Nudge; a
// consumer that drains its own mailbox receives from it and then calls Drain.
func (e *Endpoint) Wake() <-chan struct{} { return e.d.mb.notify }

// Nudge leaves a token in the wake-up signal, for a consumer that sleeps on
// it for work of its own too (an actor's commands and timer).
func (e *Endpoint) Nudge() { e.d.mb.wake() }

// Drain runs one drain pass on the caller's goroutine, handing each waiting
// message to sink in order. It returns false once the network has closed: the
// consumer should stop, as it would on a closed Inbox. A consumer uses either
// Drain or Inbox, never both.
func (e *Endpoint) Drain(sink Sink) bool { return e.d.pass(sink) }

// Inbox returns the receive channel for consumers that range over it instead
// of draining: the first call starts a goroutine that runs drain passes into
// the channel. It is closed when the network shuts down.
func (e *Endpoint) Inbox() <-chan Message {
	e.inbox.Do(func() {
		e.ch = make(chan Message)
		if !e.nd.net.spawn(e.feed) {
			close(e.ch)
		}
	})
	return e.ch
}

// feed is the Inbox goroutine: the only sender on e.ch, which it closes.
func (e *Endpoint) feed() {
	defer close(e.ch)
	e.d.run(e.offer)
}

// offer is the feeder's sink: it blocks until the consumer takes the message
// or the network closes.
func (e *Endpoint) offer(m Message) error {
	select {
	case e.ch <- m:
		return nil
	case <-e.nd.net.closedCh:
		return ErrClosed
	}
}

// ManualAck switches the endpoint to handler-completion tracking: a message
// counts as in flight (for Quiesce) until the consumer calls Ack, not merely
// until it is handed to the consumer. Consumers that process messages and send
// follow-ups must use this mode, otherwise Quiesce can observe an idle
// network between a message being received and its handler running. It must
// be called before any message is delivered to the endpoint (in practice:
// right after Register, before traffic starts).
func (e *Endpoint) ManualAck() { e.nd.manualAck.Store(true) }

// Ack marks one received message as fully processed. It must be called
// exactly once per message received on a ManualAck endpoint, after the
// handler (and any sends it performs) completes. On endpoints not in
// manual-ack mode it is a no-op.
func (e *Endpoint) Ack() {
	if e.nd.manualAck.Load() {
		e.nd.net.decInflight()
	}
}

// queued is one mailbox entry: the message plus the remaining drain-pass
// delay charged by the fault policy.
type queued struct {
	m     Message
	delay int
}

// mailbox is an unbounded FIFO, guarded by its node's mu, with a one-token
// wake-up signal for its single drainer.
type mailbox struct {
	queue  []queued
	notify chan struct{}
}

func newMailbox() mailbox { return mailbox{notify: make(chan struct{}, 1)} }

func (mb *mailbox) wake() {
	select {
	case mb.notify <- struct{}{}:
	default:
	}
}

type node struct {
	net       *Network
	name      string
	ep        *Endpoint // nil for remote nodes (hub side of a process boundary)
	up        atomic.Bool
	manualAck atomic.Bool
	// peer, when non-nil, is the hub's send side for this node: a pump
	// goroutine drains in into the child's connection instead of the
	// consumer draining in.
	peer *remotePeer
	// direct, when non-nil, takes every accepted message on the sender's
	// goroutine; the node then has no mailbox (see RegisterDirect).
	direct func(Message)

	mu sync.Mutex //crew:lockrank 40
	// in holds the messages accepted for the node. rx is used only by a local
	// node behind a SocketWire: what has crossed the socket (its child
	// appends to it) and waits for the consumer.
	in, rx mailbox
	// unacked holds messages a hub peer's pump has written to its child but
	// the child has not acknowledged yet. They are still in flight; a
	// reconnecting child gets them replayed (at-least-once), and
	// crash/recover counts them with the parked queue.
	unacked ackQueue
}

// waiting is the number of in-flight messages held for the node, which is
// what parks when it crashes. Callers hold nd.mu.
func (nd *node) waiting() int {
	return len(nd.in.queue) + len(nd.rx.queue) + nd.unacked.len()
}

// wakeAll wakes both mailboxes' drainers. An in-process node's rx was never
// made and its wake is a no-op: a nil channel is never ready.
func (nd *node) wakeAll() {
	nd.in.wake()
	nd.rx.wake()
}

// put appends one in-flight message to a mailbox of the node, parked if the
// node is down, and wakes the mailbox's drainer.
func (nd *node) put(mb *mailbox, q queued) {
	parkedHere := false
	nd.mu.Lock()
	mb.queue = append(mb.queue, q)
	if !nd.up.Load() {
		nd.net.parked.Add(1)
		parkedHere = true
	}
	nd.mu.Unlock()
	if parkedHere {
		nd.net.maybeNotifyQuiet()
	}
	mb.wake()
}

// pump is a hub peer's delivery goroutine: drain passes into the peer's
// deliver. A delivery failure is handled like a crash cut-off — the message
// and the batch remainder go back to the queue front for replay — and what
// retires a delivered message is the child's ACK.
func (nd *node) pump() {
	d := drainer{nd: nd, mb: &nd.in}
	d.run(nd.peer.deliver)
}

// drainer is a mailbox's single consumer: the state its passes reuse.
type drainer struct {
	nd *node
	mb *mailbox
	// retire says a message the sink accepted has reached its consumer, so
	// the pass takes it out of the in-flight count unless the consumer acks
	// by hand. False for the pump, whose sink only carries messages onward.
	retire bool

	batch    []queued
	held     []queued
	heldFrom map[string]bool
}

// run is the loop of a goroutine that does nothing but drain: a pass per
// wake-up until the network closes (Close leaves a token in every mailbox).
func (d *drainer) run(sink Sink) {
	for d.pass(sink) {
		<-d.mb.notify
	}
}

// pass is the one drain pass every consumer runs. It swaps the whole queued
// slice out under the node lock, so the lock is paid once per burst, and
// hands the batch to sink in order; the batch and queue buffers are reused
// across swaps. Three rules live here and nowhere else:
//
//   - crash cut-off: a node found down (or a sink that fails, or a closed
//     network) stops the pass at a message boundary; the remainder goes back
//     to the queue front, parked while the node is down;
//   - injected delay: a message carrying a fault-policy delay is held for
//     that many passes, and while a message from sender S is held every
//     later message from S is held behind it, so per-link FIFO order survives
//     injected latency;
//   - in-flight: a message its consumer has taken is retired here unless the
//     endpoint acks by hand.
//
// It returns false once the network has closed.
func (d *drainer) pass(sink Sink) bool {
	nd := d.nd
	nd.mu.Lock()
	if nd.up.Load() && len(d.mb.queue) > 0 {
		d.batch, d.mb.queue = d.mb.queue, d.batch[:0]
	}
	nd.mu.Unlock()
	cut := len(d.batch)
	for i := range d.batch {
		if !nd.up.Load() || nd.net.closed.Load() {
			cut = i
			break
		}
		q := &d.batch[i]
		if q.delay > 0 || d.heldFrom[q.m.From] {
			d.hold(q)
			continue
		}
		if sink(q.m) != nil {
			cut = i
			break
		}
		if d.retire && !nd.manualAck.Load() {
			nd.net.decInflight()
		}
	}
	if cut < len(d.batch) || len(d.held) > 0 {
		d.requeue(cut)
	}
	// The buffer goes back to the mailbox at the next swap: a slot left as it
	// is would keep its payload alive until a later burst overwrites it.
	clear(d.batch)
	d.batch = d.batch[:0]
	return !nd.net.closed.Load()
}

// hold keeps a delayed message, or one behind it from the same sender, for
// the next pass.
func (d *drainer) hold(q *queued) {
	if q.delay > 0 {
		q.delay--
	}
	if d.heldFrom == nil {
		d.heldFrom = make(map[string]bool)
	}
	d.heldFrom[q.m.From] = true
	d.held = append(d.held, *q)
}

// requeue pushes what a pass did not deliver back to the front of the
// mailbox, so later arrivals stay behind it: held-for-delay messages first
// (they arrived earliest), then batch[cut:], the remainder a crash cut off.
func (d *drainer) requeue(cut int) {
	nd := d.nd
	rest := append(append([]queued(nil), d.held...), d.batch[cut:]...)
	nd.mu.Lock()
	d.mb.queue = append(rest, d.mb.queue...)
	if !nd.up.Load() {
		// The node is down: everything just requeued is parked until
		// recovery (Recover subtracts everything waiting).
		nd.net.parked.Add(int64(len(rest)))
	}
	nd.mu.Unlock()
	nd.net.maybeNotifyQuiet()
	if cut == len(d.batch) {
		// Nothing is waking the drainer for the held messages; re-arm.
		d.mb.wake()
	}
	clear(d.held)
	d.held = d.held[:0]
	clear(d.heldFrom)
}

// Network connects named nodes.
type Network struct {
	// mu serializes registration and close; sends never take it.
	mu        sync.Mutex //crew:lockrank 10
	nodes     atomic.Pointer[map[string]*node]
	collector *metrics.Collector
	// wire is the hub a SocketWire serves, whose children run in this
	// process; nil selects the in-process path (see NetworkConfig.Wire).
	wire *RemoteHub
	// backends lists the hubs whose Close must interleave with shutdown to
	// unblock in-flight deliveries.
	backends []*RemoteHub
	closed   atomic.Bool
	closedCh chan struct{}
	// wg counts the transport's own goroutines: hub peers' pumps, a
	// SocketWire's children and Inbox feeders. Close joins them.
	wg sync.WaitGroup
	// trace, when non-nil, receives a copy of every sent message (for
	// protocol-trace tests and the crewsim fig4 demo). Captured atomically so
	// installation can race with traffic.
	trace atomic.Pointer[func(Message)]
	// policy, when non-nil, is the installed FaultPolicy.
	policy atomic.Pointer[FaultPolicy]
	// accepted is the global message sequence clock: the number of messages
	// accepted for delivery so far.
	accepted atomic.Int64

	// inflight counts messages accepted by Send but not yet consumed (see
	// Endpoint.ManualAck for what "consumed" means per endpoint). parked
	// counts the subset currently queued at a crashed node; when
	// inflight == parked > 0 the network is stalled on recovery. idleCh is
	// non-nil while Quiesce/AwaitStall waiters sleep and is closed on every
	// transition to idle or stalled.
	inflight atomic.Int64
	parked   atomic.Int64
	idleMu   sync.Mutex //crew:lockrank 50
	idleCh   chan struct{}
}

// Handle is a cached sender bound to one destination node. It skips the node
// lookup that Network.Send performs, which makes it the preferred send path
// for engines and agents that message the same peers repeatedly.
type Handle struct {
	n  *Network
	nd *node
}

// Send enqueues a message for delivery to the handle's node and counts it.
// The message's To field should name the handle's node; delivery goes to the
// bound node regardless.
func (h *Handle) Send(m Message) error { return h.n.deliver(h.nd, m) }

// ErrUnknownNode is returned when sending to an unregistered node.
var ErrUnknownNode = errors.New("transport: unknown node")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")

// Trace installs a callback invoked (synchronously, under no lock) with a
// copy of every message accepted for delivery. Installation is atomic with
// respect to concurrent sends.
func (n *Network) Trace(fn func(Message)) {
	if fn == nil {
		n.trace.Store(nil)
		return
	}
	n.trace.Store(&fn)
}

// SetFaultPolicy installs (or, with nil, removes) the fault policy consulted
// on every accepted message. Installation is atomic with respect to
// concurrent sends; with no policy installed the send path pays one atomic
// load.
func (n *Network) SetFaultPolicy(p FaultPolicy) {
	if p == nil {
		n.policy.Store(nil)
		return
	}
	n.policy.Store(&p)
}

// Seq returns the network's logical clock: the number of messages accepted
// for delivery so far.
func (n *Network) Seq() int64 { return n.accepted.Load() }

// lookup resolves a node without locking (copy-on-write node table).
func (n *Network) lookup(name string) *node {
	return (*n.nodes.Load())[name]
}

// Register creates a node and returns its endpoint. With a socket wire
// configured the node is a hub peer and its child, dialled here, serves
// into the consumer's mailbox; deliveries wait for the child's claim.
func (n *Network) Register(name string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	old, err := n.vacant(name)
	if err != nil {
		return nil, err
	}
	nd := &node{net: n, name: name, in: newMailbox()}
	nd.up.Store(true)
	nd.ep = &Endpoint{nd: nd, d: drainer{nd: nd, mb: &nd.in, retire: true}}
	if n.wire != nil {
		nd.rx = newMailbox()
		nd.ep.d.mb = &nd.rx
		c, err := n.wire.local(nd)
		if err != nil {
			return nil, err
		}
		n.start(func() { c.Serve(nd.consume, nil) })
	}
	n.install(name, nd, old)
	return nd.ep, nil
}

// registerRemote creates a node whose consumer lives in another OS process:
// it has no local endpoint, and peer makes it a hub peer. The front half
// treats it like any other node — counting, fault policy, parking,
// quiescence — which is what makes hub-side accounting authoritative across
// process boundaries.
func (n *Network) registerRemote(name string, peer func(*node)) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	old, err := n.vacant(name)
	if err != nil {
		return err
	}
	nd := &node{net: n, name: name, in: newMailbox()}
	nd.up.Store(true)
	peer(nd)
	n.install(name, nd, old)
	return nil
}

// RegisterDirect creates a node with no mailbox and no consumer: a message
// accepted for it is counted, traced and shown to the fault policy like any
// other, and then handed to fn on the sender's goroutine, before the send
// returns. An agent process registers its peers this way, with "write to the
// hub connection" as fn, so what a turn sends is in the connection's buffer
// when the turn's flush returns. Nothing waits at such a node, so it adds
// nothing to the in-flight count, a policy's Delay does not apply to it, and
// Crash and Recover change only what Alive reports. fn must be safe to call
// from every sender.
func (n *Network) RegisterDirect(name string, fn func(Message)) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	old, err := n.vacant(name)
	if err != nil {
		return err
	}
	nd := &node{net: n, name: name, direct: fn}
	nd.up.Store(true)
	n.install(name, nd, old)
	return nil
}

// vacant returns the node table a new node called name can be installed over:
// the network is open and the name is free. Callers hold n.mu.
func (n *Network) vacant(name string) (map[string]*node, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	old := *n.nodes.Load()
	if _, dup := old[name]; dup {
		return nil, fmt.Errorf("transport: node %q already registered", name)
	}
	return old, nil
}

// install publishes a node in the copy-on-write table and, for a hub peer,
// starts its pump. Callers hold n.mu and pass the table snapshot they
// duplicate-checked.
func (n *Network) install(name string, nd *node, old map[string]*node) {
	next := make(map[string]*node, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = nd
	n.nodes.Store(&next)
	if nd.peer != nil {
		n.start(nd.pump)
	}
}

// start runs f as one of the transport's goroutines. Callers hold n.mu and
// have seen the network open, so the Add cannot race Close's Wait.
func (n *Network) start(f func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		f()
	}()
}

// spawn is start for callers outside registration; it reports false if the
// network has closed.
func (n *Network) spawn(f func()) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return false
	}
	n.start(f)
	return true
}

// addBackend registers a hub to close during shutdown.
func (n *Network) addBackend(c *RemoteHub) {
	n.mu.Lock()
	n.backends = append(n.backends, c)
	n.mu.Unlock()
}

// MustRegister is Register panicking on error, for deployment code whose
// node sets are statically correct.
func (n *Network) MustRegister(name string) *Endpoint {
	ep, err := n.Register(name)
	if err != nil {
		panic(err)
	}
	return ep
}

// Handle returns a cached sender for a registered node.
func (n *Network) Handle(name string) (*Handle, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	nd := n.lookup(name)
	if nd == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	return &Handle{n: n, nd: nd}, nil
}

// Send enqueues a message for delivery and counts it. Messages to a crashed
// node are retained and delivered after recovery. The path is lock-free up
// to the destination node's queue append.
func (n *Network) Send(m Message) error {
	if n.closed.Load() {
		return ErrClosed
	}
	nd := n.lookup(m.To)
	if nd == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, m.To)
	}
	return n.deliver(nd, m)
}

func (n *Network) deliver(nd *node, m Message) error {
	if n.closed.Load() {
		return ErrClosed
	}
	seq := n.accepted.Add(1)
	delay := 0
	if p := n.policy.Load(); p != nil {
		v := (*p).OnMessage(m, seq)
		if v.Retransmits > 0 && n.collector != nil {
			n.collector.AddMessages(m.Mechanism, int64(v.Retransmits))
			n.collector.AddRetransmits(int64(v.Retransmits))
		}
		delay = v.Delay
	}
	if n.collector != nil {
		n.collector.AddMessages(m.Mechanism, 1)
	}
	if fn := n.trace.Load(); fn != nil {
		(*fn)(m)
	}
	n.enqueue(nd, m, delay)
	return nil
}

// enqueue puts one accepted physical message in flight, in the node's
// mailbox; a direct node takes it on the spot.
func (n *Network) enqueue(nd *node, m Message, delay int) {
	if nd.direct != nil {
		nd.direct(m)
		return
	}
	n.inflight.Add(1)
	nd.put(&nd.in, queued{m: m, delay: delay})
}

// decInflight retires one in-flight message and releases Quiesce/AwaitStall
// waiters on a transition to idle or stalled.
func (n *Network) decInflight() {
	in := n.inflight.Add(-1)
	if in == 0 || in == n.parked.Load() {
		n.notifyQuiet()
	}
}

// maybeNotifyQuiet releases waiters if the network is currently idle or
// stalled. Called after any change to the parked count.
func (n *Network) maybeNotifyQuiet() {
	in := n.inflight.Load()
	if in == 0 || in == n.parked.Load() {
		n.notifyQuiet()
	}
}

func (n *Network) notifyQuiet() {
	n.idleMu.Lock()
	if n.idleCh != nil {
		close(n.idleCh)
		n.idleCh = nil
	}
	n.idleMu.Unlock()
}

// InFlight reports the number of messages accepted but not yet consumed.
func (n *Network) InFlight() int64 { return n.inflight.Load() }

// Parked reports how many in-flight messages are queued at crashed nodes.
func (n *Network) Parked() int64 { return n.parked.Load() }

// Quiesce blocks until the network is idle: no message queued, undelivered,
// or (for ManualAck endpoints) still being processed. Messages queued for a
// crashed node keep the network non-idle until the node recovers. It returns
// ctx.Err() if the context ends first and ErrClosed if the network closes.
func (n *Network) Quiesce(ctx context.Context) error {
	for {
		if n.closed.Load() {
			return ErrClosed
		}
		n.idleMu.Lock()
		if n.inflight.Load() == 0 {
			n.idleMu.Unlock()
			return nil
		}
		if n.idleCh == nil {
			n.idleCh = make(chan struct{})
		}
		ch := n.idleCh
		n.idleMu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-n.closedCh:
			return ErrClosed
		}
	}
}

// AwaitStall blocks until the network either drains completely (returns
// false) or stalls — every in-flight message is parked at a crashed node, so
// no forward progress is possible until something recovers (returns true).
// Fault injectors use this as the backstop that forces recovery when a crash
// has frozen the system before the scheduled recovery trigger can fire.
func (n *Network) AwaitStall(ctx context.Context) (bool, error) {
	for {
		if n.closed.Load() {
			return false, ErrClosed
		}
		n.idleMu.Lock()
		in, p := n.inflight.Load(), n.parked.Load()
		if in == 0 {
			n.idleMu.Unlock()
			return false, nil
		}
		if in == p {
			n.idleMu.Unlock()
			return true, nil
		}
		if n.idleCh == nil {
			n.idleCh = make(chan struct{})
		}
		ch := n.idleCh
		n.idleMu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return false, ctx.Err()
		case <-n.closedCh:
			return false, ErrClosed
		}
	}
}

// Alive reports whether the node is registered and up.
func (n *Network) Alive(name string) bool {
	nd := n.lookup(name)
	return nd != nil && nd.up.Load()
}

// Crash marks a node down: deliveries pause and messages queue until
// recovery. Crashing an unknown node is a no-op returning false.
func (n *Network) Crash(name string) bool {
	nd := n.lookup(name)
	if nd == nil {
		return false
	}
	nd.mu.Lock()
	if nd.up.Load() {
		nd.up.Store(false)
		// A remote node's unacked messages are in flight at the dead peer;
		// they park with the queue and will be replayed on reclaim.
		n.parked.Add(int64(nd.waiting()))
	}
	nd.mu.Unlock()
	n.maybeNotifyQuiet()
	return true
}

// Recover marks a node up again and resumes delivery of queued messages.
func (n *Network) Recover(name string) bool {
	nd := n.lookup(name)
	if nd == nil {
		return false
	}
	nd.mu.Lock()
	if !nd.up.Load() {
		nd.up.Store(true)
		n.parked.Add(int64(-nd.waiting()))
	}
	nd.mu.Unlock()
	n.maybeNotifyQuiet()
	nd.wakeAll()
	return true
}

// QueuedFor returns how many messages wait for a (typically crashed) node.
func (n *Network) QueuedFor(name string) int {
	nd := n.lookup(name)
	if nd == nil {
		return 0
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.in.queue) + len(nd.rx.queue)
}

// Nodes returns the sorted registered node names.
func (n *Network) Nodes() []string {
	nodes := *n.nodes.Load()
	out := make([]string, 0, len(nodes))
	for name := range nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close shuts the network down: every drainer stops at its next message
// boundary, the transport's own goroutines (pumps, Inbox feeders) are joined
// and every Inbox is closed by its feeder. An actor that drains its own
// mailbox sees Drain report false; its owner joins it (Actor.Stop). Pending
// undelivered messages are dropped and any Quiesce waiters are released with
// ErrClosed.
//
// The wake-ups come after the closed flag is set, so every drainer, asleep or
// mid-pass, observes it. The backends are closed before the join because a
// pump can be inside a deliver that only the backend's teardown fails.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		return
	}
	n.closed.Store(true)
	close(n.closedCh)
	nodes := *n.nodes.Load()
	backends := n.backends
	n.mu.Unlock()
	for _, nd := range nodes {
		nd.wakeAll()
	}
	for _, b := range backends {
		b.Close()
	}
	n.wg.Wait()
}
