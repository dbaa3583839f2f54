// Package transport simulates the reliable messaging layer between workflow
// nodes (engines, agents, the front end). The paper assumes messages are
// reliably delivered between agents using persistent-queue techniques
// (Exotica/FMQM); this transport preserves those semantics in-process:
//
//   - delivery is reliable and FIFO per receiver;
//   - messages to a crashed node are queued and delivered on recovery;
//   - senders never block (each node has an unbounded mailbox drained by a
//     pump goroutine), so protocol deadlocks cannot be introduced by the
//     transport itself;
//   - every physical message is counted in a metrics.Collector under its
//     mechanism class, which is the quantity the paper's evaluation compares
//     across architectures.
//
// The send side is the system's hottest path, so it is lock-free: the node
// table is copy-on-write (registration is rare, sends are not), the closed
// flag and trace callback are atomics, and per-destination Handles returned
// by Network.Handle skip the node lookup entirely. The receive side batches:
// each pump wakeup swaps the whole queued slice out under the node lock and
// delivers the batch, instead of one lock round-trip per message.
//
// The network also tracks every accepted message until it is consumed, which
// is what makes Quiesce possible: experiment harnesses block until no message
// is queued or undelivered instead of sleeping an arbitrary grace period.
//
// Fault injection hooks into this layer through a FaultPolicy: a policy
// installed with SetFaultPolicy observes every accepted message (with its
// global sequence number) and may charge retransmissions for it or delay its
// delivery by a number of pump rounds. The network additionally distinguishes
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
	// rounds (pump passes). Per-link FIFO order is preserved: messages from
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

// Endpoint is a node's receive side.
type Endpoint struct {
	name string
	ch   chan Message
	nd   *node
}

// Name returns the node name.
func (e *Endpoint) Name() string { return e.name }

// Inbox returns the receive channel. It is closed when the network shuts
// down.
func (e *Endpoint) Inbox() <-chan Message { return e.ch }

// ManualAck switches the endpoint to handler-completion tracking: a message
// counts as in flight (for Quiesce) until the consumer calls Ack, not merely
// until it is read from the inbox. Consumers that process messages and send
// follow-ups must use this mode, otherwise Quiesce can observe an idle
// network between a message being received and its handler running. It must
// be called before any message is delivered to the endpoint (in practice:
// right after Register, before traffic starts).
func (e *Endpoint) ManualAck() { e.nd.manualAck.Store(true) }

// Ack marks one received message as fully processed. It must be called
// exactly once per message read from the inbox of a ManualAck endpoint, after
// the handler (and any sends it performs) completes. On endpoints not in
// manual-ack mode it is a no-op.
func (e *Endpoint) Ack() {
	if e.nd.manualAck.Load() {
		e.nd.net.decInflight()
	}
}

// queued is one mailbox entry: the message plus the remaining delivery-round
// delay charged by the fault policy.
type queued struct {
	m     Message
	delay int
}

type node struct {
	net       *Network
	ep        *Endpoint // nil for remote nodes (hub side of a process boundary)
	up        atomic.Bool
	manualAck atomic.Bool
	// link, when non-nil, is the wire backend's send side for this node: the
	// pump delivers through it instead of handing straight to ep.ch.
	link Link

	mu     sync.Mutex //crew:lockrank 40
	queue  []queued
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
	// unacked holds messages a remote node's link has written to its peer
	// process but the peer has not acknowledged yet. They are still in
	// flight; a reconnecting peer gets them replayed (at-least-once), and
	// crash/recover counts them with the parked queue.
	unacked ackQueue
}

// pump drains the node's mailbox into its inbox channel. Each wakeup swaps
// the entire queued slice out under the lock and delivers the batch, so the
// per-message steady-state cost is one channel send — the lock is paid once
// per burst. The batch and queue buffers are reused across swaps.
//
// Messages carrying a fault-injected delay are held for that many pump
// passes before delivery; while a message from sender S is held, every later
// message from S in the same pass is held behind it, so per-link FIFO order
// survives injected latency.
func (nd *node) pump() {
	defer close(nd.done)
	if nd.ep != nil && nd.link == nil {
		// In-process delivery: the pump is the only sender on ep.ch. With a
		// wire backend the sink sends on ep.ch from the backend's reader, so
		// Network.Close closes it after the backend has been torn down.
		defer close(nd.ep.ch)
	}
	var batch []queued
	for {
		nd.mu.Lock()
		if nd.up.Load() && len(nd.queue) > 0 {
			batch, nd.queue = nd.queue, batch[:0]
		}
		nd.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-nd.notify:
				continue
			case <-nd.stop:
				return
			}
		}
		var held []queued
		var heldFrom map[string]bool
		crashedAt := -1
		for i := range batch {
			if !nd.up.Load() {
				crashedAt = i
				break
			}
			q := batch[i]
			if q.delay > 0 || heldFrom[q.m.From] {
				if q.delay > 0 {
					q.delay--
				}
				if heldFrom == nil {
					heldFrom = make(map[string]bool)
				}
				heldFrom[q.m.From] = true
				held = append(held, q)
				continue
			}
			if nd.link != nil {
				// Wire delivery: the frame crosses the backend and the sink
				// (for local nodes) or the peer's ack (for remote nodes)
				// retires it from the in-flight count. A delivery failure is
				// treated like a crash cut-off: the message and the batch
				// remainder go back to the queue front for replay.
				if err := nd.deliverWire(q.m); err != nil {
					if nd.net.closed.Load() {
						return
					}
					crashedAt = i
					break
				}
				continue
			}
			select {
			case nd.ep.ch <- q.m:
				if !nd.manualAck.Load() {
					nd.net.decInflight()
				}
			case <-nd.stop:
				return
			}
		}
		if crashedAt >= 0 || len(held) > 0 {
			// Push undelivered messages back to the front of the queue so
			// later arrivals stay behind them: held-for-delay messages first
			// (they arrived earliest), then the remainder the crash cut off.
			rest := append([]queued(nil), held...)
			if crashedAt >= 0 {
				rest = append(rest, batch[crashedAt:]...)
			}
			nd.mu.Lock()
			nd.queue = append(rest, nd.queue...)
			if !nd.up.Load() {
				// The node is down: everything just requeued is parked until
				// recovery (Recover subtracts the whole queue).
				nd.net.parked.Add(int64(len(rest)))
			}
			nd.mu.Unlock()
			nd.net.maybeNotifyQuiet()
			if crashedAt < 0 {
				// Nothing is waking us for the held messages; re-arm.
				nd.wake()
			}
		}
		batch = batch[:0]
	}
}

func (nd *node) wake() {
	select {
	case nd.notify <- struct{}{}:
	default:
	}
}

// deliverWire carries one message across the node's wire link.
func (nd *node) deliverWire(m Message) error { return nd.link.Deliver(m) }

// consume is the wire sink's handoff into the endpoint: it blocks until the
// consumer takes the message (or the node stops) and then retires it from
// the in-flight count — the same accounting as the in-process delivery
// branch, so Quiesce stays exact across any backend.
func (nd *node) consume(m Message) error {
	select {
	case nd.ep.ch <- m:
		if !nd.manualAck.Load() {
			nd.net.decInflight()
		}
		return nil
	case <-nd.stop:
		return ErrClosed
	}
}

// Network connects named nodes.
type Network struct {
	// mu serializes registration and close; sends never take it.
	mu        sync.Mutex //crew:lockrank 10
	nodes     atomic.Pointer[map[string]*node]
	collector *metrics.Collector
	// wire is the byte-transport backend; nil selects the in-process
	// channel path (see NetworkConfig.Wire).
	wire Wire
	// backends lists additional wire machinery (a RemoteHub) whose Close
	// must interleave with shutdown to unblock in-flight deliveries.
	backends []interface{ Close() error }
	closed   atomic.Bool
	closedCh chan struct{}
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
//
//crew:hotpath
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

// Register creates a node and returns its endpoint. With a wire backend
// configured, the node's deliveries are bound through the backend before any
// message can be accepted for it.
func (n *Network) Register(name string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, ErrClosed
	}
	old := *n.nodes.Load()
	if _, dup := old[name]; dup {
		return nil, fmt.Errorf("transport: node %q already registered", name)
	}
	nd := &node{
		net:    n,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	nd.up.Store(true)
	nd.ep = &Endpoint{name: name, ch: make(chan Message), nd: nd}
	if n.wire != nil {
		link, err := n.wire.Listen(name, nd.consume)
		if err != nil {
			return nil, fmt.Errorf("transport: wire listen %q: %w", name, err)
		}
		nd.link = link
	}
	n.install(name, nd, old)
	return nd.ep, nil
}

// registerRemote creates a node whose consumer lives in another OS process:
// it has no local endpoint, and its pump delivers through link (a RemoteHub
// per-peer link). The front half treats it like any other node — counting,
// fault policy, parking, quiescence — which is what makes hub-side
// accounting authoritative across process boundaries.
func (n *Network) registerRemote(name string, mkLink func(*node) Link) (*node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed.Load() {
		return nil, ErrClosed
	}
	old := *n.nodes.Load()
	if _, dup := old[name]; dup {
		return nil, fmt.Errorf("transport: node %q already registered", name)
	}
	nd := &node{
		net:    n,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	nd.up.Store(true)
	nd.link = mkLink(nd)
	n.install(name, nd, old)
	return nd, nil
}

// install publishes a node in the copy-on-write table and starts its pump.
// Callers hold n.mu and pass the table snapshot they duplicate-checked.
func (n *Network) install(name string, nd *node, old map[string]*node) {
	next := make(map[string]*node, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = nd
	n.nodes.Store(&next)
	go nd.pump()
}

// addBackend registers extra wire machinery to close during shutdown.
func (n *Network) addBackend(c interface{ Close() error }) {
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

//crew:hotpath
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

// enqueue appends one accepted physical message to the node's mailbox and
// updates the in-flight/parked accounting.
//
//crew:hotpath
func (n *Network) enqueue(nd *node, m Message, delay int) {
	n.inflight.Add(1)
	parkedHere := false
	nd.mu.Lock()
	nd.queue = append(nd.queue, queued{m: m, delay: delay})
	if !nd.up.Load() {
		n.parked.Add(1)
		parkedHere = true
	}
	nd.mu.Unlock()
	if parkedHere {
		n.maybeNotifyQuiet()
	}
	nd.wake()
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
		n.parked.Add(int64(len(nd.queue) + nd.unacked.len()))
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
		n.parked.Add(int64(-(len(nd.queue) + nd.unacked.len())))
	}
	nd.mu.Unlock()
	n.maybeNotifyQuiet()
	nd.wake()
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
	return len(nd.queue)
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

// Close shuts the network down: pumps stop and every endpoint's inbox is
// closed after its pump exits. Pending undelivered messages are dropped and
// any Quiesce waiters are released with ErrClosed.
//
// With a wire backend the teardown order matters: node stops are signalled
// first (unblocking sinks parked on full endpoint channels), then the backend
// is closed — which fails in-flight Delivers and joins every reader
// goroutine — and only then, with no sender left, are the wire endpoints'
// inbox channels closed.
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
		close(nd.stop)
	}
	for _, b := range backends {
		b.Close()
	}
	if n.wire != nil {
		n.wire.Close()
	}
	for _, nd := range nodes {
		<-nd.done
	}
	if n.wire != nil {
		for _, nd := range nodes {
			if nd.link != nil && nd.ep != nil {
				close(nd.ep.ch)
			}
		}
	}
}
