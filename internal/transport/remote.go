package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crew/internal/binenc"
	"crew/internal/cerrors"
)

// This file implements the hub protocol, the one socket protocol: the piece
// that turns the in-process Network into the message switch of a deployment
// whose agents are real OS processes. A SocketWire (wire_socket.go) is the
// same hub with every child in the hub's own process.
//
// Topology: the hub process owns the Network (and with it the authoritative
// message counts, fault policy, parking and quiescence accounting). Every
// agent process dials the hub once and claims its node name with a HELLO
// frame, which also lists the instance rows of the child's database. From
// then on the single connection carries, hub -> child, the node's deliveries
// (MSG), deployment liveness announcements (WELCOME, CRASH, RECOVER) and the
// instances that finished (DONE, Relay); and child -> hub, the child's
// outbound sends (MSG, re-entering the hub Network where they are counted and
// routed), delivery acknowledgements (ACK) and program-execution events
// (EXEC, feeding a cross-process coordination-invariant checker). DONE stands
// in for the terminal registry agents in one process share; it is not a
// message and is not counted.
//
// The hub routes frames it does not read. A child's single message for
// another child is counted, shown to the fault policy, parked and replayed
// like any message, but only its header is parsed (names, mechanism, payload
// type); the frame itself is what the hub writes to the destination. The
// hub still drops the connection of a child whose frame, header, mechanism or
// payload type is bad; a payload that does not decode is found by the child
// it is for, whose Serve fails with CodeFrameMalformed. Envelopes, and
// messages for nodes in the hub's own process (the front end), are decoded.
// EXEC frames are decoded only when someone observes them (onExec).
//
// Delivery to a child is write-and-track rather than write-and-wait: deliver
// appends the message to the node's unacked tail, writes the frame and
// returns, and the child's ACK — sent only after the child has fully
// processed the delivery — retires it from the in-flight count. The child
// works through every frame one read brought in, collecting what each
// delivery causes (follow-up sends, EXEC events) and then its ACK in one
// buffer, and writes the buffer once before it reads again: one write per
// read, each ACK behind its delivery's frames. Because the ACK trails the
// follow-up sends in the connection's FIFO, the hub never observes a
// processed-but-unsent gap: Quiesce stays exact across process boundaries. A
// child killed mid-burst has written none of the burst's frames and leaves
// its messages in the unacked tail; the respawned child's reconnect replays
// the tail in order before any new traffic (at-least-once — the workflow
// protocol's epoch merge absorbs the duplicates this can produce). A delivery
// that fails ends the burst: the turns before it are written, its own frames
// are not.
//
// Both ends read through a frameReader, so a burst of frames costs one read.
// The hub's buffer starts small on purpose: it is held per connection for
// the life of the deployment, and the hub's heap is a benchmark metric.
const (
	hubReadBuf   = 1 << 10
	childReadBuf = 16 << 10
)

// Exec phases reported over EXEC frames.
const (
	// ExecEnter marks a step program starting to run.
	ExecEnter byte = iota
	// ExecExitOK marks a step program returning success.
	ExecExitOK
	// ExecExitFail marks a step program returning a logical failure.
	ExecExitFail
)

// ExecEvent is one program-execution event crossing the hub protocol: a child
// reports the execution window of every step program it runs, so the hub can
// check coordination invariants (mutex overlap, relative order) from outside
// the processes that enforce them.
type ExecEvent struct {
	Phase    byte
	Workflow string
	Step     string
	Instance int
}

// Completion is a finished instance as a DONE frame carries it. Status is
// the instance's terminal wfdb.Status, which this package passes on unread.
type Completion struct {
	Workflow string
	ID       int
	Status   byte
}

// relayDelay bounds how long a relayed completion waits for a write to carry
// it: one sweep period of the agents, so an idle child that holds a replica
// of a finished instance drops it within two.
const relayDelay = 100 * time.Millisecond

// RemoteHub is the hub-process side of the protocol. It plugs into a Network
// as the delivery backend of remote nodes (RegisterRemote), or of every node
// when a SocketWire serves it, and is closed with the network.
type RemoteHub struct {
	n      *Network
	ln     net.Listener
	onExec func(ExecEvent)
	tmpDir string

	mu       sync.Mutex //crew:lockrank 20
	peers    map[string]*remotePeer
	finished func(key string) (Completion, bool) // UseRegistry

	relayArmed atomic.Bool // the relay timer will write the waiting DONE frames
	closed     atomic.Bool
	closedCh   chan struct{}
	wg         sync.WaitGroup
}

// NewRemoteHub binds a hub listener ("unix" or "tcp"; empty addr picks a
// private socket path or a loopback port) and attaches it to the network.
// onExec, when non-nil, receives every EXEC event children report.
func NewRemoteHub(n *Network, network, addr string, onExec func(ExecEvent)) (*RemoteHub, error) {
	h, err := listen(network, addr)
	if err != nil {
		return nil, err
	}
	h.onExec = onExec
	h.start(n)
	return h, nil
}

// listen binds a hub's listener ("unix" or "tcp"; an empty addr picks a
// private socket path or a loopback port). The hub serves nothing until
// start attaches it to a network.
func listen(network, addr string) (*RemoteHub, error) {
	h := &RemoteHub{peers: make(map[string]*remotePeer), closedCh: make(chan struct{})}
	switch network {
	case "unix":
		if addr == "" {
			dir, err := os.MkdirTemp("", "crewhub")
			if err != nil {
				return nil, cerrors.E(cerrors.CodeDialRefused, cerrors.PhaseListen, cerrors.ErrWire, err, "hub socket dir")
			}
			h.tmpDir = dir
			addr = filepath.Join(dir, "hub.sock")
		}
	case "tcp":
		if addr == "" {
			addr = "127.0.0.1:0"
		}
	default:
		return nil, cerrors.E(cerrors.CodeInvalidConfig, cerrors.PhaseConfig, cerrors.ErrInvalidConfig, nil, "socket network %q (want unix or tcp)", network)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		os.RemoveAll(h.tmpDir) // "" removes nothing
		return nil, cerrors.E(cerrors.CodeDialRefused, cerrors.PhaseListen, cerrors.ErrWire, err, "listen %s %s", network, addr)
	}
	h.ln = ln
	return h, nil
}

// start attaches the hub to a network, which closes it, and accepts children.
func (h *RemoteHub) start(n *Network) {
	h.n = n
	n.addBackend(h)
	h.wg.Add(1)
	go h.acceptLoop()
}

// Addr returns the hub's bound address (children dial it).
func (h *RemoteHub) Addr() string { return h.ln.Addr().String() }

// RegisterRemote creates a network node whose consumer is a child process.
// The node takes part in counting, fault injection, parking and quiescence
// like any in-process node; its deliveries cross the hub connection once a
// child claims the name.
func (h *RemoteHub) RegisterRemote(name string) error {
	if h.closed.Load() {
		return ErrClosed
	}
	return h.n.registerRemote(name, h.peer)
}

// peer makes nd a hub peer: its pump delivers through the connection a child
// claims under nd's name.
func (h *RemoteHub) peer(nd *node) {
	nd.peer = &remotePeer{hub: h, nd: nd, claimed: make(chan struct{})}
	h.mu.Lock()
	h.peers[nd.name] = nd.peer
	h.mu.Unlock()
}

// eachConnected runs fn under each connected peer's lock, holding no other.
func (h *RemoteHub) eachConnected(fn func(p *remotePeer)) {
	h.mu.Lock()
	peers := make([]*remotePeer, 0, len(h.peers))
	for _, p := range h.peers {
		peers = append(peers, p)
	}
	h.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			fn(p)
		}
		p.mu.Unlock()
	}
}

// Announce broadcasts a node's liveness transition to every connected child,
// so their election liveness maps track the hub's crash/recover injections.
// The network-side Crash/Recover bookkeeping is the caller's job (the fault
// injector already drives Network.Crash and Network.Recover directly).
func (h *RemoteHub) Announce(name string, up bool) {
	typ := frameCrash
	if up {
		typ = frameRecover
	}
	frame := appendFrame(nil, typ, binenc.AppendString(nil, name))
	h.eachConnected(func(p *remotePeer) { p.writeLocked(frame) })
}

// UseRegistry gives the hub the terminal registry of the process it runs in:
// when a child claims its node, finished is asked about each instance key its
// HELLO lists, and the WELCOME is followed by a DONE naming those finished.
// finished runs under the child's lock and must not call the hub. Call
// UseRegistry before children connect.
func (h *RemoteHub) UseRegistry(finished func(key string) (Completion, bool)) {
	h.mu.Lock()
	h.finished = finished
	h.mu.Unlock()
}

// Relay tells every connected child that the instances in done finished. The
// entries join the child's waiting DONE frame, which the hub's next write to
// it carries; relayDelay later a timer writes what no write carried. The hub
// keeps nothing for a child that is not connected: its HELLO lists what it
// still holds when it claims its node again. Relay never waits for a write.
func (h *RemoteHub) Relay(done []Completion) {
	if len(done) == 0 || h.closed.Load() {
		return
	}
	h.mu.Lock()
	for _, p := range h.peers {
		p.dmu.Lock()
		if p.relay {
			if len(p.done) == 0 {
				p.done = beginFrame(p.done, frameDone)
			}
			for _, c := range done {
				p.done = appendCompletion(p.done, c)
			}
		}
		p.dmu.Unlock()
	}
	h.mu.Unlock()
	if h.relayArmed.CompareAndSwap(false, true) {
		time.AfterFunc(relayDelay, func() {
			h.relayArmed.Store(false)
			h.eachConnected(func(p *remotePeer) { p.writeLocked(nil) })
		})
	}
}

// Connected reports whether a child currently claims the node.
func (h *RemoteHub) Connected(name string) bool {
	h.mu.Lock()
	p := h.peers[name]
	h.mu.Unlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn != nil
}

// WaitConnected blocks until every named node has been claimed by a child.
func (h *RemoteHub) WaitConnected(ctx context.Context, names ...string) error {
	for _, name := range names {
		h.mu.Lock()
		p := h.peers[name]
		h.mu.Unlock()
		if p == nil {
			return fmt.Errorf("%w: %q", ErrUnknownNode, name)
		}
		for {
			p.mu.Lock()
			connected := p.conn != nil
			ch := p.claimed
			p.mu.Unlock()
			if connected {
				break
			}
			select {
			case <-ch:
			case <-ctx.Done():
				return ctx.Err()
			case <-h.closedCh:
				return ErrClosed
			}
		}
	}
	return nil
}

// Close shuts the hub down: the listener and every child connection close,
// which fails in-flight delivers and joins the reader goroutines. Idempotent;
// Network.Close calls it through the backend registration.
func (h *RemoteHub) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	close(h.closedCh)
	h.ln.Close()
	h.eachConnected(func(p *remotePeer) { p.conn.Close() })
	h.wg.Wait()
	os.RemoveAll(h.tmpDir)
	return nil
}

func (h *RemoteHub) acceptLoop() {
	defer h.wg.Done()
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go h.serve(c)
	}
}

// serve handles one child connection: HELLO claims a node, then the loop
// dispatches the child's MSG/ACK/EXEC frames until the connection dies.
func (h *RemoteHub) serve(c net.Conn) {
	defer h.wg.Done()
	fr := newFrameReader(c, hubReadBuf)
	typ, body, err := fr.next()
	if err != nil || typ != frameHello {
		c.Close()
		return
	}
	var w binenc.Walker
	rd := w.Reader()
	rd.Reset(body)
	name, format := rd.Str(), rd.Byte()
	h.mu.Lock()
	p, finished := h.peers[name], h.finished
	h.mu.Unlock()
	if rd.Err() != nil || format != WireFormat || p == nil {
		// A build with another payload layout, or a node nobody registered:
		// the claim is refused with a WELCOME holding only this build's
		// format byte, by which the child tells the two apart. The write's
		// error is dropped, the connection closes anyway.
		c.Write(appendFrame(nil, frameWelcome, []byte{WireFormat}))
		c.Close()
		return
	}
	var held []string
	for rd.More() {
		held = append(held, rd.Str())
	}
	if rd.Err() != nil {
		c.Close() // refs a child of this build never writes
		return
	}
	if !p.attach(c, held, finished) {
		return
	}
	defer p.detach(c)
	for {
		typ, body, err = fr.next()
		if err != nil {
			return
		}
		switch typ {
		case frameMsg:
			if h.route(&w, body) != nil {
				return
			}
		case frameAck:
			p.ack()
		case frameExec:
			if h.onExec == nil {
				continue // nobody observes it: not even decoded
			}
			ev, err := decodeExec(rd, body)
			if err != nil {
				return
			}
			h.onExec(ev)
		default:
			return
		}
	}
}

// route sends a child's MSG frame on through the hub network, where it is
// counted, shown to the fault policy and parked like a local send. A single
// message for another agent process is forwarded as the bytes it arrived in:
// only its header is read, its names are the hub's own strings when the hub
// knows them (a node, a registered kind) and its payload type must be
// registered, but the payload is left for the receiving child to decode. An
// envelope, or a message for a node in this process, is decoded whole. An
// error means the frame is bad; the caller drops the connection.
func (h *RemoteHub) route(w *binenc.Walker, body []byte) error {
	w.Decode(body)
	rd := w.Reader()
	if rd.Byte() == 0 {
		hd, _, err := readHeader(w)
		if err != nil {
			return err
		}
		if err := rd.Err(); err != nil {
			return malformed(err, "message header")
		}
		nodes := *h.n.nodes.Load()
		if to := nodes[string(hd.to)]; to != nil && to.peer != nil {
			var from string
			if nd := nodes[string(hd.from)]; nd != nil {
				from = nd.name
			} else {
				from = string(hd.from)
			}
			h.n.deliver(to, Message{From: from, To: to.name, Kind: internKind(hd.kind), Mechanism: hd.mech, Payload: newRawFrame(body)})
			return nil
		}
	}
	m, err := decodeMessage(w, body)
	if err != nil {
		return err
	}
	h.inject(m)
	return nil
}

// inject routes a decoded message through the hub network, counted (per
// logical message for envelopes) exactly like a local send.
func (h *RemoteHub) inject(m Message) {
	if env, ok := m.Payload.(*Envelope); ok && m.Kind == KindEnvelope {
		nd := h.n.lookup(m.To)
		if nd == nil {
			env.Release()
			return
		}
		h.n.deliverBatch(nd, env)
		return
	}
	h.n.Send(m)
}

// remotePeer is the hub-side send half of one remote node: what its network
// node's pump delivers through, plus the claimed connection.
type remotePeer struct {
	hub *RemoteHub
	nd  *node

	// mu guards conn and serializes every write on it: deliveries, the
	// attach-time WELCOME + unacked replay, and liveness broadcasts. The lock
	// order is mu before nd.mu, always.
	mu      sync.Mutex //crew:lockrank 30
	conn    net.Conn
	claimed chan struct{} // closed while conn != nil; replaced on detach
	scratch []byte
	walker  binenc.Walker // encodes the payloads

	// dmu guards done, the DONE frame waiting for the next write to conn,
	// and relay, whether conn takes relayed completions. Relay holds dmu
	// alone, so a write in progress never holds it up; a write takes it
	// under mu to swap done for wbuf, the buffer the last write went out of.
	dmu   sync.Mutex //crew:lockrank 35
	done  []byte
	relay bool
	wbuf  []byte
}

// relayTo starts or stops relaying completions to the connection, dropping
// any waiting.
func (p *remotePeer) relayTo(on bool) {
	p.dmu.Lock()
	p.done, p.relay = p.done[:0], on
	p.dmu.Unlock()
}

// deliver carries one message toward the child. With a claimed connection it
// appends the message to the unacked tail and writes the frame — returning
// nil even if the write fails, because the message is tracked for replay and
// popping it back out would race the ACK stream. With no connection it waits
// for a claim, failing fast once the node is marked down so the pump parks
// the remainder (keeping AwaitStall's stalled-network signal sharp) and
// polling the liveness flag so a crash during the wait cannot strand it.
func (p *remotePeer) deliver(m Message) error {
	for {
		p.mu.Lock()
		if p.conn != nil {
			err := p.writeMsgLocked(m)
			p.mu.Unlock()
			return err
		}
		ch := p.claimed
		p.mu.Unlock()
		if p.hub.closed.Load() {
			return ErrClosed
		}
		if !p.nd.up.Load() {
			return cerrors.E(cerrors.CodePeerCrashed, cerrors.PhaseDeliver, cerrors.ErrWire, nil, "node %s down with no process attached", p.nd.name)
		}
		select {
		case <-ch:
		case <-p.hub.closedCh:
			return ErrClosed
		case <-time.After(20 * time.Millisecond):
			// Re-check the liveness flag; a crash can land while we sleep.
		}
	}
}

// writeMsgLocked encodes and writes one MSG frame under p.mu, tracking the
// message in the node's unacked tail first: once the frame may have reached
// the child the message must be replayable, and ACKs pop strictly from the
// front. An encode failure (unregistered payload — a sender bug) is returned
// without tracking; a write failure is not an error here, the reader will
// detach the dead connection and a reclaim will replay the tail.
func (p *remotePeer) writeMsgLocked(m Message) error {
	framed, err := p.frameLocked(m)
	if err != nil {
		return err
	}
	p.nd.mu.Lock()
	p.nd.unacked.push(m)
	if !p.nd.up.Load() {
		p.nd.net.parked.Add(1)
	}
	p.nd.mu.Unlock()
	p.writeLocked(framed)
	return nil
}

// frameLocked returns m as a MSG frame: a forwarded frame as it arrived,
// anything else encoded into the scratch buffer.
func (p *remotePeer) frameLocked(m Message) ([]byte, error) {
	if f, ok := m.Payload.(rawFrame); ok {
		return f.bytes(), nil
	}
	framed, err := appendMessageFrame(p.scratch[:0], m, &p.walker)
	if err != nil {
		return nil, err
	}
	p.scratch = framed
	return framed, nil
}

// writeLocked writes complete frames under p.mu, behind the waiting DONE
// frame if there is one. A failed write closes the connection: the reader
// detaches it and a reclaim replays the tail.
func (p *remotePeer) writeLocked(frames []byte) bool {
	p.dmu.Lock()
	if len(p.done) > 0 {
		frames = append(endFrame(p.done, 0), frames...)
		p.done, p.wbuf = p.wbuf[:0], frames
	}
	p.dmu.Unlock()
	if len(frames) == 0 {
		return true
	}
	if _, err := p.conn.Write(frames); err != nil {
		p.conn.Close()
		return false
	}
	return true
}

// attach installs a claimed connection: welcome the child with the current
// roster and liveness, tell it which instances of its HELLO (held) finished,
// replay the unacked tail in order (nothing new can be written while p.mu is
// held, so replay precedes all fresh traffic), then release waiting delivers.
// Relaying to the connection starts before the WELCOME is written, so each
// completion is relayed or read from finished; the WELCOME goes straight to
// the connection, so that it stays the first frame and the relayed ones ride
// the next write. A claim that lands after Close swept the peers'
// connections is closed here and refused, or nobody would close it and Close
// would wait for its reader forever.
func (p *remotePeer) attach(c net.Conn, held []string, finished func(string) (Completion, bool)) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hub.closed.Load() {
		c.Close()
		return false
	}
	wasConnected := p.conn != nil
	if wasConnected {
		p.conn.Close()
	}
	p.conn = c
	p.relayTo(true) // drops an earlier connection's; the HELLO names what is held
	nodes := p.hub.n.Nodes()
	w := append(beginFrame(p.scratch[:0], frameWelcome), WireFormat)
	w = binary.AppendUvarint(w, uint64(len(nodes)))
	for _, name := range nodes {
		w = binenc.AppendString(w, name)
		w = binenc.AppendBool(w, p.hub.n.Alive(name))
	}
	p.scratch = endFrame(w, 0)
	if _, err := c.Write(p.scratch); err != nil {
		c.Close() // as writeLocked does: the reader detaches it
	}
	if finished != nil && len(held) > 0 {
		w = beginFrame(p.scratch[:0], frameDone)
		for _, key := range held {
			if d, ok := finished(key); ok {
				w = appendCompletion(w, d)
			}
		}
		p.scratch = endFrame(w, 0)
		p.writeLocked(p.scratch)
	}
	p.nd.mu.Lock()
	pending := append([]Message(nil), p.nd.unacked.live()...)
	p.nd.mu.Unlock()
	for _, m := range pending {
		framed, err := p.frameLocked(m)
		if err != nil {
			continue
		}
		if !p.writeLocked(framed) {
			break
		}
	}
	if !wasConnected {
		close(p.claimed)
	}
	return true
}

// detach clears the connection if it is still the current one. Liveness is
// not touched: an unexpected disconnect (a killed process) is announced by
// whoever killed it — the transport only knows the pipe broke.
func (p *remotePeer) detach(c net.Conn) {
	c.Close()
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
		p.relayTo(false)
		p.claimed = make(chan struct{})
	}
	p.mu.Unlock()
}

// ack retires the oldest unacked delivery: the child has fully processed it
// (its follow-up sends precede the ACK on the wire, so they are already
// routed). The parked adjustment and the down decision share the node lock
// with Crash/Recover, keeping the parked invariant — every queued or unacked
// message of a down node is parked, nothing else — exact under races.
func (p *remotePeer) ack() {
	p.nd.mu.Lock()
	m, ok := p.nd.unacked.pop()
	down := !p.nd.up.Load()
	p.nd.mu.Unlock()
	if !ok {
		return
	}
	if down {
		p.nd.net.parked.Add(-1)
	}
	p.nd.net.decInflight()
	if env, ok := m.Payload.(*Envelope); ok && m.Kind == KindEnvelope {
		env.Release()
	}
}

// ackQueue is a remote node's FIFO of delivered-but-unacknowledged messages.
// pop advances a head index instead of shifting the slice, so an ACK costs the
// same however far the child has fallen behind, and compacts once the retired
// prefix outweighs the live window.
type ackQueue struct {
	msgs []Message // msgs[head:] is the live window
	head int
}

func (q *ackQueue) len() int        { return len(q.msgs) - q.head }
func (q *ackQueue) live() []Message { return q.msgs[q.head:] }
func (q *ackQueue) push(m Message)  { q.msgs = append(q.msgs, m) }

func (q *ackQueue) pop() (Message, bool) {
	if q.head == len(q.msgs) {
		return Message{}, false
	}
	m := q.msgs[q.head]
	q.msgs[q.head] = Message{} // a retired slot must not pin its envelope
	q.head++
	if q.head > len(q.msgs)/2 {
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	return m, true
}

func appendExec(dst []byte, ev ExecEvent) []byte {
	dst = append(dst, ev.Phase)
	dst = binenc.AppendString(dst, ev.Workflow)
	dst = binenc.AppendString(dst, ev.Step)
	return binenc.AppendInt(dst, ev.Instance)
}

func decodeExec(r *binenc.Reader, body []byte) (ExecEvent, error) {
	r.Reset(body)
	ev := ExecEvent{Phase: r.Byte(), Workflow: r.Str(), Step: r.Str(), Instance: r.Int()}
	if err := r.Done(); err != nil {
		return ev, malformed(err, "exec body")
	}
	return ev, nil
}

// A DONE body is completions to its end, [workflow][id][status] each.
func appendCompletion(dst []byte, c Completion) []byte {
	return append(binenc.AppendInt(binenc.AppendString(dst, c.Workflow), c.ID), c.Status)
}

// readCompletions hands fn each completion of a DONE body, as far as the body
// parses.
func readCompletions(r *binenc.Reader, body []byte, fn func(Completion)) error {
	r.Reset(body)
	for r.More() {
		if c := (Completion{Workflow: r.Str(), ID: r.Int(), Status: r.Byte()}); r.Err() == nil {
			fn(c)
		}
	}
	if err := r.Err(); err != nil {
		return malformed(err, "done body")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Child side

// ChildConn is the agent-process side of the hub protocol: one connection
// that claims this process's node name and then multiplexes deliveries and
// completions in and sends/acks/exec-events out. Writes are safe for
// concurrent use (the agent's own goroutine, for sweep ticks and commands,
// and the delivery loop share the connection).
type ChildConn struct {
	conn net.Conn
	name string

	// wmu guards the write side. While Serve works through the frames one
	// read delivered (held), SendMessage and Exec append their frames to out
	// and each delivery's ACK follows its own frames; the buffer leaves in one
	// Write before the next read that would block. Outside such a burst a
	// frame is written at once. werr is the first failed write: it closes the
	// connection, and Serve returns it.
	wmu    sync.Mutex
	out    []byte
	walker binenc.Walker // encodes the payloads
	held   bool
	werr   error

	amu   sync.Mutex
	alive map[string]bool

	// OnLiveness, if set before Serve, is called on the reader goroutine,
	// after Alive, for each crash (up false) or recovery the hub announces.
	OnLiveness func(name string, up bool)
}

// DialHub connects to a hub and claims name. The HELLO carries this build's
// WireFormat; a hub built with another answers with its own and closes, which
// Serve reports as CodeWireFormat, and a hub that has no node by that name
// does the same with this build's, which Serve reports as CodeUnclaimedNode.
// held lists the instance keys of the child's database rows (wfdb), to the
// end of the HELLO: the hub's first DONE names those that have finished.
func DialHub(network, addr, name string, held ...string) (*ChildConn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, cerrors.E(cerrors.CodeDialRefused, cerrors.PhaseDial, cerrors.ErrWire, err, "dial hub %s %s", network, addr)
	}
	hello := append(binenc.AppendString(beginFrame(nil, frameHello), name), WireFormat)
	for _, key := range held {
		hello = binenc.AppendString(hello, key)
	}
	if _, err := c.Write(endFrame(hello, 0)); err != nil {
		c.Close()
		return nil, cerrors.E(cerrors.CodeDialRefused, cerrors.PhaseDial, cerrors.ErrWire, err, "hello %s", name)
	}
	return &ChildConn{conn: c, name: name, alive: make(map[string]bool)}, nil
}

// Alive reports the hub-announced liveness of a node. The child's own name is
// always alive; nodes the hub has not mentioned yet default to alive (they
// are registered and up until a crash is announced).
func (c *ChildConn) Alive(name string) bool {
	if name == c.name {
		return true
	}
	c.amu.Lock()
	defer c.amu.Unlock()
	up, known := c.alive[name]
	return !known || up
}

// SendMessage forwards one of this process's outbound sends to the hub,
// where it re-enters the authoritative network. Called while Serve works
// through a burst, it joins the burst's buffer and reaches the hub ahead of
// the delivery's ACK. A message that does not encode is returned and leaves
// nothing behind.
func (c *ChildConn) SendMessage(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	out, err := appendMessageFrame(c.out, m, &c.walker)
	if err != nil {
		return err
	}
	c.out = out
	return c.flushLocked()
}

// Exec reports a program-execution event to the hub's invariant checker; it
// is buffered and written like SendMessage.
func (c *ChildConn) Exec(ev ExecEvent) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	start := len(c.out)
	c.out = endFrame(appendExec(beginFrame(c.out, frameExec), ev), start)
	return c.flushLocked()
}

// flushLocked writes the buffered frames in one Write, unless a burst is
// still collecting them.
func (c *ChildConn) flushLocked() error {
	if c.held || len(c.out) == 0 {
		return c.werr
	}
	if c.werr == nil {
		if _, err := c.conn.Write(c.out); err != nil {
			c.werr = cerrors.E(cerrors.CodePeerCrashed, cerrors.PhaseDeliver, cerrors.ErrWire, err, "write to hub")
			c.conn.Close()
		}
	}
	c.out = c.out[:0]
	return c.werr
}

// turn runs deliver for one message of a burst: what the delivery sends, then
// its ACK, join the held buffer. A failed delivery takes its frames back out
// (the connection is closing; the hub still holds the message unacked), and
// the frames and ACKs of the burst's earlier turns still leave.
func (c *ChildConn) turn(deliver func(Message) error, m Message) error {
	c.wmu.Lock()
	c.held = true
	mark := len(c.out)
	c.wmu.Unlock()
	err := deliver(m)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err != nil {
		c.out = c.out[:mark]
		return err
	}
	c.out = appendFrame(c.out, frameAck, nil)
	return nil
}

// release ends a burst: the held frames leave in one Write.
func (c *ChildConn) release() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.held = false
	return c.flushLocked()
}

func (c *ChildConn) writeErr() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.werr
}

// Close tears the connection down (ends Serve).
func (c *ChildConn) Close() error { return c.conn.Close() }

// Serve runs the child's receive loop until the connection closes: deliver
// is called for every incoming message and must return only when the message
// is fully processed — including every follow-up send the processing caused,
// issued through SendMessage so they precede the automatic ACK on the wire.
// That ordering is what makes the hub's quiescence accounting exact across
// the process boundary. The frames one read delivered are served as a burst
// whose output leaves in one Write before the next read that would block.
// done (optional) is given every completion a DONE frame relays, on the
// reading goroutine. A nil error means the hub closed the connection cleanly;
// any other error is returned after the burst's completed turns are written.
func (c *ChildConn) Serve(deliver func(Message) error, done func(Completion)) error {
	err := c.serve(deliver, done)
	c.release()
	c.conn.Close()
	return err
}

func (c *ChildConn) serve(deliver func(Message) error, done func(Completion)) error {
	fr := newFrameReader(c.conn, childReadBuf)
	var w binenc.Walker
	rd := w.Reader()
	for {
		if !fr.buffered() {
			// The next frame takes a read, which may block: the burst's
			// output leaves first.
			if err := c.release(); err != nil {
				return err
			}
		}
		typ, body, err := fr.next()
		if err != nil {
			if werr := c.writeErr(); werr != nil {
				return werr // the failed write closed the connection under this read
			}
			if err == io.EOF || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		switch typ {
		case frameMsg:
			m, err := decodeMessage(&w, body)
			if err != nil {
				return err
			}
			if err := c.turn(deliver, m); err != nil {
				return err
			}
		case frameWelcome:
			// The hub's format byte, then the roster; a refused claim gets
			// the byte alone: another build's, or this build's for a name
			// the hub has not registered.
			rd.Reset(body)
			if format := rd.Byte(); format != WireFormat {
				return cerrors.E(cerrors.CodeWireFormat, cerrors.PhaseDial, cerrors.ErrWire, nil, "hub speaks wire format %d, this build %d", format, WireFormat)
			}
			if len(body) == 1 {
				return cerrors.E(cerrors.CodeUnclaimedNode, cerrors.PhaseDial, cerrors.ErrWire, nil, "hub has no node %q", c.name)
			}
			c.amu.Lock()
			for n := rd.Count(2); n > 0; n-- {
				name := rd.Str()
				c.alive[name] = rd.Bool()
			}
			c.amu.Unlock()
			if err := rd.Done(); err != nil {
				return malformed(err, "welcome body")
			}
		case frameCrash, frameRecover:
			rd.Reset(body)
			name, up := rd.Str(), typ == frameRecover
			if err := rd.Done(); err != nil {
				return malformed(err, "liveness body")
			}
			c.amu.Lock()
			c.alive[name] = up
			c.amu.Unlock()
			if c.OnLiveness != nil {
				c.OnLiveness(name, up)
			}
		case frameDone:
			if done == nil {
				done = func(Completion) {}
			}
			if err := readCompletions(rd, body, done); err != nil {
				return err
			}
		default:
			// The hub never sends HELLO, ACK or EXEC downstream; anything
			// else is a framing desync. Rejecting loudly here beats
			// resynchronizing on a corrupt stream.
			return malformed(nil, "unexpected frame %d from hub", typ)
		}
	}
}
