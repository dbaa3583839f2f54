package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/metrics"
)

// fakeChild runs a minimal agent host against a hub: every delivery is
// acknowledged (after optional processing) and recorded.
type fakeChild struct {
	conn *ChildConn
	got  chan Message
	done chan error
}

func dialChild(t *testing.T, network, addr, name string) *fakeChild {
	t.Helper()
	conn, err := DialHub(network, addr, name)
	if err != nil {
		t.Fatalf("DialHub(%s): %v", name, err)
	}
	fc := &fakeChild{conn: conn, got: make(chan Message, 64), done: make(chan error, 1)}
	go func() {
		fc.done <- conn.Serve(func(m Message) error {
			fc.got <- m
			return nil
		}, nil)
	}()
	return fc
}

func (fc *fakeChild) expect(t *testing.T, kind string) Message {
	t.Helper()
	select {
	case m := <-fc.got:
		if m.Kind != kind {
			t.Fatalf("child received kind %q, want %q", m.Kind, kind)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("child never received %q", kind)
		return Message{}
	}
}

func newHub(t *testing.T) (*Network, *RemoteHub) {
	t.Helper()
	n := NewNetwork(NetworkConfig{})
	hub, err := NewRemoteHub(n, "unix", "", nil)
	if err != nil {
		n.Close()
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, hub
}

// TestRemoteHubRoundTrip sends hub->child and child->hub and verifies the
// hub's quiescence accounting retires deliveries only on ACK.
func TestRemoteHubRoundTrip(t *testing.T) {
	n, hub := newHub(t)
	if err := hub.RegisterRemote("a"); err != nil {
		t.Fatal(err)
	}
	ep, err := n.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	child := dialChild(t, "unix", hub.Addr(), "a")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hub.WaitConnected(ctx, "a"); err != nil {
		t.Fatal(err)
	}

	if err := n.Send(Message{From: "b", To: "a", Kind: "ping", Payload: &wirePayload{B: 7}}); err != nil {
		t.Fatal(err)
	}
	m := child.expect(t, "ping")
	if p, ok := m.Payload.(*wirePayload); !ok || p.B != 7 {
		t.Fatalf("payload = %#v", m.Payload)
	}
	if err := n.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce after ack: %v", err)
	}

	// Child -> hub: the forwarded send re-enters the network and reaches a
	// local endpoint decoded, as the type it was sent as.
	if err := child.conn.SendMessage(Message{From: "a", To: "b", Kind: "pong", Payload: &wirePayload{B: 9}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ep.Inbox():
		if p, ok := m.Payload.(*wirePayload); m.Kind != "pong" || !ok || p.B != 9 {
			t.Fatalf("hub-local endpoint received %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub-side endpoint never received the forwarded send")
	}
}

// TestRemoteHubReplay crashes a disconnected remote node with traffic in
// flight, then reconnects: the parked messages must replay in order, exactly
// once, and quiescence must settle.
func TestRemoteHubReplay(t *testing.T) {
	n, hub := newHub(t)
	if err := hub.RegisterRemote("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register("b"); err != nil {
		t.Fatal(err)
	}

	first := dialChild(t, "unix", hub.Addr(), "a")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hub.WaitConnected(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	// Deliver one message the child processes but whose "process" then dies
	// before more arrive: kill the connection without acking further.
	if err := n.Send(Message{From: "b", To: "a", Kind: "k0", Payload: &wirePayload{B: 0}}); err != nil {
		t.Fatal(err)
	}
	first.expect(t, "k0")
	if err := n.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	first.conn.Close()
	<-first.done

	// Crash the node, then send while it is down and disconnected: traffic
	// parks (stalled network, not a hang).
	n.Crash("a")
	for i := 1; i <= 3; i++ {
		if err := n.Send(Message{From: "b", To: "a", Kind: "k", Payload: &wirePayload{B: i}}); err != nil {
			t.Fatal(err)
		}
	}
	stalled, err := n.AwaitStall(ctx)
	if err != nil {
		t.Fatalf("AwaitStall while down: %v", err)
	}
	if !stalled {
		t.Fatal("network should be stalled with parked traffic, not idle")
	}

	// Recover and reconnect: the parked messages replay in order.
	n.Recover("a")
	second := dialChild(t, "unix", hub.Addr(), "a")
	for i := 1; i <= 3; i++ {
		m := second.expect(t, "k")
		if p := m.Payload.(*wirePayload); p.B != i {
			t.Fatalf("replayed message %d has payload %d", i, p.B)
		}
	}
	if err := n.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce after replay: %v", err)
	}
}

// TestRemoteHubAnnounce verifies liveness broadcasts reach children: each
// crash and each recovery feeds the child's Alive view, then its OnLiveness.
func TestRemoteHubAnnounce(t *testing.T) {
	_, hub := newHub(t)
	for _, name := range []string{"a", "b"} {
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := DialHub("unix", hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		name      string
		up, alive bool
	}
	calls := make(chan call, 2)
	conn.OnLiveness = func(name string, up bool) { calls <- call{name, up, conn.Alive(name)} }
	go conn.Serve(func(Message) error { return nil }, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hub.WaitConnected(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if !conn.Alive("b") {
		t.Fatal("b should default to alive")
	}
	for _, up := range []bool{false, true} {
		hub.Announce("b", up)
		select {
		case c := <-calls:
			if c != (call{"b", up, up}) {
				t.Fatalf("OnLiveness saw %+v, want b up=%v with Alive already %v", c, up, up)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("announcement (up=%v) never reached the child", up)
		}
	}
}

// TestRemoteDeliverFailsFastWhenDown pins the stall-detection contract: a
// Deliver to a down, disconnected node must error out (parking the message)
// rather than block, so inflight==parked and stall detection stays sharp.
func TestRemoteDeliverFailsFastWhenDown(t *testing.T) {
	n, hub := newHub(t)
	if err := hub.RegisterRemote("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register("b"); err != nil {
		t.Fatal(err)
	}
	n.Crash("a")
	if err := n.Send(Message{From: "b", To: "a", Kind: "k", Payload: &wirePayload{B: 1}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stalled, err := n.AwaitStall(ctx)
	if err != nil {
		t.Fatalf("AwaitStall: %v (deliver must not block while the node is down)", err)
	}
	if !stalled {
		t.Fatal("want stalled network")
	}
}

// TestHubCloseRacingClaim: a child's claim that reaches the hub's reader
// while Close runs must not be left open, or Close waits for that reader
// forever. Each round dials a child and closes the network at once, with a
// little more head start for the claim each time, so the claim lands before,
// during and after Close's sweep of the peers' connections.
func TestHubCloseRacingClaim(t *testing.T) {
	for i := 0; i < 300; i++ {
		n := NewNetwork(NetworkConfig{})
		hub, err := NewRemoteHub(n, "unix", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := hub.RegisterRemote("a"); err != nil {
			t.Fatal(err)
		}
		c, err := DialHub("unix", hub.Addr(), "a")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- c.Serve(func(Message) error { return nil }, nil) }()
		for spin := 0; spin < i%30; spin++ {
			runtime.Gosched()
		}
		closed := make(chan struct{})
		go func() {
			n.Close()
			close(closed)
		}()
		deadline := time.After(5 * time.Second)
		select {
		case <-closed:
		case <-deadline:
			c.Close()
			t.Fatalf("round %d: Close hung with a claim in flight", i)
		}
		select {
		case <-served:
		case <-deadline:
			t.Fatalf("round %d: the child's connection outlived Close", i)
		}
	}
}

// TestHubCountsForwardedMessages: a single message from one child to another
// is forwarded as it arrived, counted once under its mechanism, and arrives
// decoded; an envelope is decoded at the hub and counted per logical message.
func TestHubCountsForwardedMessages(t *testing.T) {
	col := metrics.NewCollector()
	n := NewNetwork(NetworkConfig{Collector: col})
	defer n.Close()
	hub, err := NewRemoteHub(n, "unix", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
	}
	a, b := dialChild(t, "unix", hub.Addr(), "a"), dialChild(t, "unix", hub.Addr(), "b")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hub.WaitConnected(ctx, "a", "b"); err != nil {
		t.Fatal(err)
	}

	if err := a.conn.SendMessage(Message{From: "a", To: "b", Kind: "ping", Mechanism: metrics.Failure, Payload: &wirePayload{A: "x", B: 1}}); err != nil {
		t.Fatal(err)
	}
	m := b.expect(t, "ping")
	if p, ok := m.Payload.(*wirePayload); !ok || *p != (wirePayload{A: "x", B: 1}) || m.From != "a" || m.Mechanism != metrics.Failure {
		t.Fatalf("forwarded message arrived as %+v", m)
	}

	env := NewEnvelope()
	for i := 0; i < 3; i++ {
		env.Msgs = append(env.Msgs, Message{From: "a", To: "b", Kind: "k", Mechanism: metrics.Coordination, Payload: &wirePayload{B: i}})
	}
	err = a.conn.SendMessage(Message{From: "a", To: "b", Kind: KindEnvelope, Payload: env})
	env.Release()
	if err != nil {
		t.Fatal(err)
	}
	m = b.expect(t, KindEnvelope)
	if got, ok := m.Payload.(*Envelope); !ok || len(got.Msgs) != 3 || *got.Msgs[2].Payload.(*wirePayload) != (wirePayload{B: 2}) {
		t.Fatalf("envelope arrived as %+v", m.Payload)
	}
	if err := n.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if f, c := col.Messages(metrics.Failure), col.Messages(metrics.Coordination); f != 1 || c != 3 {
		t.Fatalf("counted %d failure and %d coordination messages, want 1 and 3", f, c)
	}
}

// msgBody builds a single-message body by hand, up to and including the
// payload type name; the caller appends any payload bytes.
func msgBody(from, to, kind string, mech byte, tag string) []byte {
	b := []byte{0}
	for _, s := range []string{from, to, kind} {
		b = binenc.AppendString(b, s)
	}
	return binenc.AppendString(append(b, mech), tag)
}

// TestHubClosesSenderOfBadHeader: the hub reads only a forwarded message's
// header, and a header it cannot route closes the sender's connection;
// nothing of it reaches the destination.
func TestHubClosesSenderOfBadHeader(t *testing.T) {
	_, hub := newHub(t)
	for _, name := range []string{"a", "b"} {
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
	}
	b := dialChild(t, "unix", hub.Addr(), "b")
	for name, body := range map[string][]byte{
		"unregistered payload type": append(msgBody("a", "b", "k", 0, "nosuch.Type"), 0),
		"mechanism out of range":    msgBody("a", "b", "k", 100, ""),
		"header cut short":          msgBody("a", "b", "k", 0, "")[:6],
		"envelope flag":             append([]byte{7}, msgBody("a", "b", "k", 0, "")[1:]...),
	} {
		a, err := DialRaw("unix", hub.Addr(), "a")
		if err != nil {
			t.Fatal(err)
		}
		a.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := a.Write(appendFrame(nil, frameMsg, body)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.NextMsg(); err != io.EOF {
			t.Errorf("%s: the sender's connection read %v, want the hub to close it", name, err)
		}
		a.Close()
	}
	// The first message b receives is the good one sent after them.
	a, err := DialRaw("unix", hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Write(appendFrame(nil, frameMsg, msgBody("a", "b", "ping", 0, ""))); err != nil {
		t.Fatal(err)
	}
	b.expect(t, "ping")
}

// TestTruncatedPayloadFailsReceiver: a forwarded frame's payload is decoded
// by the child it is for, so a payload cut short ends that child's Serve with
// CodeFrameMalformed, while the hub and the sender go on serving.
func TestTruncatedPayloadFailsReceiver(t *testing.T) {
	_, hub := newHub(t)
	for _, name := range []string{"a", "b", "c"} {
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
	}
	a, err := DialRaw("unix", hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, c := dialChild(t, "unix", hub.Addr(), "b"), dialChild(t, "unix", hub.Addr(), "c")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hub.WaitConnected(ctx, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}

	cut, err := appendMessageFrame(nil, Message{From: "a", To: "b", Kind: "k", Payload: &wirePayload{A: "abcdef", B: 1}}, new(binenc.Walker))
	if err != nil {
		t.Fatal(err)
	}
	cut = cut[:len(cut)-4] // inside the payload's string
	binary.BigEndian.PutUint32(cut, uint32(len(cut)-4))
	if err := a.Write(cut); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-b.done:
		if cerrors.CodeOf(err) != cerrors.CodeFrameMalformed {
			t.Fatalf("the receiver's Serve returned %v, want CodeFrameMalformed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the receiver never saw the truncated payload")
	}

	good, err := appendMessageFrame(nil, Message{From: "a", To: "c", Kind: "k", Payload: &wirePayload{B: 2}}, new(binenc.Walker))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Write(good); err != nil {
		t.Fatal(err)
	}
	if m := c.expect(t, "k"); *m.Payload.(*wirePayload) != (wirePayload{B: 2}) {
		t.Fatalf("c received %+v", m)
	}
	if !hub.Connected("a") {
		t.Fatal("the hub dropped the sender of a frame it only forwarded")
	}
}

// countConn records every Write the child makes on its hub connection; with
// oneByte set, every Read returns at most one byte.
type countConn struct {
	net.Conn
	mu      sync.Mutex
	writes  [][]byte
	broken  bool // Write fails from now on
	oneByte atomic.Bool
}

func (c *countConn) Read(b []byte) (int, error) {
	if c.oneByte.Load() && len(b) > 1 {
		b = b[:1]
	}
	return c.Conn.Read(b)
}

func (c *countConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	broken := c.broken
	c.mu.Unlock()
	if broken {
		return 0, errors.New("broken pipe")
	}
	return c.Conn.Write(b)
}

// first takes the oldest recorded Write.
func (c *countConn) first() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.writes) == 0 {
		return nil
	}
	w := c.writes[0]
	c.writes = c.writes[1:]
	return w
}

// frameTypes splits a run of complete frames into their type bytes.
func frameTypes(t *testing.T, b []byte) []byte {
	t.Helper()
	types, _ := framesOf(t, b)
	return types
}

// framesOf splits a run of complete frames into their type bytes and the
// Kinds of the MSG frames among them.
func framesOf(t *testing.T, b []byte) (types []byte, kinds []string) {
	t.Helper()
	fr := newFrameReader(bytes.NewReader(b), len(b))
	var w binenc.Walker
	for {
		typ, body, err := fr.next()
		if err == io.EOF {
			return types, kinds
		}
		if err != nil {
			t.Fatalf("child wrote a partial frame: %v (after frames %v)", err, types)
		}
		types = append(types, typ)
		if typ == frameMsg {
			m, err := decodeMessage(&w, body)
			if err != nil {
				t.Fatalf("child wrote a MSG frame that does not decode: %v", err)
			}
			kinds = append(kinds, m.Kind)
		}
	}
}

// pipeRig serves a ChildConn over one end of a pipe; the test plays the hub
// on the other end and sees the child's output write by write.
type pipeRig struct {
	c         *ChildConn
	conn      *countConn
	hub       net.Conn
	fromChild chan []byte
	served    chan error
}

func newPipeRig(t *testing.T, deliver func(c *ChildConn, m Message) error) *pipeRig {
	client, server := net.Pipe()
	t.Cleanup(func() { server.Close() })
	r := &pipeRig{conn: &countConn{Conn: client}, hub: server, fromChild: make(chan []byte, 16), served: make(chan error, 1)}
	r.c = &ChildConn{conn: r.conn, name: "a", alive: make(map[string]bool)}
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := server.Read(buf)
			if err != nil {
				close(r.fromChild)
				return
			}
			r.fromChild <- append([]byte(nil), buf[:n]...)
		}
	}()
	go func() { r.served <- r.c.Serve(func(m Message) error { return deliver(r.c, m) }, nil) }()
	return r
}

// deliveries returns one MSG frame per kind, back to back.
func deliveries(t *testing.T, kinds ...string) []byte {
	t.Helper()
	var frames []byte
	for _, k := range kinds {
		var err error
		if frames, err = appendMessageFrame(frames, Message{From: "b", To: "a", Kind: k}, new(binenc.Walker)); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// send writes a delivery per kind to the child in one Write.
func (r *pipeRig) send(t *testing.T, kinds ...string) {
	t.Helper()
	r.write(t, deliveries(t, kinds...))
}

func (r *pipeRig) write(t *testing.T, frames []byte) {
	t.Helper()
	if _, err := r.hub.Write(frames); err != nil {
		t.Fatal(err)
	}
}

// next returns what the hub reads next, and checks that it is one whole
// Write of the child's.
func (r *pipeRig) next(t *testing.T) []byte {
	t.Helper()
	select {
	case got, ok := <-r.fromChild:
		if !ok {
			t.Fatal("the child's connection closed")
		}
		if w := r.conn.first(); !bytes.Equal(w, got) {
			t.Fatalf("the hub read %d bytes, the child's Write held %d", len(got), len(w))
		}
		return got
	case <-time.After(5 * time.Second):
		t.Fatal("the child wrote nothing")
		return nil
	}
}

// expectFrames checks one write's frame types and MSG kinds.
func expectFrames(t *testing.T, got []byte, types []byte, kinds ...string) {
	t.Helper()
	gt, gk := framesOf(t, got)
	if !bytes.Equal(gt, types) || strings.Join(gk, ",") != strings.Join(kinds, ",") {
		t.Fatalf("frames %v kinds %v, want %v kinds %v", gt, gk, types, kinds)
	}
}

// reply answers a delivery of kind k with one message of kind "re-"+k.
func reply(c *ChildConn, m Message) error {
	return c.SendMessage(Message{From: "a", To: "b", Kind: "re-" + m.Kind})
}

// TestChildTurnIsOneWrite pins the write boundary of the child side: every
// frame a delivery causes leaves in one Write, in issue order, with the ACK
// last; a message that does not encode leaves nothing behind in that buffer;
// a frame another goroutine sends while a delivery is in progress (a sweep
// tick that held the agent's turn lock when the delivery arrived) rides in
// that delivery's write, ahead of its frames and its ACK; and a frame sent
// outside a delivery is written at once. The deliveries one read brings are
// one burst with one Write, each turn's frames followed by its ACK, and a
// burst ending in another frame type is written before the next read; read
// byte by byte, every delivery is a burst of its own.
func TestChildTurnIsOneWrite(t *testing.T) {
	msg := Message{From: "a", To: "b", Kind: "k", Payload: &wirePayload{A: "x", B: 1}}
	type unregistered struct{ X int }
	tick := msg
	tick.Kind = "tick"
	inDelivery, tickSent := make(chan struct{}), make(chan struct{})
	r := newPipeRig(t, func(c *ChildConn, m Message) error {
		switch m.Kind {
		case "wait":
			// The delivery waits for its turn while a tick finishes.
			close(inDelivery)
			<-tickSent
			return c.SendMessage(msg)
		case "go":
			step := ExecEvent{Phase: ExecEnter, Workflow: "WF01", Step: "S1", Instance: 7}
			c.Exec(step)
			c.SendMessage(msg)
			if err := c.SendMessage(Message{From: "a", To: "b", Kind: "bad", Payload: unregistered{}}); err == nil {
				t.Error("SendMessage accepted an unregistered payload")
			}
			step.Phase = ExecExitOK
			c.Exec(step)
			c.SendMessage(msg)
			return c.SendMessage(msg)
		default:
			return reply(c, m)
		}
	})

	r.send(t, "go")
	expectFrames(t, r.next(t), []byte{frameExec, frameMsg, frameExec, frameMsg, frameMsg, frameAck}, "k", "k", "k")

	// A tick's send during a delivery joins the delivery's write.
	r.send(t, "wait")
	<-inDelivery
	if err := r.c.SendMessage(tick); err != nil {
		t.Fatal(err)
	}
	close(tickSent)
	expectFrames(t, r.next(t), []byte{frameMsg, frameMsg, frameAck}, "tick", "k")

	// Outside a delivery nothing is held back.
	if err := r.c.SendMessage(msg); err != nil {
		t.Fatal(err)
	}
	expectFrames(t, r.next(t), []byte{frameMsg}, "k")

	// Three deliveries in one read: one write, each turn's frame, then its ACK.
	r.send(t, "b1", "b2", "b3")
	expectFrames(t, r.next(t), []byte{frameMsg, frameAck, frameMsg, frameAck, frameMsg, frameAck}, "re-b1", "re-b2", "re-b3")

	// A CRASH frame ending the burst: the burst is still written before the
	// child reads again, and the announcement has been applied.
	r.write(t, appendFrame(deliveries(t, "b4"), frameCrash, binenc.AppendString(nil, "x")))
	expectFrames(t, r.next(t), []byte{frameMsg, frameAck}, "re-b4")
	if r.c.Alive("x") {
		t.Fatal("the CRASH frame in the burst was not applied")
	}

	// Read a byte at a time, each delivery completes alone and is written
	// before the next byte is read.
	// (The read already waiting takes c0 whole; the reads after it are short.)
	r.conn.oneByte.Store(true)
	r.send(t, "c0")
	expectFrames(t, r.next(t), []byte{frameMsg, frameAck}, "re-c0")
	go r.hub.Write(deliveries(t, "c1", "c2", "c3"))
	for _, k := range []string{"re-c1", "re-c2", "re-c3"} {
		expectFrames(t, r.next(t), []byte{frameMsg, frameAck}, k)
	}
	r.conn.oneByte.Store(false)

	// A write that fails closes the connection and is what Serve returns.
	r.conn.mu.Lock()
	r.conn.broken = true
	r.conn.mu.Unlock()
	if err := r.c.Exec(ExecEvent{}); cerrors.CodeOf(err) != cerrors.CodePeerCrashed {
		t.Fatalf("Exec on a dead connection: %v, want CodePeerCrashed", err)
	}
	select {
	case err := <-r.served:
		if cerrors.CodeOf(err) != cerrors.CodePeerCrashed {
			t.Fatalf("Serve returned %v, want the failed write", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept running against a dead hub")
	}
}

// TestFailedDeliveryEndsBurst: a delivery that fails in the middle of a burst
// ends Serve with its error; the earlier turns' frames and ACKs are written,
// the failed turn's own frames are not, and nothing after it is delivered.
func TestFailedDeliveryEndsBurst(t *testing.T) {
	failed := errors.New("delivery failed")
	var delivered []string
	r := newPipeRig(t, func(c *ChildConn, m Message) error {
		delivered = append(delivered, m.Kind)
		reply(c, m)
		if m.Kind == "fail" {
			return failed
		}
		return nil
	})
	r.send(t, "b1", "fail", "b3")
	expectFrames(t, r.next(t), []byte{frameMsg, frameAck}, "re-b1")
	select {
	case err := <-r.served:
		if err != failed {
			t.Fatalf("Serve returned %v, want the delivery's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve went on after a failed delivery")
	}
	if strings.Join(delivered, ",") != "b1,fail" {
		t.Fatalf("delivered %v, want b1 and fail only", delivered)
	}
	if _, open := <-r.fromChild; open {
		t.Fatal("the child wrote again after the burst")
	}
}

// TestAckQueue checks the unacked tail: FIFO, a live window that excludes
// what was popped, retired slots zeroed, and a backing array that does not
// grow while pushes and pops alternate.
func TestAckQueue(t *testing.T) {
	var q ackQueue
	next, popped := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.push(Message{Kind: "k", Payload: next})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			m, ok := q.pop()
			if !ok || m.Payload != popped {
				t.Fatalf("pop = %v, %v; want payload %d", m.Payload, ok, popped)
			}
			popped++
		}
		if q.len() != next-popped || len(q.live()) != q.len() {
			t.Fatalf("len = %d, live = %d, want %d", q.len(), len(q.live()), next-popped)
		}
		if q.len() > 0 && q.live()[0].Payload != popped {
			t.Fatalf("live window starts at %v, want %d", q.live()[0].Payload, popped)
		}
		for i, m := range q.msgs[:cap(q.msgs)][:q.head] {
			if m != (Message{}) {
				t.Fatalf("retired slot %d still holds %v", i, m)
			}
		}
	}
	push(100)
	pop(30)
	pop(40) // passes half: compacts
	push(5)
	pop(35)
	if _, ok := q.pop(); ok {
		t.Fatal("pop from an empty queue")
	}
	push(4)
	limit := cap(q.msgs)
	for i := 0; i < 10000; i++ {
		push(1)
		pop(1)
	}
	if cap(q.msgs) > limit {
		t.Fatalf("steady push/pop grew the backing array from %d to %d", limit, cap(q.msgs))
	}
}
