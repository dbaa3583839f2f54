package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"crew/internal/binenc"
	"crew/internal/cerrors"
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

	if err := n.Send(Message{From: "b", To: "a", Kind: "ping", Payload: wirePayload{B: 7}}); err != nil {
		t.Fatal(err)
	}
	m := child.expect(t, "ping")
	if p, ok := m.Payload.(wirePayload); !ok || p.B != 7 {
		t.Fatalf("payload = %#v", m.Payload)
	}
	if err := n.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce after ack: %v", err)
	}

	// Child -> hub: the forwarded send re-enters the network and reaches a
	// local endpoint.
	if err := child.conn.SendMessage(Message{From: "a", To: "b", Kind: "pong", Payload: wirePayload{B: 9}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ep.Inbox():
		if m.Kind != "pong" {
			t.Fatalf("kind = %q", m.Kind)
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
	if err := n.Send(Message{From: "b", To: "a", Kind: "k0", Payload: wirePayload{B: 0}}); err != nil {
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
		if err := n.Send(Message{From: "b", To: "a", Kind: "k", Payload: wirePayload{B: i}}); err != nil {
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
		if p := m.Payload.(wirePayload); p.B != i {
			t.Fatalf("replayed message %d has payload %d", i, p.B)
		}
	}
	if err := n.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce after replay: %v", err)
	}
}

// TestRemoteHubAnnounce verifies liveness broadcasts reach children and feed
// their Alive view.
func TestRemoteHubAnnounce(t *testing.T) {
	_, hub := newHub(t)
	for _, name := range []string{"a", "b"} {
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
	}
	child := dialChild(t, "unix", hub.Addr(), "a")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hub.WaitConnected(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if !child.conn.Alive("b") {
		t.Fatal("b should default to alive")
	}
	hub.Announce("b", false)
	deadline := time.Now().Add(5 * time.Second)
	for child.conn.Alive("b") {
		if time.Now().After(deadline) {
			t.Fatal("crash announcement never reached the child")
		}
		time.Sleep(time.Millisecond)
	}
	hub.Announce("b", true)
	for !child.conn.Alive("b") {
		if time.Now().After(deadline) {
			t.Fatal("recover announcement never reached the child")
		}
		time.Sleep(time.Millisecond)
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
	if err := n.Send(Message{From: "b", To: "a", Kind: "k", Payload: wirePayload{B: 1}}); err != nil {
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

// countConn records every Write the child makes on its hub connection.
type countConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
	broken bool // Write fails from now on
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

func (c *countConn) taken() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
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
	var rd binenc.Reader
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
			m, err := decodeMessage(&rd, body)
			if err != nil {
				t.Fatalf("child wrote a MSG frame that does not decode: %v", err)
			}
			kinds = append(kinds, m.Kind)
		}
	}
}

// TestChildTurnIsOneWrite pins the write boundary of the child side: every
// frame a delivery causes leaves in one Write, in issue order, with the ACK
// last; a message that does not encode leaves nothing behind in that buffer;
// a frame another goroutine sends while a delivery is in progress (a sweep
// tick that held the agent's turn lock when the delivery arrived) rides in
// that delivery's write, ahead of its frames and its ACK; and a frame sent
// outside a delivery is written at once.
func TestChildTurnIsOneWrite(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	conn := &countConn{Conn: client}
	c := &ChildConn{conn: conn, name: "a", alive: make(map[string]bool)}
	fromChild := make(chan []byte, 16) // what the hub end reads, write by write
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := server.Read(buf)
			if err != nil {
				close(fromChild)
				return
			}
			fromChild <- append([]byte(nil), buf[:n]...)
		}
	}()

	msg := Message{From: "a", To: "b", Kind: "k", Payload: wirePayload{A: "x", B: 1}}
	type unregistered struct{ X int }
	tick := msg
	tick.Kind = "tick"
	inDelivery, tickSent := make(chan struct{}), make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- c.Serve(func(m Message) error {
			if m.Kind == "wait" {
				// The delivery waits for its turn while a tick finishes.
				close(inDelivery)
				<-tickSent
				return c.SendMessage(msg)
			}
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
		}, nil)
	}()

	delivery, err := appendMessageFrame(nil, Message{From: "b", To: "a", Kind: "go"}, new([]string))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write(delivery); err != nil {
		t.Fatal(err)
	}
	turn := <-fromChild
	writes := conn.taken()
	if len(writes) != 1 || !bytes.Equal(writes[0], turn) {
		t.Fatalf("the turn made %d writes, want 1 holding everything the hub read", len(writes))
	}
	want := []byte{frameExec, frameMsg, frameExec, frameMsg, frameMsg, frameAck}
	if got := frameTypes(t, turn); !bytes.Equal(got, want) {
		t.Fatalf("turn frames = %v, want %v (issue order, ACK last)", got, want)
	}

	// A tick's send during a delivery joins the delivery's write.
	delivery, err = appendMessageFrame(nil, Message{From: "b", To: "a", Kind: "wait"}, new([]string))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write(delivery); err != nil {
		t.Fatal(err)
	}
	<-inDelivery
	if err := c.SendMessage(tick); err != nil {
		t.Fatal(err)
	}
	close(tickSent)
	turn = <-fromChild
	if writes := conn.taken(); len(writes) != 1 || !bytes.Equal(writes[0], turn) {
		t.Fatalf("a delivery with a tick inside made %d writes, want 1 holding everything the hub read", len(writes))
	}
	types, kinds := framesOf(t, turn)
	if !bytes.Equal(types, []byte{frameMsg, frameMsg, frameAck}) || kinds[0] != "tick" || kinds[1] != "k" {
		t.Fatalf("turn frames = %v kinds %v, want the tick's MSG, the delivery's MSG, ACK", types, kinds)
	}

	// Outside a delivery nothing is held back.
	if err := c.SendMessage(msg); err != nil {
		t.Fatal(err)
	}
	if got := frameTypes(t, <-fromChild); !bytes.Equal(got, []byte{frameMsg}) {
		t.Fatalf("frames outside a turn = %v, want one MSG", got)
	}
	if n := len(conn.taken()); n != 1 {
		t.Fatalf("SendMessage outside a turn made %d writes, want 1", n)
	}

	// A write that fails closes the connection and is what Serve returns.
	conn.mu.Lock()
	conn.broken = true
	conn.mu.Unlock()
	if err := c.Exec(ExecEvent{}); cerrors.CodeOf(err) != cerrors.CodePeerCrashed {
		t.Fatalf("Exec on a dead connection: %v, want CodePeerCrashed", err)
	}
	select {
	case err := <-served:
		if cerrors.CodeOf(err) != cerrors.CodePeerCrashed {
			t.Fatalf("Serve returned %v, want the failed write", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept running against a dead hub")
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
