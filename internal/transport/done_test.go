package transport

import (
	"context"
	"encoding/hex"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// readFrame reads one frame off a raw connection and returns it whole,
// length prefix included, failing the test after wait.
func readFrame(t *testing.T, fr *frameReader, c net.Conn, wait time.Duration) (byte, []byte) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(wait))
	typ, body, err := fr.next()
	if err != nil {
		t.Fatalf("reading a frame: %v", err)
	}
	return typ, appendFrame(nil, typ, body)
}

// rawChild claims node a of hub with a HELLO naming held, reads the WELCOME
// and returns the connection and its reader, with nothing serving it.
func rawChild(t *testing.T, hub *RemoteHub, held ...string) (*ChildConn, *frameReader) {
	t.Helper()
	c, err := DialHub("unix", hub.Addr(), "a", held...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	fr := newFrameReader(c.conn, 0)
	if typ, _ := readFrame(t, fr, c.conn, 5*time.Second); typ != frameWelcome {
		t.Fatalf("first frame from the hub has type %d, want WELCOME", typ)
	}
	return c, fr
}

// relayHub is a hub with node a and a registry in which WF01.1 committed and
// WF02.1000 aborted.
func relayHub(t *testing.T) (*Network, *RemoteHub) {
	t.Helper()
	n, hub := newHub(t)
	if err := hub.RegisterRemote("a"); err != nil {
		t.Fatal(err)
	}
	hub.UseRegistry(func(key string) (Completion, bool) {
		switch key {
		case "WF01.1":
			return Completion{"WF01", 1, 1}, true
		case "WF02.1000":
			return Completion{"WF02", 1000, 2}, true
		}
		return Completion{}, false
	})
	return n, hub
}

// TestHelloAndDoneGoldenBytes pins the HELLO a child writes, naming the
// instances it holds, and the DONE frames a hub writes: the one that answers
// the HELLO with those of them that finished, and one Relay leaves for the
// relay timer. The hex changes only together with WireFormat.
func TestHelloAndDoneGoldenBytes(t *testing.T) {
	if WireFormat != 7 {
		t.Fatalf("WireFormat %d: the golden bytes below are format 7's", WireFormat)
	}
	held := []string{"WF01.1", "WF02.1000", "WF03.2"}

	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	read := make(chan struct{})
	defer close(read)
	go func() {
		if c, err := DialHub("unix", ln.Addr().String(), "agent01", held...); err == nil {
			<-read
			c.Close()
		}
	}()
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const hello = "0000002202076167656e7430310706574630312e" + "3109574630322e3130303006574630332e32"
	if _, got := readFrame(t, newFrameReader(srv, 0), srv, 5*time.Second); hex.EncodeToString(got) != hello {
		t.Errorf("HELLO:\n got  %x\n want %s", got, hello)
	}

	_, hub := relayHub(t)
	c, fr := rawChild(t, hub, held...)
	const answer = "000000100804574630310201" + "0457463032d00f02"
	if typ, got := readFrame(t, fr, c.conn, 5*time.Second); typ != frameDone || hex.EncodeToString(got) != answer {
		t.Errorf("DONE answering the HELLO:\n got  %x\n want %s", got, answer)
	}
	hub.Relay([]Completion{{"WF03", 2, 2}, {"WF04", -1, 1}})
	const relayed = "0000000f0804574630330402" + "04574630340101"
	if typ, got := readFrame(t, fr, c.conn, 5*time.Second); typ != frameDone || hex.EncodeToString(got) != relayed {
		t.Errorf("relayed DONE:\n got  %x\n want %s", got, relayed)
	}
}

// TestRelayRidesNextWrite: a completion relayed while traffic flows reaches
// the child as a DONE frame ahead of the next message the hub writes it, and
// the relay timer finds nothing left to write.
func TestRelayRidesNextWrite(t *testing.T) {
	n, hub := relayHub(t)
	c, fr := rawChild(t, hub)
	hub.Relay([]Completion{{"WF05", 5, 1}})
	if err := n.Send(Message{From: "b", To: "a", Kind: "k"}); err != nil {
		t.Fatal(err)
	}
	if typ, _ := readFrame(t, fr, c.conn, relayDelay/2); typ != frameDone {
		t.Fatalf("first frame after the relay has type %d, want DONE", typ)
	}
	if typ, _ := readFrame(t, fr, c.conn, relayDelay/2); typ != frameMsg {
		t.Fatalf("second frame has type %d, want the message", typ)
	}
	c.conn.SetReadDeadline(time.Now().Add(2 * relayDelay))
	if typ, _, err := fr.next(); err == nil {
		t.Fatalf("the relay timer wrote a frame of type %d with nothing waiting", typ)
	}
}

// relayingConn relays a completion through hub from inside its first write,
// which is the WELCOME attach writes.
type relayingConn struct {
	net.Conn
	hub  *RemoteHub
	once sync.Once
}

func (c *relayingConn) Write(b []byte) (int, error) {
	c.once.Do(func() { c.hub.Relay([]Completion{{"WF08", 8, 1}}) })
	return c.Conn.Write(b)
}

// TestRelayDuringWelcomeReachesChild: a completion relayed while the hub
// writes a new connection's WELCOME is not lost for that child. It comes
// after the WELCOME, which stays the first frame.
func TestRelayDuringWelcomeReachesChild(t *testing.T) {
	_, hub := relayHub(t)
	hub.mu.Lock()
	p := hub.peers["a"]
	hub.mu.Unlock()
	srv, cli := net.Pipe()
	defer cli.Close()
	attached := make(chan bool, 1)
	go func() { attached <- p.attach(&relayingConn{Conn: srv, hub: hub}, nil, nil) }()
	fr := newFrameReader(cli, 0)
	if typ, _ := readFrame(t, fr, cli, 5*time.Second); typ != frameWelcome {
		t.Fatalf("first frame from the hub has type %d, want WELCOME", typ)
	}
	if !<-attached {
		t.Fatal("attach refused the connection")
	}
	if typ, _ := readFrame(t, fr, cli, 10*relayDelay); typ != frameDone {
		t.Fatalf("frame of type %d after the WELCOME, want the DONE relayed during it", typ)
	}
}

// TestRelayTimerReachesIdleChild: a child the hub has nothing else to write
// gets a relayed completion from the relay timer, relayDelay after the relay.
// A child that connects later is not sent it, though its HELLO lists it: the
// hub keeps nothing for a child that is not connected, and answers from the
// registry, which here does not have it.
func TestRelayTimerReachesIdleChild(t *testing.T) {
	_, hub := relayHub(t)
	c, fr := rawChild(t, hub)
	start := time.Now()
	hub.Relay([]Completion{{"WF06", 6, 2}})
	if typ, _ := readFrame(t, fr, c.conn, 10*relayDelay); typ != frameDone {
		t.Fatalf("frame of type %d, want DONE", typ)
	}
	if waited := time.Since(start); waited < relayDelay/2 {
		t.Errorf("the DONE came after %v: an idle child's completions wait for the timer", waited)
	}

	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for hub.Connected("a") {
		if ctx.Err() != nil {
			t.Fatal("the hub never saw the child go")
		}
		time.Sleep(time.Millisecond)
	}
	hub.Relay([]Completion{{"WF07", 7, 1}})
	c2, fr2 := rawChild(t, hub, "WF07.7")
	if typ, got := readFrame(t, fr2, c2.conn, 5*time.Second); typ != frameDone || len(got) != 5 {
		t.Fatalf("the hub answered the HELLO with %x, want a DONE naming nothing: the registry does not have WF07.7", got)
	}
	c2.conn.SetReadDeadline(time.Now().Add(3 * relayDelay))
	if typ, _, err := fr2.next(); err == nil {
		t.Fatalf("a child that was away when WF07.7 finished got a frame of type %d", typ)
	}
}
