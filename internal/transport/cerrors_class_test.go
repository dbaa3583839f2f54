package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"crew/internal/binenc"
	"crew/internal/cerrors"
)

// TestWireErrorClassification drives the wire failure modes a multi-process
// supervisor must tell apart — dial refused, truncated frame, peer killed
// mid-conversation, another build's wire format, a claim of a node the hub
// does not have, a DONE or HELLO body that does not parse, protocol desync —
// and asserts each classifies to its
// documented cerrors code and phase. The assertions switch on CodeOf the way
// real callers do: never string matching, never errors.Is on wrapped causes.
func TestWireErrorClassification(t *testing.T) {
	t.Run("dial refused", func(t *testing.T) {
		// Bind a listener to reserve an address, then close it so the dial
		// lands on a dead port.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		_, err = DialHub("tcp", addr, "a")
		if err == nil {
			t.Fatal("DialHub to a closed listener succeeded")
		}
		switch cerrors.CodeOf(err) {
		case cerrors.CodeDialRefused:
		default:
			t.Fatalf("CodeOf = %q, want CodeDialRefused (err=%v)", cerrors.CodeOf(err), err)
		}
		if cerrors.PhaseOf(err) != cerrors.PhaseDial {
			t.Fatalf("PhaseOf = %q, want PhaseDial", cerrors.PhaseOf(err))
		}
	})

	t.Run("frame truncated", func(t *testing.T) {
		// A header that promises 100 body bytes over a stream holding 3.
		raw := appendFrame(nil, frameMsg, bytes.Repeat([]byte{7}, 99))
		_, _, err := newFrameReader(bytes.NewReader(raw[:8]), 0).next()
		if err == nil {
			t.Fatal("a truncated stream yielded a frame")
		}
		switch cerrors.CodeOf(err) {
		case cerrors.CodeFrameTruncated:
		default:
			t.Fatalf("CodeOf = %q, want CodeFrameTruncated (err=%v)", cerrors.CodeOf(err), err)
		}
		if cerrors.PhaseOf(err) != cerrors.PhaseDecode {
			t.Fatalf("PhaseOf = %q, want PhaseDecode", cerrors.PhaseOf(err))
		}
	})

	t.Run("peer killed", func(t *testing.T) {
		// A child claims its node, then its process dies (the connection
		// drops and the supervisor marks the node crashed). A subsequent
		// deliver must fail fast with the peer-crashed code rather than
		// block waiting for a claim that will not come.
		n, hub := newHub(t)
		if err := hub.RegisterRemote("a"); err != nil {
			t.Fatal(err)
		}
		child := dialChild(t, "unix", hub.Addr(), "a")
		waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hub.WaitConnected(waitCtx, "a"); err != nil {
			t.Fatal(err)
		}
		child.conn.Close() // the SIGKILL analog: the socket dies abruptly
		<-child.done
		n.Crash("a")

		hub.mu.Lock()
		p := hub.peers["a"]
		hub.mu.Unlock()
		// The connection teardown races the Close above; give the hub's
		// reader a moment to detach before asserting.
		deadline := time.Now().Add(5 * time.Second)
		for {
			err := p.deliver(Message{From: "b", To: "a", Kind: "k"})
			if err == nil {
				if time.Now().After(deadline) {
					t.Fatal("deliver kept succeeding after the peer died")
				}
				time.Sleep(time.Millisecond)
				continue
			}
			switch cerrors.CodeOf(err) {
			case cerrors.CodePeerCrashed:
			default:
				t.Fatalf("CodeOf = %q, want CodePeerCrashed (err=%v)", cerrors.CodeOf(err), err)
			}
			if cerrors.PhaseOf(err) != cerrors.PhaseDeliver {
				t.Fatalf("PhaseOf = %q, want PhaseDeliver", cerrors.PhaseOf(err))
			}
			break
		}
	})

	t.Run("wire format", func(t *testing.T) {
		// A child built with another payload layout claims a node: the hub
		// answers with its own format byte alone and refuses the claim.
		_, hub := newHub(t)
		if err := hub.RegisterRemote("a"); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("unix", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hello := append(binenc.AppendString(nil, "a"), WireFormat+1)
		if _, err := c.Write(appendFrame(nil, frameHello, hello)); err != nil {
			t.Fatal(err)
		}
		fr := newFrameReader(c, 0)
		if typ, body, err := fr.next(); err != nil || typ != frameWelcome || !bytes.Equal(body, []byte{WireFormat}) {
			t.Fatalf("hub answered %d %v (%v), want a WELCOME of its format byte alone", typ, body, err)
		}
		if _, _, err := fr.next(); err != io.EOF {
			t.Fatalf("after the refusal: %v, want the hub to close", err)
		}
		if hub.Connected("a") {
			t.Fatal("the hub attached a child with another wire format")
		}
		// That refusal, read by a child whose format is not the hub's, names
		// the mismatch instead of misdecoding mid-run. Here the child is
		// this build's and the hub another's.
		client, server := net.Pipe()
		defer server.Close()
		go server.Write(appendFrame(nil, frameWelcome, []byte{WireFormat + 1}))
		child := &ChildConn{conn: client, name: "a", alive: make(map[string]bool)}
		err = child.Serve(func(Message) error { return nil }, nil)
		switch cerrors.CodeOf(err) {
		case cerrors.CodeWireFormat:
		default:
			t.Fatalf("CodeOf = %q, want CodeWireFormat (err=%v)", cerrors.CodeOf(err), err)
		}
		if cerrors.PhaseOf(err) != cerrors.PhaseDial || !errors.Is(err, cerrors.ErrWire) {
			t.Fatalf("err = %v, want phase dial under ErrWire", err)
		}
	})

	t.Run("unclaimed node", func(t *testing.T) {
		// A child of this build claims a node the hub never registered: the
		// hub refuses with its format byte alone, which equals the child's,
		// so Serve names the unknown node rather than a format mismatch.
		_, hub := newHub(t)
		c, err := DialHub("unix", hub.Addr(), "ghost")
		if err != nil {
			t.Fatal(err)
		}
		err = c.Serve(func(Message) error { return nil }, nil)
		switch cerrors.CodeOf(err) {
		case cerrors.CodeUnclaimedNode:
		default:
			t.Fatalf("CodeOf = %q, want CodeUnclaimedNode (err=%v)", cerrors.CodeOf(err), err)
		}
		if cerrors.PhaseOf(err) != cerrors.PhaseDial || !errors.Is(err, cerrors.ErrWire) {
			t.Fatalf("err = %v, want phase dial under ErrWire", err)
		}
	})

	t.Run("malformed done", func(t *testing.T) {
		// A DONE whose entry is cut short inside its id fails the child's
		// Serve as malformed; the completion before it was applied.
		client, server := net.Pipe()
		defer server.Close()
		c := &ChildConn{conn: client, name: "a", alive: make(map[string]bool)}
		var got []Completion
		done := make(chan error, 1)
		go func() {
			done <- c.Serve(func(Message) error { return nil }, func(d Completion) { got = append(got, d) })
		}()
		body := append(appendCompletion(nil, Completion{"WF01", 1, 1}), binenc.AppendString(nil, "WF02")...)
		if _, err := server.Write(appendFrame(nil, frameDone, append(body, 0x80))); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if cerrors.CodeOf(err) != cerrors.CodeFrameMalformed || cerrors.PhaseOf(err) != cerrors.PhaseDecode {
				t.Fatalf("Serve = %v (%q), want CodeFrameMalformed in PhaseDecode", err, cerrors.CodeOf(err))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve did not reject the malformed DONE")
		}
		if len(got) != 1 || got[0] != (Completion{"WF01", 1, 1}) {
			t.Fatalf("completions handed on = %v, want WF01.1 alone", got)
		}
	})

	t.Run("hello refs", func(t *testing.T) {
		// A HELLO of this build whose refs do not parse is refused: the hub
		// closes the connection without a WELCOME and attaches nothing.
		_, hub := newHub(t)
		if err := hub.RegisterRemote("a"); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("unix", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		hello := append(binenc.AppendString(nil, "a"), WireFormat)
		hello = append(hello, 6, 'W') // a key cut short
		if _, err := c.Write(appendFrame(nil, frameHello, hello)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := newFrameReader(c, 0).next(); err != io.EOF {
			t.Fatalf("hub answered a frame of type %d (%v), want it to close", typ, err)
		}
		if hub.Connected("a") {
			t.Fatal("the hub attached a child whose HELLO refs do not parse")
		}
	})

	t.Run("protocol desync", func(t *testing.T) {
		// The hub never sends HELLO downstream; a child receiving one has
		// lost framing and must reject the stream as malformed instead of
		// silently dropping the frame (regression test for the Serve
		// default arm).
		client, server := net.Pipe()
		defer server.Close()
		c := &ChildConn{conn: client, name: "a", alive: make(map[string]bool)}
		done := make(chan error, 1)
		go func() {
			done <- c.Serve(func(Message) error { return nil }, nil)
		}()
		if _, err := server.Write(appendFrame(nil, frameHello, binenc.AppendString(nil, "x"))); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("Serve treated an unexpected frame as a clean close")
			}
			switch cerrors.CodeOf(err) {
			case cerrors.CodeFrameMalformed:
			default:
				t.Fatalf("CodeOf = %q, want CodeFrameMalformed (err=%v)", cerrors.CodeOf(err), err)
			}
			if cerrors.PhaseOf(err) != cerrors.PhaseDecode {
				t.Fatalf("PhaseOf = %q, want PhaseDecode", cerrors.PhaseOf(err))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Serve did not reject the unexpected frame")
		}
	})
}
