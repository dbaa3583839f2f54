package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"crew/internal/metrics"
)

// forEachWire runs fn against every backend: the in-process default (nil
// Wire), unix-domain sockets, and loopback TCP. The transport contract —
// counting, FIFO, park/replay, quiescence — must hold identically on all
// three.
func forEachWire(t *testing.T, fn func(t *testing.T, n *Network)) {
	t.Helper()
	backends := []struct {
		name string
		mk   func(t *testing.T) *SocketWire
	}{
		{"inproc", func(t *testing.T) *SocketWire { return nil }},
		{"unix", func(t *testing.T) *SocketWire {
			w, err := NewSocketWire("unix", "")
			if err != nil {
				t.Fatalf("unix wire: %v", err)
			}
			return w
		}},
		{"tcp", func(t *testing.T) *SocketWire {
			w, err := NewSocketWire("tcp", "")
			if err != nil {
				t.Fatalf("tcp wire: %v", err)
			}
			return w
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			n := NewNetwork(NetworkConfig{Collector: metrics.NewCollector(), Wire: b.mk(t)})
			defer n.Close()
			fn(t, n)
		})
	}
}

func TestWireSendDeliver(t *testing.T) {
	forEachWire(t, func(t *testing.T, n *Network) {
		n.MustRegister("a")
		b := n.MustRegister("b")
		err := n.Send(Message{From: "a", To: "b", Mechanism: metrics.Coordination, Kind: "StepExecute", Payload: &wirePayload{A: "hi", B: 5}})
		if err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, b)
		if m.From != "a" || m.To != "b" || m.Kind != "StepExecute" || m.Mechanism != metrics.Coordination {
			t.Errorf("message = %+v", m)
		}
		if p, ok := m.Payload.(*wirePayload); !ok || p.A != "hi" || p.B != 5 {
			t.Errorf("payload = %#v", m.Payload)
		}
		if got := n.collector.Messages(metrics.Coordination); got != 1 {
			t.Errorf("counted %d, want 1", got)
		}
	})
}

func TestWireFIFO(t *testing.T) {
	forEachWire(t, func(t *testing.T, n *Network) {
		n.MustRegister("a")
		b := n.MustRegister("b")
		const total = 200
		for i := 0; i < total; i++ {
			if err := n.Send(Message{From: "a", To: "b", Payload: &wirePtrPayload{N: i}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < total; i++ {
			if m := recvOne(t, b); m.Payload.(*wirePtrPayload).N != i {
				t.Fatalf("out of order: got %v at %d", m.Payload, i)
			}
		}
	})
}

func TestWireCrashParksAndRecoverReplays(t *testing.T) {
	forEachWire(t, func(t *testing.T, n *Network) {
		n.MustRegister("a")
		b := n.MustRegister("b")
		if !n.Crash("b") {
			t.Fatal("Crash returned false")
		}
		for i := 0; i < 5; i++ {
			if err := n.Send(Message{From: "a", To: "b", Payload: &wirePtrPayload{N: i}}); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case m := <-b.Inbox():
			t.Fatalf("delivered while down: %+v", m)
		case <-time.After(50 * time.Millisecond):
		}
		if got := n.Parked(); got != 5 {
			t.Errorf("Parked = %d, want 5", got)
		}
		// Everything in flight is parked: the network reports a stall.
		stalled, err := n.AwaitStall(context.Background())
		if err != nil || !stalled {
			t.Fatalf("AwaitStall = %v, %v; want stall", stalled, err)
		}
		if !n.Recover("b") {
			t.Fatal("Recover returned false")
		}
		for i := 0; i < 5; i++ {
			if m := recvOne(t, b); m.Payload.(*wirePtrPayload).N != i {
				t.Fatalf("replay out of order: %v at %d", m.Payload, i)
			}
		}
	})
}

func TestWireEnvelopeBatch(t *testing.T) {
	forEachWire(t, func(t *testing.T, n *Network) {
		n.MustRegister("a")
		b := n.MustRegister("b")
		h, err := n.Handle("b")
		if err != nil {
			t.Fatal(err)
		}
		env := NewEnvelope()
		for i := 0; i < 4; i++ {
			env.Msgs = append(env.Msgs, Message{From: "a", To: "b", Kind: "K", Mechanism: metrics.Normal, Payload: &wirePayload{B: i}})
		}
		if err := h.SendBatch(env); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, b)
		genv, ok := m.Payload.(*Envelope)
		if !ok || m.Kind != KindEnvelope {
			t.Fatalf("wrapper = %+v", m)
		}
		if len(genv.Msgs) != 4 {
			t.Fatalf("envelope carried %d logical messages, want 4", len(genv.Msgs))
		}
		for i, lm := range genv.Msgs {
			if lm.Payload.(*wirePayload).B != i {
				t.Errorf("logical %d = %+v", i, lm.Payload)
			}
		}
		genv.Release()
		// Logical counting is backend-independent: 4 messages, not 1.
		if got := n.collector.Messages(metrics.Normal); got != 4 {
			t.Errorf("counted %d logical messages, want 4", got)
		}
	})
}

func TestWireQuiesce(t *testing.T) {
	forEachWire(t, func(t *testing.T, n *Network) {
		n.MustRegister("a")
		b := n.MustRegister("b")
		b.ManualAck()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				m := recvOne(t, b)
				_ = m
				b.Ack()
			}
		}()
		for i := 0; i < 50; i++ {
			if err := n.Send(Message{From: "a", To: "b", Payload: &wirePtrPayload{N: i}}); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := n.Quiesce(ctx); err != nil {
			t.Fatalf("Quiesce: %v", err)
		}
		<-done
		if got := n.InFlight(); got != 0 {
			t.Errorf("InFlight after Quiesce = %d", got)
		}
	})
}

func TestWireCloseClosesInboxes(t *testing.T) {
	forEachWire(t, func(t *testing.T, n *Network) {
		a := n.MustRegister("a")
		n.Close()
		select {
		case _, ok := <-a.Inbox():
			if ok {
				t.Error("expected closed inbox")
			}
		case <-time.After(2 * time.Second):
			t.Error("inbox not closed after network Close")
		}
		if err := n.Send(Message{From: "a", To: "a"}); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after Close = %v", err)
		}
		n.Close() // idempotent
	})
}

func TestWireCloseUnblocksPendingDelivery(t *testing.T) {
	forEachWire(t, func(t *testing.T, n *Network) {
		n.MustRegister("a")
		n.MustRegister("b") // nobody ever reads b's inbox
		for i := 0; i < 10; i++ {
			if err := n.Send(Message{From: "a", To: "b", Payload: &wirePtrPayload{N: i}}); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			n.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close blocked on undelivered messages")
		}
	})
}

func TestSocketWireRejectsBadNetwork(t *testing.T) {
	if _, err := NewSocketWire("udp", ""); err == nil {
		t.Fatal("NewSocketWire(udp) succeeded, want error")
	}
}

func TestSocketWireAddr(t *testing.T) {
	w, err := NewSocketWire("tcp", "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Addr() == "" {
		t.Error("Addr empty")
	}
}
