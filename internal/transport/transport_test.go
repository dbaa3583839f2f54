package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"crew/internal/metrics"
)

func recvOne(t *testing.T, ep *Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Inbox():
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return Message{}
	}
}

func TestSendDeliver(t *testing.T) {
	col := metrics.NewCollector()
	n := NewNetwork(NetworkConfig{Collector: col})
	defer n.Close()
	a := n.MustRegister("a")
	_ = a
	b := n.MustRegister("b")

	err := n.Send(Message{From: "a", To: "b", Mechanism: metrics.Normal, Kind: "StepExecute", Payload: 42})
	if err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if m.From != "a" || m.Kind != "StepExecute" || m.Payload.(int) != 42 {
		t.Errorf("message = %+v", m)
	}
	if col.Messages(metrics.Normal) != 1 {
		t.Errorf("message not counted: %d", col.Messages(metrics.Normal))
	}
}

func TestFIFOPerReceiver(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	b := n.MustRegister("b")
	n.MustRegister("a")
	for i := 0; i < 100; i++ {
		if err := n.Send(Message{From: "a", To: "b", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if m := recvOne(t, b); m.Payload.(int) != i {
			t.Fatalf("out of order: got %v at %d", m.Payload, i)
		}
	}
}

func TestSendUnknownNode(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	n.MustRegister("a")
	err := n.Send(Message{From: "a", To: "ghost"})
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestDuplicateRegister(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	n.MustRegister("a")
	if _, err := n.Register("a"); err == nil {
		t.Error("duplicate register should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegister should panic on duplicate")
		}
	}()
	n.MustRegister("a")
}

func TestCrashQueuesAndRecoverDelivers(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	n.MustRegister("a")
	b := n.MustRegister("b")

	if !n.Crash("b") {
		t.Fatal("Crash returned false")
	}
	if n.Alive("b") {
		t.Error("crashed node reported alive")
	}
	for i := 0; i < 3; i++ {
		if err := n.Send(Message{From: "a", To: "b", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is delivered while down.
	select {
	case m := <-b.Inbox():
		t.Fatalf("delivered while down: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if q := n.QueuedFor("b"); q != 3 {
		t.Errorf("QueuedFor = %d, want 3", q)
	}

	if !n.Recover("b") {
		t.Fatal("Recover returned false")
	}
	for i := 0; i < 3; i++ {
		if m := recvOne(t, b); m.Payload.(int) != i {
			t.Fatalf("recovered delivery out of order: %v at %d", m.Payload, i)
		}
	}
	if !n.Alive("b") {
		t.Error("recovered node reported dead")
	}
}

func TestCrashUnknown(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	if n.Crash("ghost") || n.Recover("ghost") || n.Alive("ghost") {
		t.Error("operations on unknown node should be false")
	}
	if n.QueuedFor("ghost") != 0 {
		t.Error("QueuedFor unknown node should be 0")
	}
}

func TestNodes(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	n.MustRegister("z")
	n.MustRegister("a")
	got := n.Nodes()
	if len(got) != 2 || got[0] != "a" || got[1] != "z" {
		t.Errorf("Nodes = %v", got)
	}
}

func TestCloseClosesInboxes(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	a := n.MustRegister("a")
	n.Close()
	select {
	case _, ok := <-a.Inbox():
		if ok {
			t.Error("expected closed inbox")
		}
	case <-time.After(time.Second):
		t.Error("inbox not closed")
	}
	if err := n.Send(Message{From: "a", To: "a"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v", err)
	}
	if _, err := n.Register("b"); !errors.Is(err, ErrClosed) {
		t.Errorf("Register after Close = %v", err)
	}
	n.Close() // idempotent
}

func TestTrace(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	n.MustRegister("a")
	b := n.MustRegister("b")
	var mu sync.Mutex
	var kinds []string
	n.Trace(func(m Message) {
		mu.Lock()
		kinds = append(kinds, m.Kind)
		mu.Unlock()
	})
	n.Send(Message{From: "a", To: "b", Kind: "AddRule"})
	n.Send(Message{From: "a", To: "b", Kind: "AddEvent"})
	recvOne(t, b)
	recvOne(t, b)
	mu.Lock()
	defer mu.Unlock()
	if len(kinds) != 2 || kinds[0] != "AddRule" || kinds[1] != "AddEvent" {
		t.Errorf("trace = %v", kinds)
	}
}

func TestSendNeverBlocks(t *testing.T) {
	n := NewNetwork(NetworkConfig{})
	defer n.Close()
	n.MustRegister("a")
	n.MustRegister("b") // nobody reads b's inbox
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			if err := n.Send(Message{From: "a", To: "b", Payload: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked with unread inbox")
	}
}

func TestConcurrentSendersCountExactly(t *testing.T) {
	col := metrics.NewCollector()
	n := NewNetwork(NetworkConfig{Collector: col})
	defer n.Close()
	b := n.MustRegister("b")
	const senders, per = 8, 100
	for i := 0; i < senders; i++ {
		name := string(rune('c' + i))
		n.MustRegister(name)
		go func(from string) {
			for j := 0; j < per; j++ {
				n.Send(Message{From: from, To: "b", Mechanism: metrics.Coordination})
			}
		}(name)
	}
	for i := 0; i < senders*per; i++ {
		recvOne(t, b)
	}
	if got := col.Messages(metrics.Coordination); got != senders*per {
		t.Errorf("counted %d messages, want %d", got, senders*per)
	}
}

// seqPolicy records the sequence number of every message it is shown and asks
// for a delay, which a direct node has no queue to apply.
type seqPolicy struct{ seqs []int64 }

func (p *seqPolicy) OnMessage(_ Message, seq int64) Verdict {
	p.seqs = append(p.seqs, seq)
	return Verdict{Delay: 3}
}

// TestDirectNode: a message for a direct node goes through the front half
// (counted per logical message, traced, shown to the fault policy) and is then
// in the node's function before Send returns, on the sender's goroutine: the
// function writes plain variables this test reads back with no
// synchronization. Nothing is ever in flight or parked for such a node, a
// crash included, and a warm send allocates nothing.
func TestDirectNode(t *testing.T) {
	col := metrics.NewCollector()
	n := NewNetwork(NetworkConfig{Collector: col})
	defer n.Close()
	var got []Message
	if err := n.RegisterDirect("hub", func(m Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	if err := n.RegisterDirect("hub", func(Message) {}); err == nil {
		t.Error("a second registration of the name was accepted")
	}
	policy := &seqPolicy{}
	n.SetFaultPolicy(policy)
	traced := 0
	n.Trace(func(Message) { traced++ })

	if err := n.Send(Message{From: "a", To: "hub", Mechanism: metrics.Normal, Kind: "one"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != "one" {
		t.Fatalf("after Send returned the function had seen %v, want the message", got)
	}
	h, err := n.Handle("hub")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnvelope()
	for _, kind := range []string{"two", "three"} {
		env.Msgs = append(env.Msgs, Message{From: "a", To: "hub", Mechanism: metrics.Failure, Kind: kind})
	}
	if err := h.SendBatch(env); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Kind != KindEnvelope || got[1].Payload != any(env) {
		t.Fatalf("a batch reached the function as %v, want one envelope", got[1:])
	}
	n.Crash("hub")
	if err := h.Send(Message{From: "a", To: "hub", Mechanism: metrics.Normal, Kind: "four"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || n.Alive("hub") {
		t.Errorf("a crashed direct node took %d of 3 messages and reports alive=%v, want 3 and false", len(got), n.Alive("hub"))
	}
	if in, parked, queued := n.InFlight(), n.Parked(), n.QueuedFor("hub"); in != 0 || parked != 0 || queued != 0 {
		t.Errorf("in flight %d, parked %d, queued %d: a direct node holds nothing", in, parked, queued)
	}
	if normal, failure := col.Messages(metrics.Normal), col.Messages(metrics.Failure); normal != 2 || failure != 2 {
		t.Errorf("counted %d normal and %d failure messages, want 2 and 2 (an envelope counts what it carries)", normal, failure)
	}
	if traced != 4 || len(policy.seqs) != 3 || policy.seqs[2] != 3 {
		t.Errorf("traced %d logical messages and the policy saw sequence numbers %v, want 4 and 1 2 3", traced, policy.seqs)
	}

	n.SetFaultPolicy(nil)
	n.Trace(nil)
	m := Message{From: "a", To: "hub", Mechanism: metrics.Normal, Kind: "warm"}
	got = got[:0]
	if avg := testing.AllocsPerRun(100, func() {
		got = got[:0]
		h.Send(m)
	}); avg != 0 {
		t.Errorf("a warm send to a direct node allocates %.2f, want 0", avg)
	}
}
