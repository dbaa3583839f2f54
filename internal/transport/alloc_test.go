package transport

import (
	"sync/atomic"
	"testing"

	"crew/internal/binenc"
	"crew/internal/metrics"
)

// Per-message allocation budgets for the send hot path. The budgets are
// deliberately loose (slice growth in the destination queue amortizes to well
// under one allocation per send, pool misses after a GC cost one envelope) so
// the guard only trips on a real regression — e.g. a Message escaping to the
// heap again, or envelopes no longer being pooled.
const (
	sendAllocBudget  = 2.0 // allocs per plain Handle.Send
	batchAllocBudget = 1.0 // allocs per logical message through Batcher+SendBatch
	// burstAllocBudget is the allocs per burst of envBurst messages drained
	// by a receiver on another goroutine, which releases its envelopes into
	// another P's part of the pool: nearly every burst misses the pool, and
	// a miss is one allocation, the envelope and its Msgs array together.
	burstAllocBudget = 1.0
)

// drain consumes rx's inbox on a goroutine, releasing envelopes (the
// receiver's side of the pooling contract) and counting logical messages.
func drain(ep *Endpoint, logical *atomic.Int64) {
	go func() {
		for m := range ep.Inbox() {
			if env, ok := m.Payload.(*Envelope); ok {
				logical.Add(int64(len(env.Msgs)))
				env.Release()
			} else {
				logical.Add(1)
			}
		}
	}()
}

// TestSendAllocBudget guards the plain per-message send path: a steady-state
// Handle.Send must stay within sendAllocBudget allocations.
func TestSendAllocBudget(t *testing.T) {
	net := NewNetwork(NetworkConfig{})
	defer net.Close()
	ep := net.MustRegister("rx")
	var logical atomic.Int64
	drain(ep, &logical)
	h, err := net.Handle("rx")
	if err != nil {
		t.Fatal(err)
	}
	m := Message{From: "tx", To: "rx", Kind: "Ping"}
	// Warm up the queue/batch buffers before measuring.
	for i := 0; i < 64; i++ {
		if err := h.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := h.Send(m); err != nil {
			t.Error(err)
		}
	})
	if avg > sendAllocBudget {
		t.Errorf("Handle.Send allocates %.2f/op, budget %.1f", avg, sendAllocBudget)
	}
}

// TestEnvelopeBatchAllocBudget guards the batched path: adding a burst to a
// Batcher and flushing it must stay within batchAllocBudget allocations per
// logical message (the envelope comes from the pool, the batcher's buffers
// are reused across turns, and the whole burst is one physical delivery),
// and within burstAllocBudget per burst when the pool misses.
func TestEnvelopeBatchAllocBudget(t *testing.T) {
	net := NewNetwork(NetworkConfig{})
	defer net.Close()
	ep := net.MustRegister("rx")
	var logical atomic.Int64
	drain(ep, &logical)
	h, err := net.Handle("rx")
	if err != nil {
		t.Fatal(err)
	}
	m := Message{From: "tx", To: "rx", Kind: "Ping"}
	var b Batcher
	const burst = envBurst
	// Warm up: grows the envelope Msgs capacity the pool will recycle.
	for i := 0; i < 4; i++ {
		for j := 0; j < burst; j++ {
			b.Add(h, m)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		for j := 0; j < burst; j++ {
			b.Add(h, m)
		}
		if err := b.Flush(); err != nil {
			t.Error(err)
		}
	})
	perMsg := avg / burst
	if perMsg > batchAllocBudget {
		t.Errorf("batched send allocates %.2f/logical message (%.1f/burst), budget %.1f", perMsg, avg, batchAllocBudget)
	}
	if avg > burstAllocBudget {
		t.Errorf("a burst of %d drained on another goroutine allocates %.2f times, budget %.1f", burst, avg, burstAllocBudget)
	}

	// Handle.SendBatch on its own: one envelope, sent and drained on this
	// goroutine and never released, so no pool miss is counted. Delivering
	// and queueing a warm envelope allocates nothing.
	direct := net.MustRegister("direct")
	hd, err := net.Handle("direct")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnvelope()
	for j := 0; j < burst; j++ {
		env.Msgs = append(env.Msgs, m)
	}
	keep := func(Message) error { return nil }
	send := func() {
		if err := hd.SendBatch(env); err != nil {
			t.Error(err)
		}
		direct.Drain(keep)
	}
	send()
	if avg := testing.AllocsPerRun(500, send); avg > 0 {
		t.Errorf("Handle.SendBatch of a warm envelope allocates %.2f/op, budget 0", avg)
	}
}

// TestFrameEncodeAllocBudget guards the frame encoders (appendFrame, the
// EXEC and DONE bodies and binenc's appenders): encoding into a warm scratch
// buffer — the shape every writer uses via scratch[:0] — must not allocate,
// down to a whole MSG frame with a registered payload.
func TestFrameEncodeAllocBudget(t *testing.T) {
	body := []byte("payload-bytes")
	m := Message{From: "agent1", To: "agent2", Kind: "StepExecute", Payload: &wirePayload{A: "x", B: 7}}
	ev := ExecEvent{Phase: 1, Workflow: "WF01", Step: "S4", Instance: 7}
	done := Completion{Workflow: "WF01", ID: 7, Status: 1}
	var w binenc.Walker
	encode := func(buf []byte) []byte {
		buf = appendFrame(buf, frameMsg, body)
		buf = binenc.AppendString(buf, "node-name")
		start := len(buf)
		buf = endFrame(appendExec(beginFrame(buf, frameExec), ev), start)
		start = len(buf)
		buf = endFrame(appendCompletion(beginFrame(buf, frameDone), done), start)
		buf, _ = appendMessageFrame(buf, m, &w)
		return buf
	}
	buf := encode(nil) // warm capacity
	avg := testing.AllocsPerRun(500, func() { buf = encode(buf[:0]) })
	if avg > 0 {
		t.Errorf("frame encode allocates %.2f/op into a warm buffer, budget 0", avg)
	}
}

// TestHubRouteAllocBudget guards the hub's path for a child's MSG frame to
// another child: reading the header and routing the frame (interning its
// names, counting it, queueing it at the destination) allocates the frame's
// one copy and nothing else. The destination is down, so the frames stay
// queued and nothing downstream of the queue runs.
func TestHubRouteAllocBudget(t *testing.T) {
	n := NewNetwork(NetworkConfig{Collector: metrics.NewCollector()})
	defer n.Close()
	hub, err := NewRemoteHub(n, "unix", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"agent1", "agent2"} {
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
	}
	n.Crash("agent2")
	frame, err := appendMessageFrame(nil, Message{From: "agent1", To: "agent2", Kind: "ping", Payload: &wirePayload{A: "x", B: 7}}, new(binenc.Walker))
	if err != nil {
		t.Fatal(err)
	}
	body := frame[5:]
	var w binenc.Walker
	for i := 0; i < 64; i++ {
		if err := hub.route(&w, body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(500, func() {
		if err := hub.route(&w, body); err != nil {
			t.Error(err)
		}
	})
	if avg > 1 {
		t.Errorf("routing a forwarded frame allocates %.2f/op, budget 1 (the frame's copy)", avg)
	}
	// 64 to warm up, and AllocsPerRun's own warm-up run before its 500.
	if got := n.QueuedFor("agent2"); got != 565 {
		t.Fatalf("%d frames queued for agent2, want every one routed", got)
	}
}
