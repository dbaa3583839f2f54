package transport

import "sync"

// KindEnvelope is the Kind of the physical wrapper message that carries a
// batched envelope. Protocol traces never see it: tracing reports the logical
// messages inside.
const KindEnvelope = "Envelope"

// Envelope is one physical message carrying a burst of logical messages to
// the same destination node. Batching dispatch bursts (a step completion that
// triggers several successor requests, an agent answering every request of a
// received batch) collapses N mailbox round-trips into one while the metrics
// collector still counts every logical message under its own mechanism — the
// paper's message-count tables are byte-identical with batching on or off.
//
// Envelopes are pooled. The receiving endpoint owns a delivered envelope: it
// iterates Msgs and then calls Release exactly once, after which neither the
// envelope nor the Msgs backing array may be touched. A crash before delivery
// parks the whole envelope at the node like any other physical message, so a
// batch is replayed atomically on recovery — logical messages of one envelope
// are never split across a crash, and never double-delivered.
type Envelope struct {
	Msgs []Message
}

// envBurst is the number of messages a fresh envelope holds before Msgs
// grows: a burst's worth, so a pool miss costs one allocation, not the
// envelope and the growths of its Msgs. A receiver on another goroutine
// releases into its own P's part of the pool, so a sender misses often.
const envBurst = 8

// envBlock is a fresh envelope and its first Msgs array, allocated together.
type envBlock struct {
	env  Envelope
	msgs [envBurst]Message
}

var envPool = sync.Pool{New: func() any {
	b := new(envBlock)
	b.env.Msgs = b.msgs[:0]
	return &b.env
}}

// NewEnvelope returns an empty pooled envelope.
func NewEnvelope() *Envelope { return envPool.Get().(*Envelope) }

// Release clears the envelope and returns it to the pool.
func (e *Envelope) Release() {
	for i := range e.Msgs {
		e.Msgs[i] = Message{} // drop payload references before pooling
	}
	e.Msgs = e.Msgs[:0]
	envPool.Put(e)
}

// SendBatch accepts an envelope of logical messages for the handle's node as
// ONE physical message: one acceptance sequence number, one fault-policy
// consultation, one in-flight unit, one mailbox entry, one Ack. Ownership of
// the envelope passes to the transport (and then to the receiver, who must
// Release it); on error the envelope is released here.
func (h *Handle) SendBatch(env *Envelope) error { return h.n.deliverBatch(h.nd, env) }

func (n *Network) deliverBatch(nd *node, env *Envelope) error {
	if len(env.Msgs) == 0 {
		env.Release()
		return nil
	}
	if n.closed.Load() {
		env.Release()
		return ErrClosed
	}
	first := env.Msgs[0]
	wrapper := Message{From: first.From, To: first.To, Mechanism: first.Mechanism, Kind: KindEnvelope, Payload: env}
	seq := n.accepted.Add(1)
	delay := 0
	if p := n.policy.Load(); p != nil {
		v := (*p).OnMessage(wrapper, seq)
		if v.Retransmits > 0 && n.collector != nil {
			// A dropped envelope is retransmitted whole: every logical
			// message inside travels again.
			for i := range env.Msgs {
				n.collector.AddMessages(env.Msgs[i].Mechanism, int64(v.Retransmits))
			}
			n.collector.AddRetransmits(int64(v.Retransmits) * int64(len(env.Msgs)))
		}
		delay = v.Delay
	}
	if n.collector != nil {
		for i := range env.Msgs {
			n.collector.AddMessages(env.Msgs[i].Mechanism, 1)
		}
	}
	if fn := n.trace.Load(); fn != nil {
		for i := range env.Msgs {
			(*fn)(env.Msgs[i])
		}
	}
	n.enqueue(nd, wrapper, delay)
	return nil
}

// Batcher coalesces the sends of one dispatch burst by destination. It is
// owned by a single sender goroutine: Add during a handler turn, Flush at the
// end of the turn (before acknowledging the message that triggered it, so
// quiescence accounting never observes the gap). A destination that received
// only one message is flushed as a plain Send — byte-identical to the
// unbatched path. The batcher's internal buffers are reused across turns, so
// the steady-state cost of a flush is the envelope bookkeeping alone.
type Batcher struct {
	dests []batchDest
}

type batchDest struct {
	h   *Handle
	env *Envelope
}

// Add appends a logical message for the handle's destination.
func (b *Batcher) Add(h *Handle, m Message) {
	for i := range b.dests {
		if b.dests[i].h.nd == h.nd {
			b.dests[i].env.Msgs = append(b.dests[i].env.Msgs, m)
			return
		}
	}
	env := NewEnvelope()
	env.Msgs = append(env.Msgs, m)
	b.dests = append(b.dests, batchDest{h: h, env: env})
}

// Flush sends every pending batch and empties the batcher. It returns the
// first send error; remaining batches are still sent.
func (b *Batcher) Flush() error {
	var firstErr error
	for i := range b.dests {
		d := b.dests[i]
		var err error
		if len(d.env.Msgs) == 1 {
			m := d.env.Msgs[0]
			d.env.Release()
			err = d.h.Send(m)
		} else {
			err = d.h.SendBatch(d.env)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		b.dests[i] = batchDest{}
	}
	b.dests = b.dests[:0]
	return firstErr
}
