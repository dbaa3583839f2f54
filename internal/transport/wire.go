package transport

import "crew/internal/metrics"

// Wire is the pluggable byte-transport backend behind a Network. The Network
// keeps every engine-facing guarantee in its backend-agnostic front half —
// logical message counting and load charging, FaultPolicy consultation,
// Quiesce/in-flight accounting, per-receiver FIFO, crash parking and replay,
// batched envelopes — and hands a backend exactly one job: carry one ordered
// stream of framed messages per node from the Network's pump to that node's
// consumer-side mailbox.
//
// The contract, per node:
//
//   - Listen binds the receive side for a node and returns the Link the
//     Network delivers through. The sink passed to Listen is invoked with
//     each decoded message, in frame order, on the backend's receive side.
//   - deliver(m) carries one physical message (which may be a batched
//     *Envelope) across the backend and does not return success until the
//     sink call for that frame has returned. This synchronous handoff is what
//     lets the front half keep park/replay atomicity: a crash observed by the
//     pump is always at a frame boundary, never mid-socket, so no message can
//     be half-delivered to a down node or reordered around a recovery.
//   - Close tears the backend down and does not return until every
//     outstanding sink invocation has returned.
//
// Backends live in this package: the Link a backend returns is sealed.
//
// The in-process backend is the nil Wire: with NetworkConfig.Wire unset there
// is no pump and no second mailbox, the consumer drains the mailbox senders
// append to.
type Wire interface {
	// Listen binds the wire's receive side for the named node. Inbound
	// frames addressed to the node are decoded and handed to sink in order.
	Listen(node string, sink Sink) (Link, error)
	// Close shuts the backend down, releasing sockets and joining reader
	// goroutines. It must be safe to call concurrently with deliver.
	Close() error
}

// Sink takes one message at the end of a hop. A drain pass hands each message
// it delivers to one (an actor's turn, a Link's deliver, a send on an Inbox
// channel) and treats an error as "not taken": the message is replayed. A
// backend is given one by Listen and calls it with each decoded inbound
// message; the Network's appends to the node's consumer-side mailbox and
// neither blocks nor fails.
type Sink func(m Message) error

// Link is the Network's send side to one node over a Wire backend. Its
// delivery method is unexported, so the link is sealed: only this package
// implements it and only the node's pump calls it, behind the front half
// that counts, sequences and parks every message.
type Link interface {
	// deliver carries one physical message to the node and returns after the
	// node's sink has consumed it (see the Wire contract). A delivered
	// envelope's ownership passes to the backend: it releases the pooled
	// *Envelope after a successful round trip and leaves it intact on error
	// so the pump can replay it.
	//
	//crew:blocks
	deliver(m Message) error
	// Close releases the link's resources.
	Close() error
}

// NetworkConfig parameterizes a Network.
type NetworkConfig struct {
	// Collector receives physical message counts (nil disables counting).
	Collector *metrics.Collector
	// Wire selects the byte-transport backend. Nil is the in-process
	// backend: the consumer drains the senders' mailbox, no serialization,
	// the default and fastest path. A non-nil Wire (NewSocketWire) carries
	// every delivered message through the backend as a length-prefixed binary
	// frame.
	Wire Wire
}

// NewNetwork returns an empty network: the only construction entry point.
func NewNetwork(cfg NetworkConfig) *Network {
	n := &Network{collector: cfg.Collector, wire: cfg.Wire, closedCh: make(chan struct{})}
	empty := make(map[string]*node)
	n.nodes.Store(&empty)
	return n
}
