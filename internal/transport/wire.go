package transport

import "crew/internal/metrics"

// Sink takes one message at the end of a hop. A drain pass hands each message
// it delivers to one (an actor's turn, a hub peer's write to its connection, a
// send on an Inbox channel) and treats an error as "not taken": the message is
// replayed.
type Sink func(m Message) error

// NetworkConfig parameterizes a Network.
type NetworkConfig struct {
	// Collector receives physical message counts (nil disables counting).
	Collector *metrics.Collector
	// Wire selects the socket backend. Nil is the in-process backend: the
	// consumer drains the senders' mailbox, no serialization, the default
	// and fastest path. With a SocketWire the network serves a hub on the
	// wire's listener and every registered node is a hub peer whose child
	// runs in this process, so every delivered message crosses a socket as a
	// length-prefixed binary frame.
	Wire *SocketWire
}

// NewNetwork returns an empty network: the only construction entry point.
func NewNetwork(cfg NetworkConfig) *Network {
	n := &Network{collector: cfg.Collector, closedCh: make(chan struct{})}
	empty := make(map[string]*node)
	n.nodes.Store(&empty)
	if cfg.Wire != nil {
		n.wire = cfg.Wire.hub
		n.wire.start(n)
	}
	return n
}
