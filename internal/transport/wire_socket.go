package transport

import "fmt"

// SocketWire is the socket backend of a Network: "unix" (unix-domain stream
// sockets) or "tcp" (loopback TCP). It is the hub protocol of remote.go with
// every child in this process: the Network serves a RemoteHub on the wire's
// listener, and each node it registers is a hub peer whose ChildConn, dialled
// from this process, serves into the node's consumer-side mailbox. Every
// delivered message pays the frame codec and a kernel round trip, which is
// what the wire-mode benchmarks measure; counting, parking, replay and
// quiescence over a socket are the hub's, the same code crewrun -procs runs.
type SocketWire struct {
	hub *RemoteHub
}

// NewSocketWire binds a socket backend's listener. network is "unix" or
// "tcp"; an empty addr picks a fresh socket path (unix) or a loopback port
// (tcp). A Network built with it (NetworkConfig.Wire) serves the hub.
func NewSocketWire(network, addr string) (*SocketWire, error) {
	h, err := listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &SocketWire{hub: h}, nil
}

// Addr returns the backend's bound listen address.
func (w *SocketWire) Addr() string { return w.hub.Addr() }

// Close shuts the backend down; closing the Network built with it does too.
func (w *SocketWire) Close() error { return w.hub.Close() }

// local makes a node of this process a hub peer and dials its child: the
// peer is registered before the dial, so the HELLO finds it. The returned
// connection serves into the node's consumer-side mailbox (consume).
func (h *RemoteHub) local(nd *node) (*ChildConn, error) {
	h.peer(nd)
	c, err := DialHub(h.ln.Addr().Network(), h.Addr(), nd.name)
	if err != nil {
		h.mu.Lock()
		delete(h.peers, nd.name)
		h.mu.Unlock()
		return nil, fmt.Errorf("transport: wire node %q: %w", nd.name, err)
	}
	return c, nil
}

// consume is a local child's delivery: a message that crossed the socket
// joins the consumer's mailbox as an in-flight message of its own. The hub's
// ACK retires the one the pump wrote, the consumer's drain pass this one, and
// the ACK leaves only after consume returns, so Quiesce stays exact. It never
// blocks or fails.
func (nd *node) consume(m Message) error {
	nd.net.inflight.Add(1)
	nd.put(&nd.rx, queued{m: m})
	return nil
}
