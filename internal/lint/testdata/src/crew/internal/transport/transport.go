// Package transport is a minimal stub of crew/internal/transport for the
// analyzer tests: the method names must match the real package, the
// behavior is irrelevant. Methods whose real implementations park the
// goroutine carry //crew:blocks annotations, the same way the real package
// declares behavior the analysis cannot see.
package transport

type Message struct {
	To, From  int
	Kind      string
	Mechanism int
}

type Handle struct{}

func (h *Handle) Send(m Message)  {}
func (h *Handle) SendBatch(n int) {}

type Network struct{}

func (n *Network) Send(m Message) {}

//crew:blocks
func (n *Network) Quiesce() {}

//crew:blocks
func (n *Network) AwaitStall() {}

type Batcher struct{}

func (b *Batcher) Add(to int, m Message) {}

// Link stands in for an interface whose method parks: the real Link's
// delivery method is unexported, so only the transport package can call
// it; here it is exported so a fixture can call it through the interface.
type Link interface {
	//crew:blocks
	Deliver(m Message) error
	Close() error
}

type ChildConn struct{}

//crew:blocks
func (c *ChildConn) Serve(deliver func(m Message)) error { return nil }

type RemoteHub struct{}

//crew:blocks
func (h *RemoteHub) WaitConnected(names ...string) error { return nil }
