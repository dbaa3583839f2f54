package transport

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"crew/internal/binenc"
	"crew/internal/cerrors"
)

// socketReadBuf is the initial size of a socket connection's frame buffer.
const socketReadBuf = 4 << 10

// SocketWire is a Wire backend over real kernel sockets: "unix" (unix-domain
// stream sockets) or "tcp" (loopback TCP). One listener serves the whole
// network; each node's Link is a dedicated connection to it, identified by a
// hello frame, so the per-node frame stream keeps the FIFO order the
// transport contract requires. Every delivered message pays genuine
// serialization (the length-prefixed binary frame codec in frame.go) and a
// kernel round trip, which is what the wire-mode benchmarks measure.
//
// deliver is synchronous per the Wire contract: the frame is written, the
// listener-side reader decodes it and runs the node's sink, and a one-byte
// ack frame travels back before deliver returns. At most one frame per node
// is ever inside the socket, so a crash observed by the Network's pump is
// always at a frame boundary and park/replay semantics are byte-identical to
// the in-process backend.
type SocketWire struct {
	network string // "unix" or "tcp"
	addr    string
	ln      net.Listener
	tmpDir  string // owned temp dir for an auto-generated unix socket path

	mu     sync.Mutex
	sinks  map[string]Sink
	conns  map[net.Conn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewSocketWire binds a socket backend. network is "unix" or "tcp"; an empty
// addr picks a fresh socket path (unix) or a loopback port (tcp).
func NewSocketWire(network, addr string) (*SocketWire, error) {
	w := &SocketWire{
		network: network,
		sinks:   make(map[string]Sink),
		conns:   make(map[net.Conn]struct{}),
	}
	switch network {
	case "unix":
		if addr == "" {
			dir, err := os.MkdirTemp("", "crewwire")
			if err != nil {
				return nil, cerrors.E(cerrors.CodeDialRefused, cerrors.PhaseListen, cerrors.ErrWire, err, "unix socket dir")
			}
			w.tmpDir = dir
			addr = filepath.Join(dir, "w.sock")
		}
	case "tcp":
		if addr == "" {
			addr = "127.0.0.1:0"
		}
	default:
		return nil, cerrors.E(cerrors.CodeInvalidConfig, cerrors.PhaseConfig, cerrors.ErrInvalidConfig, nil, "socket wire network %q (want unix or tcp)", network)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		w.cleanup()
		return nil, cerrors.E(cerrors.CodeDialRefused, cerrors.PhaseListen, cerrors.ErrWire, err, "%s %s", network, addr)
	}
	w.ln = ln
	w.addr = ln.Addr().String()
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the backend's bound listen address.
func (w *SocketWire) Addr() string { return w.addr }

// Listen implements Wire: it registers the node's sink and dials the node's
// dedicated delivery connection.
func (w *SocketWire) Listen(node string, sink Sink) (Link, error) {
	if w.closed.Load() {
		return nil, ErrClosed
	}
	w.mu.Lock()
	if _, dup := w.sinks[node]; dup {
		w.mu.Unlock()
		return nil, fmt.Errorf("transport: socket wire: node %q already listening", node)
	}
	w.sinks[node] = sink
	w.mu.Unlock()

	conn, err := net.Dial(w.network, w.addr)
	if err != nil {
		w.mu.Lock()
		delete(w.sinks, node)
		w.mu.Unlock()
		return nil, cerrors.E(cerrors.CodeDialRefused, cerrors.PhaseDial, cerrors.ErrWire, err, "node %q via %s %s", node, w.network, w.addr)
	}
	w.track(conn)
	l := &socketLink{w: w, node: node, conn: conn, fr: newFrameReader(conn, socketReadBuf)}
	if err := l.writeFrame(frameHello, []byte(node)); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

func (w *SocketWire) track(conn net.Conn) {
	w.mu.Lock()
	w.conns[conn] = struct{}{}
	w.mu.Unlock()
}

func (w *SocketWire) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

func (w *SocketWire) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.track(conn)
		w.wg.Add(1)
		go w.serve(conn)
	}
}

// serve drains one delivery connection: a hello naming the destination node,
// then message frames, each answered with an ack after the node's sink
// consumed it.
func (w *SocketWire) serve(conn net.Conn) {
	defer w.wg.Done()
	defer w.untrack(conn)
	defer conn.Close()
	fr := newFrameReader(conn, socketReadBuf)
	typ, body, err := fr.next()
	if err != nil || typ != frameHello {
		return
	}
	w.mu.Lock()
	sink := w.sinks[string(body)]
	w.mu.Unlock()
	if sink == nil {
		return // CodeUnclaimedNode: no node by that name listens here
	}
	ack := appendFrame(nil, frameAck, nil)
	var dec binenc.Walker
	for {
		typ, body, err = fr.next()
		if err != nil || typ != frameMsg {
			return
		}
		m, err := decodeMessage(&dec, body)
		if err != nil {
			return
		}
		if sink(m) != nil {
			return // node stopping
		}
		if _, err := conn.Write(ack); err != nil {
			return
		}
	}
}

// Close implements Wire: it closes the listener and every connection, joins
// the reader goroutines (so no sink invocation is outstanding on return) and
// removes an auto-generated unix socket directory.
func (w *SocketWire) Close() error {
	if w.closed.Swap(true) {
		return nil
	}
	w.ln.Close()
	w.mu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
	w.cleanup()
	return nil
}

func (w *SocketWire) cleanup() {
	if w.tmpDir != "" {
		os.RemoveAll(w.tmpDir)
	}
}

// socketLink is the per-node send side: one connection, one in-flight frame.
type socketLink struct {
	w    *SocketWire
	node string
	conn net.Conn
	fr   *frameReader

	mu      sync.Mutex
	scratch []byte
	walker  binenc.Walker // encodes the payloads
}

func (l *socketLink) writeFrame(typ byte, body []byte) error {
	buf := appendFrame(l.scratch[:0], typ, body)
	l.scratch = buf[:0]
	if _, err := l.conn.Write(buf); err != nil {
		return l.failure(err, "write")
	}
	return nil
}

func (l *socketLink) failure(err error, op string) error {
	if l.w.closed.Load() {
		return ErrClosed
	}
	return cerrors.E(cerrors.CodePeerCrashed, cerrors.PhaseDeliver, cerrors.ErrWire, err, "%s to node %q", op, l.node)
}

// deliver implements Link: encode, write, await the ack that the sink
// consumed the frame. On success a batched envelope's ownership has passed to
// the receive side (which got a fresh pooled copy), so the original is
// released here; on error it is left intact for the pump to replay.
func (l *socketLink) deliver(m Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	framed, err := appendMessageFrame(l.scratch[:0], m, &l.walker)
	if err != nil {
		return err
	}
	l.scratch = framed[:0]
	if _, err := l.conn.Write(framed); err != nil {
		return l.failure(err, "write")
	}
	typ, _, err := l.fr.next()
	if err != nil {
		return l.failure(err, "ack read")
	}
	if typ != frameAck {
		return cerrors.E(cerrors.CodeFrameMalformed, cerrors.PhaseDeliver, cerrors.ErrWire, nil, "node %q answered frame type %d, want ack", l.node, typ)
	}
	if env, ok := m.Payload.(*Envelope); ok && m.Kind == KindEnvelope {
		env.Release()
	}
	return nil
}

// Close implements Link.
func (l *socketLink) Close() error {
	l.w.untrack(l.conn)
	return l.conn.Close()
}
