package transport

import (
	"encoding/binary"
	"io"
	"reflect"
	"unsafe"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/metrics"
)

// The wire format of the hub protocol, the one socket protocol (remote.go;
// a SocketWire is a hub whose children run in its own process): binary end
// to end, built from the primitives of internal/binenc (varint integers,
// length-prefixed strings, counted sequences). A frame is:
//
//	[4-byte big-endian length n][1-byte type][n-1 body bytes]
//
// The length covers the type byte and body. Frames above MaxFrame are
// rejected before any allocation, protecting receivers from corrupt or
// hostile length prefixes. All failures are classified through cerrors, so
// callers switch on cerrors.CodeOf and never string-match: a stream that ends
// inside a frame is CodeFrameTruncated, a length above the limit
// CodeFrameOversized, and a complete frame whose body does not parse
// CodeFrameMalformed.
//
// A message frame body is:
//
//	[1-byte envelope flag][count, envelopes only][message...]
//
// and each message is:
//
//	[from][to][kind]     strings
//	[mechanism]          one byte, one of the five classes
//	[payload type name]  string, "" for a nil payload
//	[payload]            the fields of the type in declaration order, as its
//	                     Walk names them (binenc.Walker)
//
// A payload carries no length of its own: its decode walk consumes exactly
// what its encode walk wrote, and the body must end where the last message
// does. Maps are written in sorted key order (binenc.Map; data items as
// expr.Value.Walk, the encoding WFDB rows use), so equal messages encode to
// equal bytes; a nil and an empty map or slice are one value on the wire and
// decode as nil. The payload of a single-message body runs to the end of the
// frame, and a re-encoding would give the same bytes, so the hub routes such
// a frame after reading its header alone (readHeader) and writes it on
// unchanged (rawFrame).
//
// Payload types are registered with RegisterPayload; a payload travels as a
// pointer to its type, whose walk is its codec. The type name is the wire
// tag, and decoding produces the pointer type the sender passed, so receiver
// type-switches work unchanged across a socket. WireFormat numbers this
// layout; the hub protocol exchanges it at connection time (HELLO, WELCOME)
// so two builds that disagree fail the dial instead of misreading each
// other's payloads.

// MaxFrame is the hard ceiling on one frame's length (type byte + body).
const MaxFrame = 8 << 20

// WireFormat is the version of the hub protocol's frames and of the message
// and payload layout above. Format 1 (not numbered on the wire at the time)
// carried JSON payloads; format 2 had one instance per purge note where 3 has
// a list; format 3 tagged the coordination protocol with fourteen payload
// types of package parallel and distributed where 4 has the four of package
// coord; format 5 adds the DONE frame and the instance refs of a HELLO, and
// drops the purge note (its payload bytes are 4's otherwise); format 6 drops
// the initiator from the HaltThread and WorkflowRollback payloads, and the
// unread epoch from the latter, since an epoch names its rollback; format 7
// writes a whole number in a data item as a varint (expr.Value.Walk) where 6
// wrote every number in 8 bytes.
const WireFormat byte = 7

// Frame types of the hub protocol: Hello (a child claims a node, with its
// format byte and the instances its database holds), Welcome (the hub's
// format byte and peer roster, or the byte alone for a refused claim), Msg,
// Ack (a child has processed a delivery), Crash/Recover (liveness
// announcements), Exec (program-execution events feeding the cross-process
// coordination-invariant checker) and Done (finished instances the hub
// relays to its children).
const (
	frameMsg byte = iota + 1
	frameHello
	frameWelcome
	frameAck
	frameCrash
	frameRecover
	frameExec
	frameDone
)

// beginFrame reserves a frame header of the given type at the end of dst;
// endFrame(dst, start) fills in the length once the body has been appended
// behind it, where start is len(dst) before beginFrame.
func beginFrame(dst []byte, typ byte) []byte {
	return append(dst, 0, 0, 0, 0, typ)
}

func endFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendFrame appends one complete frame to dst.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	return endFrame(append(beginFrame(dst, typ), body...), len(dst))
}

// frameReader reads frames off a connection through one buffer. A read takes
// whatever the connection has, so a burst of frames costs one read, and a
// frame is parsed where it landed. The buffer grows to the largest frame seen
// and is all the reader holds.
type frameReader struct {
	r        io.Reader
	buf      []byte
	pos, end int // buf[pos:end] is read and not yet returned
}

func newFrameReader(r io.Reader, size int) *frameReader {
	return &frameReader{r: r, buf: make([]byte, size)}
}

// next returns the next frame; body aliases the buffer until the following
// call. io.EOF is returned bare for a clean close at a frame boundary; every
// other failure is a classified wire error.
func (fr *frameReader) next() (typ byte, body []byte, err error) {
	hdr, err := fr.peek(4)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, cerrors.E(cerrors.CodeFrameTruncated, cerrors.PhaseDecode, cerrors.ErrWire, err, "frame header")
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrame {
		return 0, nil, cerrors.E(cerrors.CodeFrameOversized, cerrors.PhaseDecode, cerrors.ErrWire, nil, "frame length %d exceeds limit %d", n, MaxFrame)
	}
	if n < 1 {
		return 0, nil, malformed(nil, "frame length %d", n)
	}
	frame, err := fr.peek(4 + n)
	if err != nil {
		return 0, nil, cerrors.E(cerrors.CodeFrameTruncated, cerrors.PhaseDecode, cerrors.ErrWire, err, "frame body (%d bytes)", n)
	}
	fr.pos += 4 + n
	return frame[4], frame[5:], nil
}

// buffered reports whether the next frame is already whole in the buffer, so
// next returns it without reading.
func (fr *frameReader) buffered() bool {
	if fr.end-fr.pos < 4 {
		return false
	}
	return fr.end-fr.pos >= 4+int(binary.BigEndian.Uint32(fr.buf[fr.pos:]))
}

// peek returns the next n unread bytes without consuming them, reading until
// the buffer holds that many. The error is io.EOF when the stream ended with
// nothing unread, io.ErrUnexpectedEOF when it ended part way.
func (fr *frameReader) peek(n int) ([]byte, error) {
	if fr.end-fr.pos < n {
		// Slide what the last read left over to the front and make room.
		fr.end = copy(fr.buf, fr.buf[fr.pos:fr.end])
		fr.pos = 0
		if n > len(fr.buf) {
			fr.buf = append(fr.buf[:fr.end], make([]byte, n-fr.end)...)
			fr.buf = fr.buf[:cap(fr.buf)]
		}
		for fr.end < n {
			m, err := fr.r.Read(fr.buf[fr.end:])
			fr.end += m
			if err != nil && fr.end < n {
				if err == io.EOF && fr.end > 0 {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
		}
	}
	return fr.buf[fr.pos : fr.pos+n], nil
}

// malformed classifies a complete frame whose body does not parse.
func malformed(err error, format string, args ...any) error {
	return cerrors.E(cerrors.CodeFrameMalformed, cerrors.PhaseDecode, cerrors.ErrWire, err, format, args...)
}

// minMessage is the least a message occupies: three empty strings, the
// mechanism byte and an empty payload name.
const minMessage = 5

// appendMessage appends a message-frame body (no frame header) to dst. A
// batched envelope is flattened into its logical messages behind the
// envelope flag; the receive side rebuilds a pooled *Envelope, so park/replay
// and per-logical-message counting behave identically across the wire. w is
// the caller's walker, which encodes the payloads.
func appendMessage(dst []byte, m Message, w *binenc.Walker) ([]byte, error) {
	env, ok := m.Payload.(*Envelope)
	if !ok || m.Kind != KindEnvelope {
		return appendOne(append(dst, 0), m, w)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(env.Msgs)))
	for i := range env.Msgs {
		var err error
		if dst, err = appendOne(dst, env.Msgs[i], w); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendOne(dst []byte, m Message, w *binenc.Walker) ([]byte, error) {
	var name string
	if m.Payload != nil {
		var ok bool
		if name, ok = payloadNames[reflect.TypeOf(m.Payload)]; !ok {
			return dst, cerrors.E(cerrors.CodeFrameMalformed, cerrors.PhaseEncode, cerrors.ErrWire, nil, "unregistered payload type %T (missing transport.RegisterPayload)", m.Payload)
		}
	}
	dst = binenc.AppendString(dst, m.From)
	dst = binenc.AppendString(dst, m.To)
	dst = binenc.AppendString(dst, m.Kind)
	dst = binenc.AppendString(append(dst, byte(m.Mechanism)), name)
	if m.Payload == nil {
		return dst, nil
	}
	// A registered type's pointer is Walkable: RegisterPayload requires it.
	return w.Append(dst, m.Payload.(binenc.Walkable)), nil
}

// appendMessageFrame appends a complete MSG frame (header + body) to dst; on
// error dst comes back at its original length.
func appendMessageFrame(dst []byte, m Message, w *binenc.Walker) ([]byte, error) {
	start := len(dst)
	dst, err := appendMessage(beginFrame(dst, frameMsg), m, w)
	if err != nil {
		return dst[:start], err
	}
	return endFrame(dst, start), nil
}

// decodeMessage parses a message-frame body through w (a receive loop owns
// one Walker and decodes every frame through it). An envelope body yields a
// wrapper message carrying a fresh pooled *Envelope (the consumer releases
// it, exactly as on the in-process path). Strings are copied out of body;
// nothing returned aliases it.
func decodeMessage(w *binenc.Walker, body []byte) (Message, error) {
	w.Decode(body)
	r := w.Reader()
	switch flag := r.Byte(); flag {
	case 0:
		m, err := decodeOne(w)
		if err != nil {
			return Message{}, err
		}
		if err := r.Done(); err != nil {
			return Message{}, malformed(err, "message body")
		}
		return m, nil
	case 1:
		n := r.Count(minMessage)
		if n == 0 {
			return Message{}, malformed(nil, "empty envelope")
		}
		env := NewEnvelope()
		for ; n > 0; n-- {
			m, err := decodeOne(w)
			if err != nil {
				env.Release()
				return Message{}, err
			}
			env.Msgs = append(env.Msgs, m)
		}
		if err := r.Done(); err != nil {
			env.Release()
			return Message{}, malformed(err, "envelope body")
		}
		first := env.Msgs[0]
		return Message{From: first.From, To: first.To, Mechanism: first.Mechanism, Kind: KindEnvelope, Payload: env}, nil
	default:
		return Message{}, malformed(nil, "envelope flag %d", flag)
	}
}

// decodeOne reads one message. Input that is cut short or out of range fails
// the walker (the caller checks Done); the error is for a well-formed message
// naming a payload type this build has not registered.
func decodeOne(w *binenc.Walker) (Message, error) {
	h, decode, err := readHeader(w)
	m := Message{From: string(h.from), To: string(h.to), Kind: internKind(h.kind), Mechanism: h.mech}
	if err != nil || decode == nil {
		return m, err
	}
	m.Payload = decode(w)
	return m, nil
}

// header is a message's routing fields as they sit in a body: the names alias
// it.
type header struct {
	from, to, kind []byte
	mech           metrics.Mechanism
}

// readHeader reads a message up to its payload, w decoding: the names, the
// mechanism and the payload type, whose decoder it returns (nil for a nil
// payload). The error is for a type this build has not registered; input cut
// short fails w.
func readHeader(w *binenc.Walker) (header, payloadDecoder, error) {
	r := w.Reader()
	h := header{from: r.Bytes(), to: r.Bytes(), kind: r.Bytes()}
	h.mech.Walk(w)
	name := r.Bytes()
	if len(name) == 0 {
		return h, nil, nil
	}
	decode := payloadDecoders[string(name)]
	if decode == nil {
		return h, nil, malformed(nil, "unknown payload type %q", name)
	}
	return h, decode, nil
}

// rawFrame is a MSG frame the hub forwards as it arrived, without decoding
// its payload: a private copy (the read buffer is reused), held by a pointer
// to its length prefix, which says how long the copy is. An interface holds a
// pointer as it is, so the copy is the frame's only allocation; it is garbage
// once the message is acknowledged.
type rawFrame struct{ hdr *[4]byte }

// newRawFrame copies a MSG frame whose body is body.
func newRawFrame(body []byte) rawFrame {
	return rawFrame{(*[4]byte)(appendFrame(make([]byte, 0, 5+len(body)), frameMsg, body))}
}

// bytes returns the whole frame, length prefix included.
func (f rawFrame) bytes() []byte {
	return unsafe.Slice(&f.hdr[0], 4+int(binary.BigEndian.Uint32(f.hdr[:])))
}

// ---------------------------------------------------------------------------
// Message kinds

// kindNames holds every registered message kind, so a decoded Kind is the
// registered string rather than a copy of the frame's bytes.
var kindNames = make(map[string]string)

// RegisterKinds registers message kinds (Message.Kind values) a package puts
// on the wire. Decoding a message of a registered kind allocates nothing for
// its Kind; any other kind still decodes, as a fresh string. Like
// RegisterPayload it must be called from an init function; registering a kind
// twice is harmless.
func RegisterKinds(kinds ...string) {
	for _, k := range kinds {
		kindNames[k] = k
	}
}

// internKind returns the registered kind spelled b, or a fresh copy of b.
func internKind(b []byte) string {
	if k, ok := kindNames[string(b)]; ok {
		return k
	}
	return string(b)
}

// ---------------------------------------------------------------------------
// Payload registry

// payloadDecoder decodes one registered payload type: a fresh value, walked.
type payloadDecoder func(w *binenc.Walker) any

// The registry is filled by RegisterPayload from init functions and only read
// afterwards, so the per-message lookups take no lock: the wire tag of each
// registered pointer type, and the decoder of each tag.
var (
	payloadNames    = make(map[reflect.Type]string)
	payloadDecoders = make(map[string]payloadDecoder)
)

// RegisterPayload registers payload type T so wire backends can carry a *T in
// Message.Payload across a socket. T's walk (binenc.Walkable) is its codec;
// the wire tag is T's reflect type string (e.g. "distributed.workflowStart"),
// and decoding yields a *T, so receiver type-switches work unchanged. It must
// be called from an init function, never once messages flow; registering one
// name twice panics (an init-time bug, never a runtime condition).
func RegisterPayload[T any, P interface {
	*T
	binenc.Walkable
}]() {
	t := reflect.TypeOf(P(nil))
	name := t.Elem().String()
	if _, dup := payloadDecoders[name]; dup {
		panic("transport: payload registered twice: " + name)
	}
	payloadNames[t] = name
	payloadDecoders[name] = func(w *binenc.Walker) any {
		p := P(new(T))
		p.Walk(w)
		return p
	}
}
