package transport

import (
	"net"
	"reflect"
	"sort"

	"crew/internal/binenc"
)

// The external tests (package transport_test) import the three architectures
// for their payload registrations, which package transport itself cannot;
// these hooks give them the registry, the message codec and a bare hub
// connection.

// PayloadCodec is one registry entry as the external tests see it.
type PayloadCodec struct {
	Name   string
	Type   reflect.Type
	Append func(dst []byte, p any, keys *[]string) []byte
	Decode func(r *binenc.Reader) any
}

// RegisteredPayloads lists the registry sorted by name.
func RegisteredPayloads() []PayloadCodec {
	var out []PayloadCodec
	for t, c := range payloadByType {
		out = append(out, PayloadCodec{Name: c.name, Type: t, Append: c.append, Decode: c.decode})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EncodeMessage and DecodeMessage run the message-frame body codec.
func EncodeMessage(m Message) ([]byte, error) { return encodeBody(m) }

func DecodeMessage(body []byte) (Message, error) { return decodeBody(body) }

// EncodeFrame encodes m as a whole MSG frame, and Reframe decodes a MSG frame
// and encodes its message again: what the hub wrote for a frame it decoded.
func EncodeFrame(m Message) ([]byte, error) { return appendMessageFrame(nil, m, new([]string)) }

func Reframe(frame []byte) ([]byte, error) {
	m, err := decodeBody(frame[5:])
	if err != nil {
		return nil, err
	}
	return EncodeFrame(m)
}

// RawChild claims a node at a hub over a bare connection: it writes frames as
// given and reads what the hub writes, frame by frame, as bytes.
type RawChild struct {
	conn net.Conn
	fr   *frameReader
}

func DialRaw(network, addr, name string) (*RawChild, error) {
	c, err := DialHub(network, addr, name)
	if err != nil {
		return nil, err
	}
	return &RawChild{conn: c.conn, fr: newFrameReader(c.conn, hubReadBuf)}, nil
}

// NextMsg returns the next MSG frame the hub wrote, whole, passing over
// WELCOME and liveness frames.
func (r *RawChild) NextMsg() ([]byte, error) {
	for {
		typ, body, err := r.fr.next()
		if err != nil {
			return nil, err
		}
		if typ == frameMsg {
			return appendFrame(nil, typ, body), nil
		}
	}
}

// Ack acknowledges the oldest delivery.
func (r *RawChild) Ack() error { return r.Write(appendFrame(nil, frameAck, nil)) }

func (r *RawChild) Write(frames []byte) error {
	_, err := r.conn.Write(frames)
	return err
}

func (r *RawChild) Close() error { return r.conn.Close() }
