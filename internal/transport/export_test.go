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

// PayloadCodec is one registry entry as the external tests see it: Type is
// what a Message carries (a pointer), Append runs a payload's walk to encode
// it and Decode a fresh one's to read all of b.
type PayloadCodec struct {
	Name   string
	Type   reflect.Type
	Append func(dst []byte, p any) []byte
	Decode func(b []byte) (any, error)
}

// RegisteredPayloads lists the registry sorted by name.
func RegisteredPayloads() []PayloadCodec {
	var out []PayloadCodec
	for t, name := range payloadNames {
		decode := payloadDecoders[name]
		out = append(out, PayloadCodec{Name: name, Type: t,
			Append: func(dst []byte, p any) []byte { return new(binenc.Walker).Append(dst, p.(binenc.Walkable)) },
			Decode: func(b []byte) (any, error) {
				var w binenc.Walker
				w.Decode(b)
				p := decode(&w)
				return p, w.Done()
			}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EncodeMessage and DecodeMessage run the message-frame body codec.
func EncodeMessage(m Message) ([]byte, error) { return encodeBody(m) }

func DecodeMessage(body []byte) (Message, error) { return decodeBody(body) }

// EncodeFrame encodes m as a whole MSG frame, and Reframe decodes a MSG frame
// and encodes its message again: what the hub wrote for a frame it decoded.
func EncodeFrame(m Message) ([]byte, error) { return appendMessageFrame(nil, m, new(binenc.Walker)) }

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
