package transport

import (
	"reflect"
	"sort"

	"crew/internal/binenc"
)

// The external tests (package transport_test) import the three architectures
// for their payload registrations, which package transport itself cannot;
// these hooks give them the registry and the message codec.

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
