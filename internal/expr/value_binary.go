package expr

import (
	"encoding/binary"
	"math"
	"slices"

	"crew/internal/binenc"
)

// Append appends the value's binary form — the encoding of data items in
// WFDB rows and wire payloads — to dst: a kind byte, then 8 little-endian bytes for a number,
// a length-prefixed run for a string, one byte for a boolean, nothing for
// null.
//
//crew:hotpath
func (v Value) Append(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNum:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.num))
	case KindStr:
		dst = binenc.AppendString(dst, v.str)
	case KindBool:
		dst = binenc.AppendBool(dst, v.b)
	}
	return dst
}

// DecodeValue reads one value written by Append. A malformed value fails
// the reader; what is returned then is meaningless.
func DecodeValue(r *binenc.Reader) Value {
	switch kind := Kind(r.Byte()); kind {
	case KindNull:
		return Value{}
	case KindNum:
		if b := r.Fixed(8); b != nil {
			return Num(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	case KindStr:
		return Str(r.Str())
	case KindBool:
		return Bool(r.Bool())
	default:
		r.Fail()
	}
	return Value{}
}

// AppendValues appends a name -> value map: the count, then name + value
// sorted by name, so equal maps encode to equal bytes whatever Go's map order.
// keys is the caller's sort scratch, reused across calls; a nil and an empty
// map encode alike.
//
//crew:hotpath
func AppendValues(dst []byte, m map[string]Value, keys *[]string) []byte {
	names := (*keys)[:0]
	//crew:allow hotalloc collects names only; the sort below fixes the order
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	*keys = names
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, k := range names {
		dst = binenc.AppendString(dst, k)
		dst = m[k].Append(dst)
	}
	return dst
}

// DecodeValues reads a map written by AppendValues; an empty map reads as
// nil.
func DecodeValues(r *binenc.Reader) map[string]Value {
	n := r.Count(2) // name length, kind byte
	if n == 0 {
		return nil
	}
	m := make(map[string]Value, n)
	for ; n > 0; n-- {
		name := r.Str()
		m[name] = DecodeValue(r)
	}
	return m
}
