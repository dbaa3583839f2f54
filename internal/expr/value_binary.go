package expr

import (
	"encoding/binary"
	"math"

	"crew/internal/binenc"
)

// Append appends the value's binary form — the encoding of data items in
// WFDB rows — to dst: a kind byte, then 8 little-endian bytes for a number,
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
