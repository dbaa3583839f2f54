package expr

import (
	"math"

	"crew/internal/binenc"
)

// tagWhole is the kind byte of a whole number written as a varint (the other
// kind bytes are the kinds themselves). Every integer within ±maxWhole is a
// float64, so the varint gives the number back exactly.
const (
	tagWhole = 4
	maxWhole = 1 << 53
)

// Walk is the value's binary form — the encoding of data items in WFDB rows
// and wire payloads: a kind byte, then, for a number, a varint when it is
// whole, within ±2^53 and not −0 (kind byte tagWhole), else its 8 IEEE 754
// bytes little-endian; a length-prefixed run for a string, one byte for a
// boolean, nothing for null. Each number has one form: a varint beyond ±2^53,
// a value of an unknown kind and 8 bytes that hold what the varint form
// writes all fail the walker.
func (v *Value) Walk(w *binenc.Walker) {
	kind := byte(v.kind)
	var n int64
	if v.kind == KindNum && !w.Decoding() {
		if i, ok := whole(v.num); ok {
			kind, n = tagWhole, i
		}
	}
	w.Byte(&kind)
	switch kind {
	case byte(KindNull):
	case byte(KindNum):
		w.Float64(&v.num)
		if _, ok := whole(v.num); ok && w.Decoding() {
			w.Fail()
			return
		}
	case tagWhole:
		w.Int64(&n)
		if w.Decoding() {
			if n < -maxWhole || n > maxWhole {
				w.Fail()
				return
			}
			kind, v.num = byte(KindNum), float64(n)
		}
	case byte(KindStr):
		w.String(&v.str)
	case byte(KindBool):
		w.Bool(&v.b)
	default:
		w.Fail()
		return
	}
	if w.Decoding() {
		v.kind = Kind(kind)
	}
}

// whole reports whether f is written as a varint, and the integer it is.
func whole(f float64) (int64, bool) {
	if !(f >= -maxWhole && f <= maxWhole) { // NaN too
		return 0, false
	}
	i := int64(f)
	return i, float64(i) == f && (i != 0 || !math.Signbit(f))
}

// WalkValues walks a name -> value map (binenc.Map): equal maps encode to
// equal bytes, and an empty map decodes as nil.
func WalkValues(w *binenc.Walker, m *map[string]Value) { binenc.Map(w, m, 2, walkValue) }

func walkValue(w *binenc.Walker, v Value) Value {
	v.Walk(w)
	return v
}
