package expr

import "crew/internal/binenc"

// Walk is the value's binary form — the encoding of data items in WFDB rows
// and wire payloads: a kind byte, then 8 little-endian bytes for a number, a
// length-prefixed run for a string, one byte for a boolean, nothing for null.
// A value of an unknown kind fails the walker.
//
//crew:hotpath
func (v *Value) Walk(w *binenc.Walker) {
	kind := byte(v.kind)
	w.Byte(&kind)
	switch Kind(kind) {
	case KindNull:
	case KindNum:
		w.Float64(&v.num)
	case KindStr:
		w.String(&v.str)
	case KindBool:
		w.Bool(&v.b)
	default:
		w.Fail()
		return
	}
	if w.Decoding() {
		v.kind = Kind(kind)
	}
}

// WalkValues walks a name -> value map (binenc.Map): equal maps encode to
// equal bytes, and an empty map decodes as nil.
//
//crew:hotpath
func WalkValues(w *binenc.Walker, m *map[string]Value) { binenc.Map(w, m, 2, walkValue) }

//crew:hotpath
func walkValue(w *binenc.Walker, v Value) Value {
	v.Walk(w)
	return v
}
