package binenc

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	ints := []int{0, -1, 1, math.MinInt, math.MaxInt}
	var b []byte
	b = AppendString(b, "")
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{0, 1, 2})
	for _, v := range ints {
		b = AppendInt(b, v)
	}
	b = AppendBool(AppendBool(b, true), false)
	b = append(b, 7, 8, 9)

	r := NewReader(b)
	if s := r.Str(); s != "" {
		t.Errorf("Str = %q", s)
	}
	if s := r.Str(); s != "héllo" {
		t.Errorf("Str = %q", s)
	}
	v := r.Bytes()
	if string(v) != "\x00\x01\x02" || cap(v) != len(v) {
		t.Errorf("Bytes = %v (cap %d): wrong, or can grow into the rest of the input", v, cap(v))
	}
	for _, want := range ints {
		if got := r.Int(); got != want {
			t.Errorf("Int = %d, want %d", got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if r.Byte() != 7 || string(r.Fixed(2)) != "\x08\x09" {
		t.Error("Byte/Fixed round trip")
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

func TestMalformedInput(t *testing.T) {
	overlong := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	reads := map[string]func(*Reader){
		"Uvarint": func(r *Reader) { r.Uvarint() },
		"Int":     func(r *Reader) { r.Int() },
		"Str":     func(r *Reader) { r.Str() },
		"Bytes":   func(r *Reader) { r.Bytes() },
		"Count":   func(r *Reader) { r.Count(1) },
		"Byte":    func(r *Reader) { r.Byte() },
		"Fixed":   func(r *Reader) { r.Fixed(12) },
	}
	for name, read := range reads {
		for _, in := range [][]byte{nil, {0x80}, overlong} {
			if name == "Byte" && len(in) > 0 {
				continue
			}
			r := NewReader(in)
			read(r)
			if err := r.Done(); !errors.Is(err, ErrMalformed) {
				t.Errorf("%s(% x): Done = %v, want ErrMalformed", name, in, err)
			}
		}
	}
	for name, in := range map[string][]byte{
		"string length past the input": {5, 'a', 'b'},
		"boolean 2":                    {2},
	} {
		r := NewReader(in)
		if name == "boolean 2" {
			r.Bool()
		} else {
			r.Str()
		}
		if !errors.Is(r.Done(), ErrMalformed) {
			t.Errorf("%s accepted", name)
		}
	}
	// A failed reader stays failed and returns zero values.
	r := NewReader([]byte{1, 2, 3})
	r.Fixed(4)
	if r.Byte() != 0 || r.Str() != "" || r.Int() != 0 || r.Count(1) != 0 || r.Done() == nil {
		t.Error("reads after a failure returned data")
	}
	// Left-over input is malformed too.
	if r := NewReader([]byte{1, 2}); r.Byte() != 1 || !errors.Is(r.Done(), ErrMalformed) {
		t.Error("Done accepted trailing bytes")
	}
	// Count bounds the declared length by what the input can hold.
	if r := NewReader([]byte{3, 1, 2, 3, 4, 5, 6}); r.Count(2) != 3 {
		t.Error("Count rejected 3 two-byte entries in 6 bytes")
	}
	if r := NewReader([]byte{4, 1, 2, 3, 4, 5, 6}); r.Count(2) != 0 || r.Done() == nil {
		t.Error("Count accepted 4 two-byte entries in 6 bytes")
	}
}
