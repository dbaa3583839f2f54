package binenc

import (
	"errors"
	"math"
	"slices"
	"testing"
	"unsafe"
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

// TestNameSlot: with a table in the slot, Map's keys and Strings' entries
// are indexes into it, then literals; indexed keys go out in table order and
// literals after them in name order; a decoded indexed name is the table's
// string; an index beyond the table fails the walker. Without a table the
// bytes are plain strings.
func TestNameSlot(t *testing.T) {
	names := NewNames([]string{"b", "a", "b", "c"})
	if got := names.List(); len(got) != 3 || got[0] != "b" || got[1] != "a" || got[2] != "c" {
		t.Fatalf("List = %q, want [b a c]: table order, each name once", got)
	}
	byte1 := func(w *Walker, v byte) byte { w.Byte(&v); return v }
	m := map[string]byte{"a": 1, "b": 2, "z": 3, "y": 4}
	seq := []string{"c", "x", "a"}
	var w Walker
	w.SetNames(names)
	w.Encode(nil)
	Map(&w, &m, 2, byte1)
	Strings(&w, &seq)
	// count; b (index 1), a (2); then the literals y, z; count; c, x, a.
	want := "\x04\x01\x02\x02\x01\x00\x01y\x04\x00\x01z\x03" + "\x03\x03\x00\x01x\x02"
	if got := string(w.Bytes()); got != want {
		t.Fatalf("with a table:\n got  %q\n want %q", got, want)
	}
	var m2 map[string]byte
	var seq2 []string
	w.Decode([]byte(want))
	Map(&w, &m2, 2, byte1)
	Strings(&w, &seq2)
	if err := w.Done(); err != nil || len(m2) != 4 || m2["z"] != 3 || m2["b"] != 2 || len(seq2) != 3 || seq2[1] != "x" {
		t.Fatalf("decode = %v %v %v", m2, seq2, err)
	}
	if unsafe.StringData(seq2[0]) != unsafe.StringData(names.List()[2]) {
		t.Error("an indexed name decoded as a copy, not as the table's string")
	}
	w.Decode([]byte("\x01\x04\x00"))
	Map(&w, &m2, 2, byte1)
	if !errors.Is(w.Done(), ErrMalformed) {
		t.Error("an index beyond the table decoded")
	}

	w.SetNames(nil)
	w.Encode(nil)
	Map(&w, &m, 2, byte1)
	Strings(&w, &seq)
	plain := "\x04\x01a\x01\x01b\x02\x01y\x04\x01z\x03" + "\x03\x01c\x01x\x01a"
	if got := string(w.Bytes()); got != plain {
		t.Fatalf("without a table:\n got  %q\n want %q", got, plain)
	}
	// An empty table writes every name as a literal.
	w.SetNames(NewNames(nil))
	w.Encode(nil)
	Strings(&w, &seq)
	if got := string(w.Bytes()); got != "\x03\x00\x01c\x00\x01x\x00\x01a" {
		t.Fatalf("empty table: %q", got)
	}
	if NewNames(nil).Digest() != 0 || names.Digest() == 0 {
		t.Error("only the empty table has digest 0")
	}
}

// TestMapOrderAboveStackSize: a map too large for the stack sort goes out
// in the same order a small one does, with a table and without.
func TestMapOrderAboveStackSize(t *testing.T) {
	m := map[string]byte{}
	var list []string
	for i := range 40 {
		k := string(rune('A' + i))
		m[k] = byte(i)
		if i%2 == 0 {
			list = append([]string{k}, list...) // every other key, backwards
		}
	}
	byte1 := func(w *Walker, v byte) byte { w.Byte(&v); return v }
	for _, names := range []*Names{nil, NewNames(list)} {
		var w Walker
		w.SetNames(names)
		w.Encode(nil)
		Map(&w, &m, 2, byte1)
		var want []string
		if names != nil {
			want = append(want, list...)
		}
		for i := range 40 {
			if k := string(rune('A' + i)); names == nil || i%2 == 1 {
				want = append(want, k)
			}
		}
		w.Decode(w.Bytes())
		n := w.in.Count(2)
		var got []string
		for range n {
			got = append(got, w.name())
			w.in.Byte()
		}
		if err := w.Done(); err != nil || !slices.Equal(got, want) {
			t.Fatalf("table %v: keys went out as %q (%v), want %q", names != nil, got, err, want)
		}
	}
}
