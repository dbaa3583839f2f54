package expr

import (
	"encoding/binary"
	"math"
	"testing"

	"crew/internal/binenc"
)

func TestValueBinaryRoundTrip(t *testing.T) {
	values := []Value{
		Null(), Num(0), Num(-1.5), Num(math.MaxFloat64), Num(math.Inf(-1)), Num(math.Copysign(0, -1)),
		Str(""), Str("Blöwer \"q\"\x00"), Bool(true), Bool(false),
	}
	var w binenc.Walker
	w.Encode(nil)
	for i := range values {
		values[i].Walk(&w)
	}
	w.Decode(w.Bytes())
	for _, want := range values {
		var got Value
		if got.Walk(&w); got != want {
			t.Errorf("round trip = %#v, want %#v", got, want)
		}
	}
	if err := w.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
	nan, got := Num(math.NaN()), Value{}
	if err := w.Read(w.Append(nil, &nan), &got); err != nil {
		t.Errorf("NaN round trip: %v", err)
	} else if f, ok := got.AsNum(); !ok || !math.IsNaN(f) {
		t.Error("NaN round trip")
	}
	// Truncations, an unknown kind and a non-0/1 boolean fail cleanly.
	for _, v := range values {
		enc := append([]byte(nil), w.Append(nil, &v)...)
		for cut := 0; cut < len(enc); cut++ {
			if w.Read(enc[:cut], new(Value)) == nil {
				t.Errorf("%#v cut at %d decoded", v, cut)
			}
		}
	}
	for _, bad := range [][]byte{{9}, {byte(KindBool), 2}, {byte(KindStr), 5, 'a'}} {
		if w.Read(bad, new(Value)) == nil {
			t.Errorf("% x decoded", bad)
		}
	}
}

// TestNumberTable: every number round-trips bit for bit; a whole number
// within ±2^53, other than −0, takes the tag plus its varint, and every other
// number the kind byte plus 8 bytes. A varint beyond ±2^53, and 8 bytes that
// hold a number the varint form writes, fail the walker, so each number has
// one form.
func TestNumberTable(t *testing.T) {
	const p53 = 1 << 53
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	cases := []struct {
		f     float64
		whole bool
	}{
		{0, true}, {math.Copysign(0, -1), false}, {1, true}, {-1, true}, {900000, true},
		{p53, true}, {p53 + 2, false}, {-p53, true}, {0.5, false}, {1e300, false},
		{5e-324, false}, {math.Inf(1), false}, {math.Inf(-1), false}, {nan, false},
	}
	var w binenc.Walker
	for _, c := range cases {
		v := Num(c.f)
		enc := append([]byte(nil), w.Append(nil, &v)...)
		want := append([]byte{byte(KindNum)}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(c.f))...)
		if c.whole {
			want = binary.AppendVarint([]byte{tagWhole}, int64(c.f))
		}
		if string(enc) != string(want) {
			t.Errorf("%v (%#x): encodes as % x, want % x", c.f, math.Float64bits(c.f), enc, want)
		}
		var got Value
		if err := w.Read(enc, &got); err != nil {
			t.Errorf("%v: %v", c.f, err)
			continue
		}
		if f, ok := got.AsNum(); !ok || math.Float64bits(f) != math.Float64bits(c.f) {
			t.Errorf("%v (%#x): decodes as %#v", c.f, math.Float64bits(c.f), got)
		}
	}
	for _, bad := range [][]byte{
		binary.AppendVarint([]byte{tagWhole}, p53+1),
		binary.AppendVarint([]byte{tagWhole}, -p53-1),
		binary.AppendVarint([]byte{tagWhole}, math.MaxInt64),
		append([]byte{byte(KindNum)}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))...),
		append([]byte{byte(KindNum)}, binary.LittleEndian.AppendUint64(nil, math.Float64bits(-p53))...),
	} {
		if w.Read(bad, new(Value)) == nil {
			t.Errorf("% x decoded", bad)
		}
	}
}

// TestValueAppendAllocBudget guards Walk: encoding into a warm buffer
// allocates nothing.
func TestValueAppendAllocBudget(t *testing.T) {
	values := []Value{Null(), Num(3), Num(-2.5), Str("a string value"), Bool(true)}
	var w binenc.Walker
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(500, func() {
		w.Encode(buf[:0])
		for i := range values {
			values[i].Walk(&w)
		}
		buf = w.Bytes()
	}); n != 0 {
		t.Errorf("Walk allocates %.2f/op into a warm buffer, budget 0", n)
	}
}
