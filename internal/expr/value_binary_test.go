package expr

import (
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

// TestValueAppendAllocBudget backs the //crew:hotpath mark on Walk.
func TestValueAppendAllocBudget(t *testing.T) {
	values := []Value{Null(), Num(3), Str("a string value"), Bool(true)}
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
