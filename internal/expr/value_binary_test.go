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
	var buf []byte
	for _, v := range values {
		buf = v.Append(buf)
	}
	r := binenc.NewReader(buf)
	for _, want := range values {
		if got := DecodeValue(r); got != want {
			t.Errorf("round trip = %#v, want %#v", got, want)
		}
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
	r = binenc.NewReader(Num(math.NaN()).Append(nil))
	if f, ok := DecodeValue(r).AsNum(); r.Done() != nil || !ok || !math.IsNaN(f) {
		t.Error("NaN round trip")
	}
	// Truncations, an unknown kind and a non-0/1 boolean fail cleanly.
	for _, v := range values {
		enc := v.Append(nil)
		for cut := 0; cut < len(enc); cut++ {
			r := binenc.NewReader(enc[:cut])
			if DecodeValue(r); r.Done() == nil {
				t.Errorf("%#v cut at %d decoded", v, cut)
			}
		}
	}
	for _, bad := range [][]byte{{9}, {byte(KindBool), 2}, {byte(KindStr), 5, 'a'}} {
		r := binenc.NewReader(bad)
		DecodeValue(r)
		if r.Done() == nil {
			t.Errorf("% x decoded", bad)
		}
	}
}

// TestValueAppendAllocBudget backs the //crew:hotpath mark on Append.
func TestValueAppendAllocBudget(t *testing.T) {
	values := []Value{Null(), Num(3), Str("a string value"), Bool(true)}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(500, func() {
		buf = buf[:0]
		for _, v := range values {
			buf = v.Append(buf)
		}
	}); n != 0 {
		t.Errorf("Append allocates %.2f/op into a warm buffer, budget 0", n)
	}
}
