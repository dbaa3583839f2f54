package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueIsFourWords: a Value is a number, a string and its kind and
// boolean packed after the string; every data table, packet and input map
// holds them by value.
func TestValueIsFourWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("a Value takes %d bytes, want 32", got)
	}
}

func env() MapEnv {
	return MapEnv{
		"WF.I1":      Num(90),
		"WF.I2":      Str("Blower"),
		"S1.O1":      Num(20),
		"S1.O2":      Str("Gasket"),
		"S2.O1":      Num(45),
		"S2.O2":      Num(400),
		"flag":       Bool(true),
		"prev.S1.O1": Num(19),
	}
}

func evalNum(t *testing.T, src string) float64 {
	t.Helper()
	e := MustCompile(src)
	v, err := e.Eval(env())
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	f, ok := v.AsNum()
	if !ok {
		t.Fatalf("Eval(%q) = %v, want number", src, v)
	}
	return f
}

func evalBool(t *testing.T, src string) bool {
	t.Helper()
	e := MustCompile(src)
	b, err := e.EvalBool(env())
	if err != nil {
		t.Fatalf("EvalBool(%q): %v", src, err)
	}
	return b
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1 + 2":              3,
		"2 * 3 + 4":          10,
		"2 + 3 * 4":          14,
		"(2 + 3) * 4":        20,
		"10 / 4":             2.5,
		"10 % 3":             1,
		"-5 + 2":             -3,
		"--5":                5,
		"1.5e2":              150,
		"2e-1":               0.2,
		"abs(-7)":            7,
		"min(3, 1, 2)":       1,
		"max(3, 1, 2)":       3,
		"S1.O1 + S2.O1":      65,
		"WF.I1 - prev.S1.O1": 71,
	}
	for src, want := range cases {
		if got := evalNum(t, src); math.Abs(got-want) > 1e-12 {
			t.Errorf("%q = %g, want %g", src, got, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := map[string]bool{
		"1 < 2":                       true,
		"2 <= 2":                      true,
		"3 > 4":                       false,
		"3 >= 3":                      true,
		"1 == 1":                      true,
		"1 != 1":                      false,
		`"abc" < "abd"`:               true,
		`"a" == "a"`:                  true,
		`WF.I2 == "Blower"`:           true,
		"true && false":               false,
		"true || false":               true,
		"!false":                      true,
		"!(1 > 2)":                    true,
		"S1.O1 > 10 && S2.O1 < 100":   true,
		"S1.O1 > 100 || S2.O2 == 400": true,
		"flag":                        true,
		"exists(S1.O1)":               true,
		"exists(S9.O9)":               false,
		"S9.O9 == null":               true, // unbound ref is null
		"null == null":                true,
		`"" || 0`:                     false,
		`"x" && 1`:                    true,
		`WF.I2 + "X" == "BlowerX"`:    true,
		"S1.O1 != prev.S1.O1":         true,
		"1 < 2 && 2 < 3 || false":     true,
	}
	for src, want := range cases {
		if got := evalBool(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// Right side would error (division by zero) if evaluated.
	if got := evalBool(t, "false && (1/0 > 0)"); got != false {
		t.Error("&& did not short-circuit")
	}
	if got := evalBool(t, "true || (1/0 > 0)"); got != true {
		t.Error("|| did not short-circuit")
	}
}

func TestEmptySourceIsTrue(t *testing.T) {
	for _, src := range []string{"", "   ", "\t\n"} {
		e, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		b, err := e.EvalBool(nil)
		if err != nil || !b {
			t.Errorf("empty condition %q = (%v, %v), want (true, nil)", src, b, err)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"1 +",
		"(1 + 2",
		"1 ~ 2",
		`"unterminated`,
		"foo(1)",
		"exists(1)",
		"abs(1, 2)",
		"min()",
		"1 2",
		`"bad \q escape"`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	bad := []string{
		"1 / 0",
		"5 % 0",
		`-"str"`,
		`"a" - 1`,
		`"a" < 1`,
		"true < false",
		"null < 1",
	}
	for _, src := range bad {
		e := MustCompile(src)
		if _, err := e.Eval(env()); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestRefs(t *testing.T) {
	e := MustCompile("S1.O1 > 10 && (WF.I1 < S1.O1 || exists(S2.O2)) && abs(S3.O1) > 0")
	got := e.Refs()
	want := []string{"S1.O1", "WF.I1", "S3.O1"}
	// exists() does not create a refNode, so S2.O2 is intentionally absent
	// from Refs (its value is never read).
	if len(got) != len(want) {
		t.Fatalf("Refs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Refs() = %v, want %v", got, want)
		}
	}
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	if Num(1).Equal(Str("1")) {
		t.Error("Num(1) should not equal Str(1)")
	}
	if !Num(2.5).Equal(Num(2.5)) {
		t.Error("Num(2.5) != Num(2.5)")
	}
	if got := Str("hi").String(); got != "hi" {
		t.Errorf("Str.String() = %q", got)
	}
	if got := Str("hi").GoString(); got != `"hi"` {
		t.Errorf("Str.GoString() = %q", got)
	}
	if got := Bool(true).String(); got != "true" {
		t.Errorf("Bool.String() = %q", got)
	}
	if got := Num(3.5).String(); got != "3.5" {
		t.Errorf("Num.String() = %q", got)
	}
	if got := Null().String(); got != "null" {
		t.Errorf("Null.String() = %q", got)
	}
	kinds := []Kind{KindNull, KindNum, KindStr, KindBool, Kind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", int(k))
		}
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null(), false},
		{Num(0), false},
		{Num(0.1), true},
		{Str(""), false},
		{Str("x"), true},
		{Bool(true), true},
		{Bool(false), false},
	}
	for _, c := range cases {
		if got := c.v.Truthy(); got != c.want {
			t.Errorf("Truthy(%#v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestChainEnv(t *testing.T) {
	top := MapEnv{"a": Num(1)}
	bottom := MapEnv{"a": Num(2), "b": Num(3)}
	ch := ChainEnv{top, nil, bottom}
	if v, ok := ch.Lookup("a"); !ok || !v.Equal(Num(1)) {
		t.Errorf("ChainEnv a = (%v,%v), want first layer 1", v, ok)
	}
	if v, ok := ch.Lookup("b"); !ok || !v.Equal(Num(3)) {
		t.Errorf("ChainEnv b = (%v,%v), want 3", v, ok)
	}
	if _, ok := ch.Lookup("c"); ok {
		t.Error("ChainEnv c should be unbound")
	}
}

func TestEvalWithNilEnvLookup(t *testing.T) {
	e := MustCompile("X.Y > 0")
	if _, err := e.Eval(nil); err == nil {
		t.Error("reference with nil env should error")
	}
	// exists() with nil env is simply false.
	e2 := MustCompile("exists(X.Y)")
	b, err := e2.EvalBool(nil)
	if err != nil || b {
		t.Errorf("exists with nil env = (%v, %v), want (false, nil)", b, err)
	}
}

func TestStringEscapes(t *testing.T) {
	e := MustCompile(`"a\nb\t\"c\\" == 'a` + "\n" + `b` + "\t" + `"c\\'`)
	b, err := e.EvalBool(nil)
	if err != nil || !b {
		t.Errorf("escape round-trip = (%v, %v), want (true, nil)", b, err)
	}
	e2 := MustCompile(`'single' == "single"`)
	b, err = e2.EvalBool(nil)
	if err != nil || !b {
		t.Errorf("single-quote string = (%v, %v), want (true, nil)", b, err)
	}
}

// Property: numeric comparisons agree with Go's float64 comparisons.
func TestPropertyNumericComparison(t *testing.T) {
	f := func(a, b int16) bool {
		m := MapEnv{"A": Num(float64(a)), "B": Num(float64(b))}
		lt, err := MustCompile("A < B").EvalBool(m)
		if err != nil {
			return false
		}
		eq, err := MustCompile("A == B").EvalBool(m)
		if err != nil {
			return false
		}
		return lt == (a < b) && eq == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: addition in the language matches Go addition.
func TestPropertyAddition(t *testing.T) {
	f := func(a, b int16) bool {
		m := MapEnv{"A": Num(float64(a)), "B": Num(float64(b))}
		v, err := MustCompile("A + B").Eval(m)
		if err != nil {
			return false
		}
		got, ok := v.AsNum()
		return ok && got == float64(a)+float64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan's law holds for the language's booleans.
func TestPropertyDeMorgan(t *testing.T) {
	f := func(a, b bool) bool {
		m := MapEnv{"A": Bool(a), "B": Bool(b)}
		lhs, err := MustCompile("!(A && B)").EvalBool(m)
		if err != nil {
			return false
		}
		rhs, err := MustCompile("!A || !B").EvalBool(m)
		if err != nil {
			return false
		}
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: compile never accepts garbage that then evaluates to a non-error
// on operators demanding numbers. (Sanity fuzz over random operator soup.)
func TestFuzzishCompileDoesNotPanic(t *testing.T) {
	pieces := []string{"1", "+", "-", "(", ")", "a.b", `"s"`, "&&", "<", "exists", ",", "min", "!", "%"}
	f := func(idx []uint8) bool {
		var b strings.Builder
		for _, i := range idx {
			b.WriteString(pieces[int(i)%len(pieces)])
			b.WriteByte(' ')
		}
		e, err := Compile(b.String())
		if err != nil {
			return true // rejection is fine; panics are not
		}
		_, _ = e.Eval(env()) // eval errors are fine too
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSourceRoundTrip(t *testing.T) {
	src := "S1.O1 > 10 && WF.I2 == \"Blower\""
	e := MustCompile(src)
	if e.Source() != src || e.String() != src {
		t.Errorf("Source() = %q, want %q", e.Source(), src)
	}
}
