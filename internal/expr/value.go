// Package expr implements the typed values and the condition-expression
// language used throughout the CREW reproduction: control-arc conditions on
// if-then-else branches, rule preconditions, loop exit conditions, and the
// compensation/re-execution conditions of the OCR strategy all compile to
// expressions over workflow data items such as WF.I1 or S2.O1 (the naming
// convention shown in the paper's Figure 7 workflow packet).
package expr

import (
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

const (
	// KindNull is the zero Value, used for absent data items.
	KindNull Kind = iota
	// KindNum is a float64 number.
	KindNum
	// KindStr is a string.
	KindStr
	// KindBool is a boolean.
	KindBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindNum:
		return "num"
	case KindStr:
		return "str"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed workflow data value. The zero Value is null.
type Value struct {
	num  float64
	str  string
	kind Kind // after str: the value packs into 32 bytes
	b    bool
}

// Null returns the null value.
func Null() Value { return Value{} }

// Num returns a numeric value.
func Num(f float64) Value { return Value{kind: KindNum, num: f} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindStr, str: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsNum returns the numeric content; ok is false if the value is not a number.
func (v Value) AsNum() (f float64, ok bool) { return v.num, v.kind == KindNum }

// AsStr returns the string content; ok is false if the value is not a string.
func (v Value) AsStr() (s string, ok bool) { return v.str, v.kind == KindStr }

// AsBool returns the boolean content; ok is false if the value is not a bool.
func (v Value) AsBool() (b, ok bool) { return v.b, v.kind == KindBool }

// Truthy converts a value to a boolean for use in a condition position:
// booleans are themselves, numbers are true when non-zero, strings when
// non-empty, and null is false.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindNum:
		return v.num != 0
	case KindStr:
		return v.str != ""
	default:
		return false
	}
}

// Equal reports deep equality; values of different kinds are never equal.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNum:
		return v.num == o.num
	case KindStr:
		return v.str == o.str
	case KindBool:
		return v.b == o.b
	default: // null
		return true
	}
}

// Same reports whether v equals o with the same bits, so that both encode
// to the same bytes: unlike Equal it tells -0 from 0, and NaN is the same as
// nothing.
func (v Value) Same(o Value) bool {
	return v.Equal(o) && math.Float64bits(v.num) == math.Float64bits(o.num)
}

// String renders the value for packets, logs and the crewrun CLI.
func (v Value) String() string {
	switch v.kind {
	case KindNum:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case KindStr:
		return v.str
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "null"
	}
}

// GoString renders an unambiguous literal form (strings quoted).
func (v Value) GoString() string {
	if v.kind == KindStr {
		return strconv.Quote(v.str)
	}
	return v.String()
}

// Env resolves data-item references during expression evaluation.
type Env interface {
	// Lookup returns the value bound to the given dotted name, and whether
	// the name is bound at all.
	Lookup(name string) (Value, bool)
}

// MapEnv is the common Env implementation: a plain map from dotted names to
// values.
type MapEnv map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}

// ChainEnv consults each environment in order and returns the first binding.
// It is used by OCR condition evaluation, where "prev." names resolve in the
// previous-execution environment layered under the current data table.
type ChainEnv []Env

// Lookup implements Env.
func (c ChainEnv) Lookup(name string) (Value, bool) {
	for _, e := range c {
		if e == nil {
			continue
		}
		if v, ok := e.Lookup(name); ok {
			return v, true
		}
	}
	return Value{}, false
}
