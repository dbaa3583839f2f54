// Package wireframe_a seeds wireframe violations: frame constants without
// encode or dispatch arms, and non-exhaustive frame switches.
package wireframe_a

const (
	frameMsg byte = iota + 1
	frameHello
	framePing
	frameOrphan // want "frame frameOrphan is never encoded" "frame frameOrphan has no dispatch arm"
)

func encode(buf []byte, typ byte) []byte { return append(buf, typ) }

func send(buf []byte) []byte {
	buf = encode(buf, frameMsg)
	buf = encode(buf, frameHello)
	return encode(buf, framePing)
}

// isPing dispatches framePing by comparison.
func isPing(typ byte) bool { return typ == framePing }

func dispatchWithDefault(typ byte) int {
	switch typ { // ok: a default handles unknown frames
	case frameMsg:
		return 1
	default:
		return 0
	}
}

func dispatchMissing(typ byte) int {
	switch typ { // want "frame switch is not exhaustive"
	case frameMsg:
		return 1
	case frameHello:
		return 2
	}
	return 0
}

func dispatchAllowed(typ byte) int {
	//crew:allow wireframe fixture: peer only ever sends Msg here
	switch typ {
	case frameMsg:
		return 1
	}
	return 0
}
