// Package wireframe_a seeds wireframe violations: frame constants without
// encode or dispatch arms, non-exhaustive frame switches, and registered
// payloads without handler arms.
package wireframe_a

import "crew/internal/transport"

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

// --- payload registry -------------------------------------------------------

type Handled struct{ N int }

type Orphan struct{ N int }

type External struct{ N int }

type Explicit struct{ N int }

func put[T any](dst []byte, p T, keys *[]string) []byte { return dst }

func get[T any](b []byte) (p T) { return p }

func init() {
	transport.RegisterPayload(put[Handled], get[Handled])
	transport.RegisterPayload(put[*Orphan], get[*Orphan]) // want "payload Orphan is registered for the wire but has no handler arm"
	//crew:allow wireframe consumed by the frontend package, not here
	transport.RegisterPayload(put[External], get[External])
	transport.RegisterPayload[Explicit](put, get) // want "payload Explicit is registered for the wire but has no handler arm"
}

func handle(p any) int {
	switch p.(type) {
	case Handled, *Handled:
		return 1
	}
	return 0
}
