package coord

import (
	"crew/internal/binenc"
	"crew/internal/model"
	"crew/internal/transport"
)

func init() {
	transport.RegisterPayload(appendRequest, decodeRequest)
	transport.RegisterPayload(appendResolve, decodeResolve)
	transport.RegisterPayload(appendInject, decodeInject)
	transport.RegisterPayload(appendOrder, decodeOrder)
}

// Node is the receiving side of the protocol: what a node does with each
// payload that reaches it. OnRequest is the home's (it hands the request to
// its Home); the other three are the waiter's.
type Node interface {
	OnRequest(Request)
	OnResolve(Resolve)
	OnInject(Inject)
	OnOrder(Order)
}

// Dispatch hands a received coordination payload to the node and reports
// whether it was one.
func Dispatch(payload any, n Node) bool {
	switch p := payload.(type) {
	case Request:
		n.OnRequest(p)
	case Resolve:
		n.OnResolve(p)
	case Inject:
		n.OnInject(p)
	case Order:
		n.OnOrder(p)
	default:
		return false
	}
	return true
}

// Wire codecs: the fields in declaration order on the primitives of package
// binenc.

func appendRequest(dst []byte, p Request, _ *[]string) []byte {
	dst = p.Inst.Append(p.Ref.Append(append(dst, byte(p.Op))))
	return binenc.AppendStrings(binenc.AppendString(dst, p.ReplyTo), p.Invalidated)
}

func decodeRequest(r *binenc.Reader) Request {
	op := Op(r.Byte())
	if op >= numOps {
		r.Fail()
		op = Check
	}
	return Request{Op: op, Ref: model.DecodeStepRef(r), Inst: DecodeInstanceRef(r), ReplyTo: r.Str(),
		Invalidated: binenc.Strings[model.StepID](r)}
}

func appendResolve(dst []byte, p Resolve, _ *[]string) []byte {
	return binenc.AppendStrings(binenc.AppendString(p.Inst.Append(dst), string(p.Step)), p.WaitEvents)
}

func decodeResolve(r *binenc.Reader) Resolve {
	return Resolve{Inst: DecodeInstanceRef(r), Step: model.StepID(r.Str()), WaitEvents: binenc.Strings[string](r)}
}

func appendInject(dst []byte, p Inject, _ *[]string) []byte {
	return binenc.AppendString(binenc.AppendString(p.Target.Append(dst), p.Event), string(p.Step))
}

func decodeInject(r *binenc.Reader) Inject {
	return Inject{Target: DecodeInstanceRef(r), Event: r.Str(), Step: model.StepID(r.Str())}
}

func appendOrder(dst []byte, p Order, _ *[]string) []byte { return RollbackOrder(p).Append(dst) }

func decodeOrder(r *binenc.Reader) Order { return Order(DecodeRollbackOrder(r)) }
