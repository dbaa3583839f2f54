package coord

import (
	"crew/internal/binenc"
	"crew/internal/transport"
)

func init() {
	transport.RegisterPayload[Request]()
	transport.RegisterPayload[Resolve]()
	transport.RegisterPayload[Inject]()
	transport.RegisterPayload[Order]()
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
	case *Request:
		n.OnRequest(*p)
	case *Resolve:
		n.OnResolve(*p)
	case *Inject:
		n.OnInject(*p)
	case *Order:
		n.OnOrder(*p)
	default:
		return false
	}
	return true
}

// Wire forms: each payload's fields in declaration order.

func (p *Request) Walk(w *binenc.Walker) {
	op := byte(p.Op)
	w.Byte(&op)
	if w.Decoding() {
		if Op(op) >= numOps {
			w.Fail()
			op = byte(Check)
		}
		p.Op = Op(op)
	}
	p.Ref.Walk(w)
	p.Inst.Walk(w)
	w.String(&p.ReplyTo)
	binenc.Strings(w, &p.Invalidated)
}

func (p *Resolve) Walk(w *binenc.Walker) {
	p.Inst.Walk(w)
	p.Step.Walk(w)
	binenc.Strings(w, &p.WaitEvents)
}

func (p *Inject) Walk(w *binenc.Walker) {
	p.Target.Walk(w)
	w.String(&p.Event)
	p.Step.Walk(w)
}

func (p *Order) Walk(w *binenc.Walker) { (*RollbackOrder)(p).Walk(w) }
