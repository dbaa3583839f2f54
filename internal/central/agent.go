package central

import (
	"fmt"
	"sync/atomic"

	"crew/internal/actor"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
)

// Agent is an application agent of the centralized architecture: it executes
// step programs on the engine's request and answers state probes. It holds no
// workflow state — that is the defining property of centralized control — so
// its actor has no store: a turn is handle, flush the responses (one received
// envelope of N requests yields one envelope of N responses), ack.
type Agent struct {
	*actor.Actor
	programs *model.Registry
	rec      metrics.NodeRecorder

	load int64 // executions performed, reported to StateInformation probes
}

// NewAgent registers and starts an application agent on the network. logf
// (nil for the standard logger) receives send failures.
func NewAgent(name string, net *transport.Network, programs *model.Registry, col *metrics.Collector, logf func(format string, args ...any)) (*Agent, error) {
	act, err := actor.New(net, name, nil, logf)
	if err != nil {
		return nil, err
	}
	a := &Agent{Actor: act, programs: programs, rec: col.Node(name)}
	a.Launch(a.handleOne, nil)
	return a, nil
}

// Load returns the number of programs the agent has executed.
func (a *Agent) Load() int64 { return atomic.LoadInt64(&a.load) }

func (a *Agent) handleOne(m transport.Message) {
	switch p := m.Payload.(type) {
	case *ExecRequest:
		a.handleExec(*p)
	case *StateRequest:
		a.Send(p.ReplyTo, p.Mechanism, KindStateResponse, &StateResponse{Agent: a.Name(), Load: atomic.LoadInt64(&a.load)})
	default:
		a.Logf("unhandled payload %T", p)
	}
}

func (a *Agent) handleExec(req ExecRequest) {
	resp := ExecResponse{
		Workflow: req.Workflow,
		Instance: req.Instance,
		Step:     req.Step,
		Mode:     req.Mode,
		Attempt:  req.Attempt,
	}
	prog, ok := a.programs.Lookup(req.Program)
	if !ok {
		resp.Failed = true
		resp.Reason = fmt.Sprintf("agent %s: unknown program %q", a.Name(), req.Program)
	} else {
		atomic.AddInt64(&a.load, 1)
		a.rec.Add(req.Mechanism, 1)
		out, err := prog(&model.ProgramContext{
			Workflow: req.Workflow,
			Instance: req.Instance,
			Step:     req.Step,
			Mode:     req.Mode,
			Attempt:  req.Attempt,
			Inputs:   req.Inputs,
			Prev:     req.Prev,
		})
		if err != nil {
			resp.Failed = true
			resp.Reason = err.Error()
		} else {
			resp.Outputs = out
		}
	}
	a.Send(req.ReplyTo, req.Mechanism, KindStepResult, &resp)
}
