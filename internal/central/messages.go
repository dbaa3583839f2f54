// Package central implements engine-based workflow control: the paper's
// centralized architecture (§2-3) and its parallel one (Figure 6(b) and §6),
// which differ in a count.
//
// A workflow engine owns all workflow state in the WFDB, navigates every
// instance through the rule-based run-time, and dispatches steps to
// application agents, probing eligible agents' state to pick the least
// loaded. With one engine, coordinated execution needs no messages — the
// engine is its own coordination home (package coord) — which is exactly the
// property Table 4 reports (0 coordination messages).
//
// With several, the engines work side by side to share the workflow
// management load, each instance being controlled by exactly one of them.
// Normal execution behaves like centralized control at every engine (the
// per-instance message count is unchanged), but coordinated execution now
// spans engines: the coordination state for the library's specs lives at a
// home engine (Engine.Place), and the other engines reach it with physical
// messages — which is why, unlike Table 4's zero, Table 5 reports
// coordination messages that grow with the number of engines.
//
// System runs e >= 1 engines with their agents; nothing in it or in Engine
// asks which architecture that makes.
package central

import (
	"crew/internal/binenc"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
)

func init() {
	// Register every payload this architecture puts on the transport with its
	// codec (at the end of this file), so wire backends (unix/tcp sockets) can
	// carry them across a process boundary, and its message kinds.
	transport.RegisterPayload(appendExecRequest, decodeExecRequest)
	transport.RegisterPayload(appendExecResponse, decodeExecResponse)
	transport.RegisterPayload(appendStateRequest, decodeStateRequest)
	transport.RegisterPayload(appendStateResponse, decodeStateResponse)
	transport.RegisterKinds(KindStepExecute, KindStepCompensate, KindStepResult, KindStateInformation, KindStateResponse)
}

// ExecRequest asks an agent to run a step program (or its compensation).
type ExecRequest struct {
	Workflow string
	Instance int
	Step     model.StepID
	Program  string
	Mode     model.ExecMode
	Attempt  int
	Inputs   map[string]expr.Value
	Prev     *model.PrevExecution
	// Mechanism tags the reply so failure-handling traffic is counted in
	// the right class.
	Mechanism metrics.Mechanism
	// ReplyTo names the engine to answer.
	ReplyTo string
}

// ExecResponse returns a step execution's outcome.
type ExecResponse struct {
	Workflow string
	Instance int
	Step     model.StepID
	Mode     model.ExecMode
	// Attempt echoes the request's attempt number, letting the engine
	// discard results of superseded dispatches (after a loop-back reset or
	// an engine restart) instead of relying on volatile bookkeeping.
	Attempt int
	Outputs map[string]expr.Value
	Failed  bool
	Reason  string
}

// StateRequest probes an agent's state (the StateInformation() WI); the
// engine uses the responses to pick the least-loaded eligible agent.
type StateRequest struct {
	ReplyTo   string
	Mechanism metrics.Mechanism
}

// StateResponse reports an agent's current load.
type StateResponse struct {
	Agent string
	Load  int64
}

// Message kind labels used for tracing.
const (
	KindStepExecute      = "StepExecute"
	KindStepCompensate   = "StepCompensate"
	KindStepResult       = "StepResult"
	KindStateInformation = "StateInformation"
	KindStateResponse    = "StateResponse"
)

// Wire codecs: the fields in declaration order on the primitives of package
// binenc, data items as expr.AppendValues writes them (sorted by name).

func appendExecRequest(dst []byte, p ExecRequest, keys *[]string) []byte {
	dst = binenc.AppendString(dst, p.Workflow)
	dst = binenc.AppendInt(dst, p.Instance)
	dst = binenc.AppendString(dst, string(p.Step))
	dst = binenc.AppendString(dst, p.Program)
	dst = binenc.AppendInt(dst, int(p.Mode))
	dst = binenc.AppendInt(dst, p.Attempt)
	dst = expr.AppendValues(dst, p.Inputs, keys)
	dst = binenc.AppendBool(dst, p.Prev != nil)
	if p.Prev != nil {
		dst = expr.AppendValues(dst, p.Prev.Inputs, keys)
		dst = expr.AppendValues(dst, p.Prev.Outputs, keys)
	}
	dst = p.Mechanism.Append(dst)
	return binenc.AppendString(dst, p.ReplyTo)
}

func decodeExecRequest(r *binenc.Reader) ExecRequest {
	p := ExecRequest{Workflow: r.Str(), Instance: r.Int(), Step: model.StepID(r.Str()), Program: r.Str(),
		Mode: model.ExecMode(r.Int()), Attempt: r.Int(), Inputs: expr.DecodeValues(r)}
	if r.Bool() {
		p.Prev = &model.PrevExecution{Inputs: expr.DecodeValues(r), Outputs: expr.DecodeValues(r)}
	}
	p.Mechanism, p.ReplyTo = metrics.DecodeMechanism(r), r.Str()
	return p
}

func appendExecResponse(dst []byte, p ExecResponse, keys *[]string) []byte {
	dst = binenc.AppendString(dst, p.Workflow)
	dst = binenc.AppendInt(dst, p.Instance)
	dst = binenc.AppendString(dst, string(p.Step))
	dst = binenc.AppendInt(dst, int(p.Mode))
	dst = binenc.AppendInt(dst, p.Attempt)
	dst = expr.AppendValues(dst, p.Outputs, keys)
	dst = binenc.AppendBool(dst, p.Failed)
	return binenc.AppendString(dst, p.Reason)
}

func decodeExecResponse(r *binenc.Reader) ExecResponse {
	return ExecResponse{Workflow: r.Str(), Instance: r.Int(), Step: model.StepID(r.Str()),
		Mode: model.ExecMode(r.Int()), Attempt: r.Int(), Outputs: expr.DecodeValues(r),
		Failed: r.Bool(), Reason: r.Str()}
}

func appendStateRequest(dst []byte, p StateRequest, _ *[]string) []byte {
	return p.Mechanism.Append(binenc.AppendString(dst, p.ReplyTo))
}

func decodeStateRequest(r *binenc.Reader) StateRequest {
	return StateRequest{ReplyTo: r.Str(), Mechanism: metrics.DecodeMechanism(r)}
}

func appendStateResponse(dst []byte, p StateResponse, _ *[]string) []byte {
	return binenc.AppendInt(binenc.AppendString(dst, p.Agent), int(p.Load))
}

func decodeStateResponse(r *binenc.Reader) StateResponse {
	return StateResponse{Agent: r.Str(), Load: int64(r.Int())}
}
