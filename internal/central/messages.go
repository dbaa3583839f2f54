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
	// Register every payload this architecture puts on the transport (each
	// type's walk, at the end of this file, is its codec), so wire backends
	// (unix/tcp sockets) can carry them across a process boundary, and its
	// message kinds.
	transport.RegisterPayload[ExecRequest]()
	transport.RegisterPayload[ExecResponse]()
	transport.RegisterPayload[StateRequest]()
	transport.RegisterPayload[StateResponse]()
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

// Wire forms: each payload's fields in declaration order on the walker of
// package binenc, data items as expr.WalkValues writes them (sorted by name).

func (p *ExecRequest) Walk(w *binenc.Walker) {
	w.String(&p.Workflow)
	w.Int(&p.Instance)
	p.Step.Walk(w)
	w.String(&p.Program)
	p.Mode.Walk(w)
	w.Int(&p.Attempt)
	expr.WalkValues(w, &p.Inputs)
	if binenc.Present(w, &p.Prev) {
		p.Prev.Walk(w)
	}
	p.Mechanism.Walk(w)
	w.String(&p.ReplyTo)
}

func (p *ExecResponse) Walk(w *binenc.Walker) {
	w.String(&p.Workflow)
	w.Int(&p.Instance)
	p.Step.Walk(w)
	p.Mode.Walk(w)
	w.Int(&p.Attempt)
	expr.WalkValues(w, &p.Outputs)
	w.Bool(&p.Failed)
	w.String(&p.Reason)
}

func (p *StateRequest) Walk(w *binenc.Walker) {
	w.String(&p.ReplyTo)
	p.Mechanism.Walk(w)
}

func (p *StateResponse) Walk(w *binenc.Walker) {
	w.String(&p.Agent)
	w.Int64(&p.Load)
}
