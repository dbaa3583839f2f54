package distributed

import (
	"crew/internal/binenc"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

func init() {
	// Register every WI payload this architecture puts on the transport (each
	// type's walk, at the end of this file, is its codec), so wire backends
	// (unix/tcp sockets, the multi-process hub) can carry them across a
	// process boundary, and the message kinds, so a decoded Kind is not a
	// copy. WorkflowDone is handled by the multi-process front end (package
	// mproc), not by the agents in this package.
	transport.RegisterPayload[workflowStart]()
	transport.RegisterPayload[stepExecute]()
	transport.RegisterPayload[stepCompleted]()
	transport.RegisterPayload[workflowRollback]()
	transport.RegisterPayload[haltThread]()
	transport.RegisterPayload[compensateSet]()
	transport.RegisterPayload[compensateThread]()
	transport.RegisterPayload[stepCompensate]()
	transport.RegisterPayload[stepCompensated]()
	transport.RegisterPayload[workflowAbort]()
	transport.RegisterPayload[workflowChangeInputs]()
	transport.RegisterPayload[stepStatus]()
	transport.RegisterPayload[stepStatusReply]()
	transport.RegisterPayload[stateInformation]()
	transport.RegisterPayload[stateInformationReply]()
	transport.RegisterPayload[nestedResult]()
	transport.RegisterPayload[WorkflowDone]()
	transport.RegisterKinds(KindWorkflowStart, KindWorkflowChangeInputs, KindWorkflowAbort,
		KindStepExecute, KindStepCompensate, KindStepCompensated, KindStepCompleted,
		KindStepStatus, KindStepStatusReply, KindWorkflowRollback, KindHaltThread,
		KindCompensateSet, KindCompensateThread, KindStateInformation, KindAddRule,
		KindAddEvent, KindAddPrecondition, KindNestedResult, KindWorkflowDone)
}

// Message kind labels: the workflow interfaces of the paper's Table 1.
const (
	KindWorkflowStart        = "WorkflowStart"
	KindWorkflowChangeInputs = "WorkflowChangeInputs"
	KindWorkflowAbort        = "WorkflowAbort"
	KindStepExecute          = "StepExecute"
	KindStepCompensate       = "StepCompensate"
	KindStepCompensated      = "StepCompensated"
	KindStepCompleted        = "StepCompleted"
	KindStepStatus           = "StepStatus"
	KindStepStatusReply      = "StepStatusReply"
	KindWorkflowRollback     = "WorkflowRollback"
	KindHaltThread           = "HaltThread"
	KindCompensateSet        = "CompensateSet"
	KindCompensateThread     = "CompensateThread"
	KindStateInformation     = "StateInformation"
	KindAddRule              = "AddRule"
	KindAddEvent             = "AddEvent"
	KindAddPrecondition      = "AddPrecondition"
	KindNestedResult         = "NestedResult"
	KindWorkflowDone         = "WorkflowDone"
)

// WorkflowDone is the coordination agent's terminal-status notification to a
// front end living in another process (see Instance.NotifyTo). In-process
// deployments never send it: completion flows through the shared terminal
// registry there.
type WorkflowDone struct {
	Workflow string
	Instance int
	Status   wfdb.Status
}

// workflowStart instantiates a workflow at its coordination agent.
type workflowStart struct {
	Workflow string
	Instance int
	Inputs   map[string]expr.Value
	// Parent links a nested instance to the parent step's agent.
	Parent      *model.StepRef
	ParentInst  int
	ParentAgent string
	// ReplyTo, when non-empty, asks the coordination agent to send a
	// WorkflowDone to that node on termination (multi-process front ends).
	ReplyTo string
}

// stepExecute delivers a workflow packet (the StepExecute WI).
type stepExecute struct {
	Packet *Packet
	// Mechanism classifies the traffic (normal vs re-execution after
	// failure/input change).
	Mechanism metrics.Mechanism
}

// stepCompleted notifies the coordination agent that a terminal step
// finished; it carries the termination agent's state snapshot so the
// coordination agent can decide commit.
type stepCompleted struct {
	Workflow string
	Instance int
	Step     model.StepID
	Epoch    int
	Data     map[string]expr.Value
	Events   []string
}

// workflowRollback asks the agent owning the rollback-target step to apply a
// partial rollback and re-execute from there (the WorkflowRollback WI).
type workflowRollback struct {
	Workflow string
	Instance int
	// Origin is the step re-executed after the rollback.
	Origin model.StepID
	// NewData carries updated data items (used by input changes).
	NewData map[string]expr.Value
	// Mechanism is Failure or InputChange.
	Mechanism metrics.Mechanism
}

// haltThread quiesces control flow of threads affected by a rollback (the
// HaltThread WI). Step is the step whose agent should halt; Origin is the
// rollback origin determining which events are invalidated.
type haltThread struct {
	Workflow  string
	Instance  int
	Origin    model.StepID
	Step      model.StepID
	Epoch     int
	Mechanism metrics.Mechanism
}

// compensateSet drives the reverse-execution-order compensation chain of a
// compensation dependent set (the CompensateSet WI).
type compensateSet struct {
	Workflow string
	Instance int
	// Origin is the step whose re-execution requested the chain; the chain
	// ends by compensating it at its own agent, which then re-executes.
	Origin model.StepID
	// StepList holds the remaining steps to compensate, last first.
	StepList []model.StepID
	// Compensated accumulates the steps already compensated along the
	// chain so receivers can update their replicas.
	Compensated []model.StepID
	Mechanism   metrics.Mechanism
}

// compensateThread compensates an abandoned branch step by step until a
// confluence point (the CompensateThread WI).
type compensateThread struct {
	Workflow  string
	Instance  int
	Step      model.StepID
	Mechanism metrics.Mechanism
}

// stepCompensate asks the agent that executed a step to compensate it (used
// by user-initiated aborts; the StepCompensate WI).
type stepCompensate struct {
	Workflow string
	Instance int
	Step     model.StepID
	// ReplyTo receives stepCompensated so the coordination agent can chain
	// compensations in reverse order.
	ReplyTo   string
	Mechanism metrics.Mechanism
}

// stepCompensated acknowledges a stepCompensate.
type stepCompensated struct {
	Workflow string
	Instance int
	Step     model.StepID
}

// workflowAbort asks the coordination agent to abort an instance (front
// end -> coordination agent; the WorkflowAbort WI).
type workflowAbort struct {
	Workflow string
	Instance int
}

// workflowChangeInputs delivers a user input change to the coordination
// agent (the WorkflowChangeInputs WI).
type workflowChangeInputs struct {
	Workflow string
	Instance int
	Inputs   map[string]expr.Value
}

// stepStatus polls eligible agents about a step whose done event is overdue
// (predecessor-failure handling; the StepStatus WI).
type stepStatus struct {
	Workflow string
	Instance int
	Step     model.StepID
	// ForStep is the waiting step at the asker; a responder holding the
	// results re-sends the workflow packet targeting it.
	ForStep model.StepID
	ReplyTo string
}

// stepStatusReply answers a stepStatus poll. A responder that holds the
// step's results re-sends the workflow packet separately.
type stepStatusReply struct {
	Workflow string
	Instance int
	Step     model.StepID
	// Status is "done" or "unknown".
	Status string
	Agent  string
}

// stateInformation asks an agent for its load (the StateInformation WI; used
// by the explicit-election ablation).
type stateInformation struct {
	ReplyTo string
}

// stateInformationReply answers stateInformation.
type stateInformationReply struct {
	Agent string
	Load  int64
}

// nestedResult reports a nested workflow's outcome to the parent step's
// agent.
type nestedResult struct {
	ParentWorkflow string
	ParentInstance int
	ParentStep     model.StepID
	ChildWorkflow  string
	ChildInstance  int
	Committed      bool
	// Data is the child's final data table (for output mapping).
	Data map[string]expr.Value
}

// ---------------------------------------------------------------------------
// Wire forms. One walk per payload above: its fields in declaration order, on
// the walker of package binenc, data items as expr.WalkValues writes them
// (sorted by name). The walks on the path of every step (workflowStart,
// stepExecute with its packet, stepCompleted) allocate nothing when encoding
// (TestStepExecuteCodecAllocBudget).

// walkInst walks the (workflow, instance) prefix most payloads open with.
func walkInst(w *binenc.Walker, workflow *string, instance *int) {
	w.String(workflow)
	w.Int(instance)
}

func (p *WorkflowDone) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Status.Walk(w)
}

func (p *workflowStart) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	expr.WalkValues(w, &p.Inputs)
	if binenc.Present(w, &p.Parent) {
		p.Parent.Walk(w)
	}
	w.Int(&p.ParentInst)
	w.String(&p.ParentAgent)
	w.String(&p.ReplyTo)
}

// A stepExecute is a presence byte, the packet of Figure 7 when present, and
// the mechanism.
func (p *stepExecute) Walk(w *binenc.Walker) {
	if binenc.Present(w, &p.Packet) {
		p.Packet.Walk(w)
	}
	p.Mechanism.Walk(w)
}

func (pkt *Packet) Walk(w *binenc.Walker) {
	walkInst(w, &pkt.Workflow, &pkt.Instance)
	w.Int(&pkt.Epoch)
	pkt.TargetStep.Walk(w)
	expr.WalkValues(w, &pkt.Data)
	binenc.Strings(w, &pkt.Events)
	binenc.Strings(w, &pkt.ResetSteps)
	binenc.Strings(w, &pkt.Leading)
	binenc.Strings(w, &pkt.Lagging)
	w.String(&pkt.Coordinator)
}

func (p *stepCompleted) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Step.Walk(w)
	w.Int(&p.Epoch)
	expr.WalkValues(w, &p.Data)
	binenc.Strings(w, &p.Events)
}

func (p *workflowRollback) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Origin.Walk(w)
	expr.WalkValues(w, &p.NewData)
	p.Mechanism.Walk(w)
}

func (p *haltThread) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Origin.Walk(w)
	p.Step.Walk(w)
	w.Int(&p.Epoch)
	p.Mechanism.Walk(w)
}

func (p *compensateSet) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Origin.Walk(w)
	binenc.Strings(w, &p.StepList)
	binenc.Strings(w, &p.Compensated)
	p.Mechanism.Walk(w)
}

func (p *compensateThread) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Step.Walk(w)
	p.Mechanism.Walk(w)
}

func (p *stepCompensate) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Step.Walk(w)
	w.String(&p.ReplyTo)
	p.Mechanism.Walk(w)
}

func (p *stepCompensated) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Step.Walk(w)
}

func (p *workflowAbort) Walk(w *binenc.Walker) { walkInst(w, &p.Workflow, &p.Instance) }

func (p *workflowChangeInputs) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	expr.WalkValues(w, &p.Inputs)
}

func (p *stepStatus) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Step.Walk(w)
	p.ForStep.Walk(w)
	w.String(&p.ReplyTo)
}

func (p *stepStatusReply) Walk(w *binenc.Walker) {
	walkInst(w, &p.Workflow, &p.Instance)
	p.Step.Walk(w)
	w.String(&p.Status)
	w.String(&p.Agent)
}

func (p *stateInformation) Walk(w *binenc.Walker) { w.String(&p.ReplyTo) }

func (p *stateInformationReply) Walk(w *binenc.Walker) {
	w.String(&p.Agent)
	w.Int64(&p.Load)
}

func (p *nestedResult) Walk(w *binenc.Walker) {
	walkInst(w, &p.ParentWorkflow, &p.ParentInstance)
	p.ParentStep.Walk(w)
	walkInst(w, &p.ChildWorkflow, &p.ChildInstance)
	w.Bool(&p.Committed)
	expr.WalkValues(w, &p.Data)
}
