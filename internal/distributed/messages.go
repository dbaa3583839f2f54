package distributed

import (
	"encoding/binary"

	"crew/internal/binenc"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

func init() {
	// Register every WI payload this architecture puts on the transport with
	// its codec (at the end of this file), so wire backends (unix/tcp
	// sockets, the multi-process hub) can carry them across a process
	// boundary, and the message kinds, so a decoded Kind is not a copy.
	transport.RegisterPayload(appendWorkflowStart, decodeWorkflowStart)
	transport.RegisterPayload(appendStepExecute, decodeStepExecute)
	transport.RegisterPayload(appendStepCompleted, decodeStepCompleted)
	transport.RegisterPayload(appendWorkflowRollback, decodeWorkflowRollback)
	transport.RegisterPayload(appendHaltThread, decodeHaltThread)
	transport.RegisterPayload(appendCompensateSet, decodeCompensateSet)
	transport.RegisterPayload(appendCompensateThread, decodeCompensateThread)
	transport.RegisterPayload(appendStepCompensate, decodeStepCompensate)
	transport.RegisterPayload(appendStepCompensated, decodeStepCompensated)
	transport.RegisterPayload(appendWorkflowAbort, decodeWorkflowAbort)
	transport.RegisterPayload(appendWorkflowChangeInputs, decodeWorkflowChangeInputs)
	transport.RegisterPayload(appendStepStatus, decodeStepStatus)
	transport.RegisterPayload(appendStepStatusReply, decodeStepStatusReply)
	transport.RegisterPayload(appendStateInformation, decodeStateInformation)
	transport.RegisterPayload(appendStateInformationReply, decodeStateInformationReply)
	transport.RegisterPayload(appendNestedResult, decodeNestedResult)
	transport.RegisterPayload(appendPurgeNote, decodePurgeNote)
	//crew:allow wireframe WorkflowDone is handled by the front end (mproc cluster runner), not by the agents in this package
	transport.RegisterPayload(appendWorkflowDone, decodeWorkflowDone)
	transport.RegisterKinds(KindWorkflowStart, KindWorkflowChangeInputs, KindWorkflowAbort,
		KindStepExecute, KindStepCompensate, KindStepCompensated, KindStepCompleted,
		KindStepStatus, KindStepStatusReply, KindWorkflowRollback, KindHaltThread,
		KindCompensateSet, KindCompensateThread, KindStateInformation, KindAddRule,
		KindAddEvent, KindAddPrecondition, KindNestedResult, KindPurge, KindWorkflowDone)
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
	KindPurge                = "Purge"
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
	// Epoch and Initiator distinguish repeated rollbacks to the same origin
	// (HaltThread probes are deduplicated per initiator+epoch).
	Epoch     int
	Initiator string
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
	Initiator string
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
	// Status is "done", "executing" or "unknown".
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

// purgeNote is the coordination agent's periodic broadcast of the instances
// it finished since the last one, so agents can purge their replicas (the
// paper's periodic purge broadcast; the period is the sweep's).
type purgeNote struct {
	Entries []purgeEntry
}

// purgeEntry names one finished instance. Status carries the terminal outcome
// so the recipient records it in the terminal registry before dropping the
// replica (late packets for the instance must stay recognizably retired, not
// unknown).
type purgeEntry struct {
	Workflow string
	Instance int
	Status   wfdb.Status
}

// ---------------------------------------------------------------------------
// Wire codecs. One append/decode pair per payload above, registered in init:
// the fields in declaration order on the primitives of package binenc, data
// items as expr.AppendValues writes them (sorted by name). The three on the
// path of every step (workflowStart, stepExecute with its packet,
// stepCompleted) are //crew:hotpath.

// appendInst and appendStep append the (workflow, instance[, step]) prefix
// most payloads open with.
//
//crew:hotpath
func appendInst(dst []byte, workflow string, instance int) []byte {
	return binenc.AppendInt(binenc.AppendString(dst, workflow), instance)
}

func appendStep(dst []byte, workflow string, instance int, step model.StepID) []byte {
	return binenc.AppendString(appendInst(dst, workflow, instance), string(step))
}

func stepID(r *binenc.Reader) model.StepID { return model.StepID(r.Str()) }

func appendWorkflowDone(dst []byte, p WorkflowDone, _ *[]string) []byte {
	return binenc.AppendInt(appendInst(dst, p.Workflow, p.Instance), int(p.Status))
}

func decodeWorkflowDone(r *binenc.Reader) WorkflowDone {
	return WorkflowDone{Workflow: r.Str(), Instance: r.Int(), Status: wfdb.Status(r.Int())}
}

//crew:hotpath
func appendWorkflowStart(dst []byte, p workflowStart, keys *[]string) []byte {
	dst = appendInst(dst, p.Workflow, p.Instance)
	dst = expr.AppendValues(dst, p.Inputs, keys)
	dst = binenc.AppendBool(dst, p.Parent != nil)
	if p.Parent != nil {
		dst = p.Parent.Append(dst)
	}
	dst = binenc.AppendInt(dst, p.ParentInst)
	dst = binenc.AppendString(dst, p.ParentAgent)
	return binenc.AppendString(dst, p.ReplyTo)
}

func decodeWorkflowStart(r *binenc.Reader) workflowStart {
	p := workflowStart{Workflow: r.Str(), Instance: r.Int(), Inputs: expr.DecodeValues(r)}
	if r.Bool() {
		parent := model.DecodeStepRef(r)
		p.Parent = &parent
	}
	p.ParentInst, p.ParentAgent, p.ReplyTo = r.Int(), r.Str(), r.Str()
	return p
}

// A stepExecute is a presence byte, the packet of Figure 7 when present, and
// the mechanism.
//
//crew:hotpath
func appendStepExecute(dst []byte, p stepExecute, keys *[]string) []byte {
	dst = binenc.AppendBool(dst, p.Packet != nil)
	if pkt := p.Packet; pkt != nil {
		dst = appendInst(dst, pkt.Workflow, pkt.Instance)
		dst = binenc.AppendInt(dst, pkt.Epoch)
		dst = binenc.AppendString(dst, string(pkt.TargetStep))
		dst = expr.AppendValues(dst, pkt.Data, keys)
		dst = binenc.AppendStrings(dst, pkt.Events)
		dst = binenc.AppendStrings(dst, pkt.ResetSteps)
		dst = binenc.AppendStrings(dst, pkt.Leading)
		dst = binenc.AppendStrings(dst, pkt.Lagging)
		dst = binenc.AppendString(dst, pkt.Coordinator)
	}
	return p.Mechanism.Append(dst)
}

func decodeStepExecute(r *binenc.Reader) stepExecute {
	var p stepExecute
	if r.Bool() {
		p.Packet = &Packet{
			Workflow:    r.Str(),
			Instance:    r.Int(),
			Epoch:       r.Int(),
			TargetStep:  stepID(r),
			Data:        expr.DecodeValues(r),
			Events:      binenc.Strings[string](r),
			ResetSteps:  binenc.Strings[model.StepID](r),
			Leading:     binenc.Strings[string](r),
			Lagging:     binenc.Strings[string](r),
			Coordinator: r.Str(),
		}
	}
	p.Mechanism = metrics.DecodeMechanism(r)
	return p
}

//crew:hotpath
func appendStepCompleted(dst []byte, p stepCompleted, keys *[]string) []byte {
	dst = appendInst(dst, p.Workflow, p.Instance)
	dst = binenc.AppendString(dst, string(p.Step))
	dst = binenc.AppendInt(dst, p.Epoch)
	dst = expr.AppendValues(dst, p.Data, keys)
	return binenc.AppendStrings(dst, p.Events)
}

func decodeStepCompleted(r *binenc.Reader) stepCompleted {
	return stepCompleted{Workflow: r.Str(), Instance: r.Int(), Step: stepID(r), Epoch: r.Int(),
		Data: expr.DecodeValues(r), Events: binenc.Strings[string](r)}
}

func appendWorkflowRollback(dst []byte, p workflowRollback, keys *[]string) []byte {
	dst = appendStep(dst, p.Workflow, p.Instance, p.Origin)
	dst = binenc.AppendInt(dst, p.Epoch)
	dst = binenc.AppendString(dst, p.Initiator)
	dst = expr.AppendValues(dst, p.NewData, keys)
	return p.Mechanism.Append(dst)
}

func decodeWorkflowRollback(r *binenc.Reader) workflowRollback {
	return workflowRollback{Workflow: r.Str(), Instance: r.Int(), Origin: stepID(r), Epoch: r.Int(),
		Initiator: r.Str(), NewData: expr.DecodeValues(r), Mechanism: metrics.DecodeMechanism(r)}
}

func appendHaltThread(dst []byte, p haltThread, _ *[]string) []byte {
	dst = appendStep(dst, p.Workflow, p.Instance, p.Origin)
	dst = binenc.AppendString(dst, string(p.Step))
	dst = binenc.AppendInt(dst, p.Epoch)
	dst = binenc.AppendString(dst, p.Initiator)
	return p.Mechanism.Append(dst)
}

func decodeHaltThread(r *binenc.Reader) haltThread {
	return haltThread{Workflow: r.Str(), Instance: r.Int(), Origin: stepID(r), Step: stepID(r),
		Epoch: r.Int(), Initiator: r.Str(), Mechanism: metrics.DecodeMechanism(r)}
}

func appendCompensateSet(dst []byte, p compensateSet, _ *[]string) []byte {
	dst = appendStep(dst, p.Workflow, p.Instance, p.Origin)
	dst = binenc.AppendStrings(dst, p.StepList)
	dst = binenc.AppendStrings(dst, p.Compensated)
	return p.Mechanism.Append(dst)
}

func decodeCompensateSet(r *binenc.Reader) compensateSet {
	return compensateSet{Workflow: r.Str(), Instance: r.Int(), Origin: stepID(r),
		StepList: binenc.Strings[model.StepID](r), Compensated: binenc.Strings[model.StepID](r),
		Mechanism: metrics.DecodeMechanism(r)}
}

func appendCompensateThread(dst []byte, p compensateThread, _ *[]string) []byte {
	return p.Mechanism.Append(appendStep(dst, p.Workflow, p.Instance, p.Step))
}

func decodeCompensateThread(r *binenc.Reader) compensateThread {
	return compensateThread{Workflow: r.Str(), Instance: r.Int(), Step: stepID(r), Mechanism: metrics.DecodeMechanism(r)}
}

func appendStepCompensate(dst []byte, p stepCompensate, _ *[]string) []byte {
	dst = appendStep(dst, p.Workflow, p.Instance, p.Step)
	return p.Mechanism.Append(binenc.AppendString(dst, p.ReplyTo))
}

func decodeStepCompensate(r *binenc.Reader) stepCompensate {
	return stepCompensate{Workflow: r.Str(), Instance: r.Int(), Step: stepID(r), ReplyTo: r.Str(),
		Mechanism: metrics.DecodeMechanism(r)}
}

func appendStepCompensated(dst []byte, p stepCompensated, _ *[]string) []byte {
	return appendStep(dst, p.Workflow, p.Instance, p.Step)
}

func decodeStepCompensated(r *binenc.Reader) stepCompensated {
	return stepCompensated{Workflow: r.Str(), Instance: r.Int(), Step: stepID(r)}
}

func appendWorkflowAbort(dst []byte, p workflowAbort, _ *[]string) []byte {
	return appendInst(dst, p.Workflow, p.Instance)
}

func decodeWorkflowAbort(r *binenc.Reader) workflowAbort {
	return workflowAbort{Workflow: r.Str(), Instance: r.Int()}
}

func appendWorkflowChangeInputs(dst []byte, p workflowChangeInputs, keys *[]string) []byte {
	return expr.AppendValues(appendInst(dst, p.Workflow, p.Instance), p.Inputs, keys)
}

func decodeWorkflowChangeInputs(r *binenc.Reader) workflowChangeInputs {
	return workflowChangeInputs{Workflow: r.Str(), Instance: r.Int(), Inputs: expr.DecodeValues(r)}
}

func appendStepStatus(dst []byte, p stepStatus, _ *[]string) []byte {
	dst = appendStep(dst, p.Workflow, p.Instance, p.Step)
	return binenc.AppendString(binenc.AppendString(dst, string(p.ForStep)), p.ReplyTo)
}

func decodeStepStatus(r *binenc.Reader) stepStatus {
	return stepStatus{Workflow: r.Str(), Instance: r.Int(), Step: stepID(r), ForStep: stepID(r), ReplyTo: r.Str()}
}

func appendStepStatusReply(dst []byte, p stepStatusReply, _ *[]string) []byte {
	dst = appendStep(dst, p.Workflow, p.Instance, p.Step)
	return binenc.AppendString(binenc.AppendString(dst, p.Status), p.Agent)
}

func decodeStepStatusReply(r *binenc.Reader) stepStatusReply {
	return stepStatusReply{Workflow: r.Str(), Instance: r.Int(), Step: stepID(r), Status: r.Str(), Agent: r.Str()}
}

func appendStateInformation(dst []byte, p stateInformation, _ *[]string) []byte {
	return binenc.AppendString(dst, p.ReplyTo)
}

func decodeStateInformation(r *binenc.Reader) stateInformation {
	return stateInformation{ReplyTo: r.Str()}
}

func appendStateInformationReply(dst []byte, p stateInformationReply, _ *[]string) []byte {
	return binenc.AppendInt(binenc.AppendString(dst, p.Agent), int(p.Load))
}

func decodeStateInformationReply(r *binenc.Reader) stateInformationReply {
	return stateInformationReply{Agent: r.Str(), Load: int64(r.Int())}
}

func appendNestedResult(dst []byte, p nestedResult, keys *[]string) []byte {
	dst = appendStep(dst, p.ParentWorkflow, p.ParentInstance, p.ParentStep)
	dst = appendInst(dst, p.ChildWorkflow, p.ChildInstance)
	dst = binenc.AppendBool(dst, p.Committed)
	return expr.AppendValues(dst, p.Data, keys)
}

func decodeNestedResult(r *binenc.Reader) nestedResult {
	return nestedResult{ParentWorkflow: r.Str(), ParentInstance: r.Int(), ParentStep: stepID(r),
		ChildWorkflow: r.Str(), ChildInstance: r.Int(), Committed: r.Bool(), Data: expr.DecodeValues(r)}
}

func appendPurgeNote(dst []byte, p purgeNote, _ *[]string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.Entries)))
	for _, e := range p.Entries {
		dst = binenc.AppendInt(appendInst(dst, e.Workflow, e.Instance), int(e.Status))
	}
	return dst
}

func decodePurgeNote(r *binenc.Reader) purgeNote {
	var p purgeNote
	if n := r.Count(3); n > 0 {
		p.Entries = make([]purgeEntry, n)
		for i := range p.Entries {
			p.Entries[i] = purgeEntry{Workflow: r.Str(), Instance: r.Int(), Status: wfdb.Status(r.Int())}
		}
	}
	return p
}
