package distributed

import (
	"fmt"

	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/transport"
)

// This file is the wire face of the distributed architecture: the helpers a
// front end needs when the agents it drives live in other OS processes and
// every workflow interface must travel as a transport message instead of a
// direct Agent method call. In-process deployments (System) never use it.

// CoordinatorFor computes the coordination agent a front end must address for
// an instance: the deterministic election among the (currently alive)
// eligible agents of the schema's first start step — the same election every
// agent performs locally, so front end and agents agree without exchanging a
// message. alive may be nil (all agents considered up).
func CoordinatorFor(lib *model.Library, agents []string, workflow string, id int, alive func(string) bool) (string, error) {
	schema := lib.Schema(workflow)
	if schema == nil {
		return "", fmt.Errorf("distributed: %w: %q", cerrors.ErrUnknownWorkflow, workflow)
	}
	starts := schema.StartSteps()
	if len(starts) == 0 {
		return "", fmt.Errorf("distributed: workflow %q has no start step", workflow)
	}
	elig := schema.Steps[starts[0]].EligibleAgents
	if len(elig) == 0 {
		elig = agents
	}
	if alive == nil {
		alive = func(string) bool { return true }
	}
	name := nav.ElectAgent(elig, workflow, id, starts[0], alive)
	if name == "" {
		return "", fmt.Errorf("distributed: no agent available to coordinate %s.%d", workflow, id)
	}
	return name, nil
}

// StartMessage builds the WorkflowStart WI as a wire message to the
// coordination agent. replyTo, when non-empty, subscribes that node to the
// instance's WorkflowDone notification.
func StartMessage(from, to, workflow string, id int, inputs map[string]expr.Value, replyTo string) transport.Message {
	return transport.Message{
		From: from, To: to, Mechanism: metrics.Normal, Kind: KindWorkflowStart,
		Payload: &workflowStart{Workflow: workflow, Instance: id, Inputs: inputs, ReplyTo: replyTo},
	}
}

// AbortMessage builds the WorkflowAbort WI as a wire message.
func AbortMessage(from, to, workflow string, id int) transport.Message {
	return transport.Message{
		From: from, To: to, Mechanism: metrics.Abort, Kind: KindWorkflowAbort,
		Payload: &workflowAbort{Workflow: workflow, Instance: id},
	}
}

// ChangeInputsMessage builds the WorkflowChangeInputs WI as a wire message.
func ChangeInputsMessage(from, to, workflow string, id int, inputs map[string]expr.Value) transport.Message {
	return transport.Message{
		From: from, To: to, Mechanism: metrics.InputChange, Kind: KindWorkflowChangeInputs,
		Payload: &workflowChangeInputs{Workflow: workflow, Instance: id, Inputs: inputs},
	}
}
