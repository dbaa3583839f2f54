// Package distributed implements the distributed workflow control
// architecture (paper §4-5): there is no central engine — the agents that
// execute steps also schedule and coordinate the workflow instances. Each
// agent keeps a partial replica of instance state in its agent database
// (AGDB) and navigation happens by exchanging workflow packets. Per the
// paper's agent taxonomy:
//
//   - every agent is an execution agent: it runs step programs, holds the
//     rules for steps it is eligible for, and forwards workflow packets to
//     the agents of successor steps;
//   - the coordination agent of an instance (the agent of its first start
//     step) additionally handles workflow commit and abort, archives the
//     finished instance (its archive row answers the front end's status
//     queries after a restart), and receives StepCompleted notifications;
//   - termination agents (agents of terminal steps) report StepCompleted to
//     the coordination agent.
//
// The sixteen workflow interfaces of Table 1 map to message kinds in
// messages.go; mechanisms for failure handling (WorkflowRollback, HaltThread
// probes, CompensateSet chains, CompensateThread) and coordinated execution
// (AddRule/AddEvent/AddPrecondition between agents) follow §5.
package distributed

import (
	"fmt"
	"sort"
	"strings"

	"crew/internal/expr"
	"crew/internal/model"
)

// Packet is the workflow packet exchanged between agents (paper Figure 7).
// It carries the complete state information of the instance as known to the
// sender: the accumulated data items, the valid events, and piggybacked
// relative-ordering roles. A packet is immutable once sent: the sender builds
// it from copies and keeps no reference, and every recipient of a forward,
// on whatever goroutine, reads the same one.
type Packet struct {
	// Workflow and Instance identify the workflow instance.
	Workflow string
	Instance int
	// Epoch is the sender's rollback epoch for the instance: receivers drop
	// packets older than their own epoch (stale-thread quiescing — the
	// paper's event invalidation generalized to in-flight state).
	Epoch int
	// TargetStep is the action: "Execute <step>".
	TargetStep model.StepID
	// Data is the accumulated data-item section.
	Data map[string]expr.Value
	// Events is the valid-event section.
	Events []string
	// ResetSteps lists steps whose previous execution this packet obsoletes
	// (loop iterations): the receiver invalidates their events and results
	// before merging.
	ResetSteps []model.StepID
	// Leading and Lagging carry the relative-ordering roles piggybacked on
	// the packet ("R.O. Leading / R.O. Lagging" in Figure 7): spec name ->
	// role holder rendering.
	Leading []string
	Lagging []string
	// Coordinator names the instance's coordination agent, so termination
	// agents know where to send StepCompleted.
	Coordinator string
}

// String renders the packet in the layout of the paper's Figure 7.
func (p *Packet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workflow Name: %s\n", p.Workflow)
	fmt.Fprintf(&b, "Instance Number: %d\n", p.Instance)
	fmt.Fprintf(&b, "Action: Execute %s\n", p.TargetStep)
	b.WriteString("Data Items:\n")
	keys := make([]string, 0, len(p.Data))
	for k := range p.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s = %s\n", k, p.Data[k].GoString())
	}
	b.WriteString("Events: ")
	b.WriteString(strings.Join(p.Events, " "))
	b.WriteString("\n")
	if len(p.Leading) > 0 {
		fmt.Fprintf(&b, "R.O. Leading: %s\n", strings.Join(p.Leading, " "))
	}
	if len(p.Lagging) > 0 {
		fmt.Fprintf(&b, "R.O. Lagging: %s\n", strings.Join(p.Lagging, " "))
	}
	return b.String()
}
