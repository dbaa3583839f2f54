package coord

import (
	"testing"

	"crew/internal/binenc"
	"crew/internal/model"
)

// TestPayloadWalkAllocBudget guards the walks under every coordination
// message: each of the four payloads (and with them InstanceRef.Walk and
// model.StepRef.Walk) encodes into a warm buffer without allocating.
func TestPayloadWalkAllocBudget(t *testing.T) {
	inst := InstanceRef{Workflow: "WF01", ID: 7}
	ref := model.StepRef{Workflow: "WF01", Step: "S2"}
	var w binenc.Walker
	for _, enc := range []struct {
		name    string
		payload binenc.Walkable
	}{
		{"Request", &Request{Op: Check, Ref: ref, Inst: inst, ReplyTo: "agent03", Invalidated: []model.StepID{"S3", "S4"}}},
		{"Resolve", &Resolve{Inst: inst, Step: "S2", WaitEvents: []string{"mx.grant.WF01.7.S2"}}},
		{"Inject", &Inject{Target: inst, Event: "mx.grant.WF01.7.S2", Step: "S2"}},
		{"Order", &Order{TargetWorkflow: "WF02", TargetStep: "S1"}},
	} {
		buf := w.Append(nil, enc.payload)
		if avg := testing.AllocsPerRun(500, func() { buf = w.Append(buf[:0], enc.payload) }); avg > 0 {
			t.Errorf("%s.Walk allocates %.2f/op into a warm buffer, budget 0", enc.name, avg)
		}
	}
}
