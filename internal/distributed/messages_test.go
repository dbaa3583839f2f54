package distributed

import (
	"reflect"
	"testing"

	"crew/internal/binenc"
	"crew/internal/expr"
	"crew/internal/metrics"
)

// stepExecuteDecodeAllocBudget is what decoding a packet with six data items
// (three of them strings) and three events may allocate: the payload, the
// packet, the data map, the events slice, the three header strings, six item
// names, three string values and three event names — 20 measured — plus
// slack for a runtime whose map sizes itself differently.
const stepExecuteDecodeAllocBudget = 22

// TestStepExecuteCodecAllocBudget guards the walks on the path of every step
// in a multi-process deployment: each payload walk (a workflow
// start, a packet, a completion) encodes into a warm buffer without
// allocating (data items are sorted in the walker's scratch), and decoding a
// packet allocates what it returns and no more.
func TestStepExecuteCodecAllocBudget(t *testing.T) {
	data := map[string]expr.Value{
		"WF.I1": expr.Num(1), "WF.I2": expr.Str("order-17"), "S1.O1": expr.Num(3.5),
		"S2.O1": expr.Bool(true), "S2.O2": expr.Str("reserved"), "S3.O1": expr.Str("paid"),
	}
	events := []string{"S1.done", "S2.done", "S3.done"}
	p := &stepExecute{Mechanism: metrics.Normal, Packet: &Packet{
		Workflow: "WF01", Instance: 7, Epoch: 1, TargetStep: "S4", Coordinator: "agent03",
		Data: data, Events: events,
	}}
	start := &workflowStart{Workflow: "WF01", Instance: 7, Inputs: data, ReplyTo: "frontend"}
	done := &stepCompleted{Workflow: "WF01", Instance: 7, Step: "S4", Epoch: 1, Data: data, Events: events}
	var w binenc.Walker
	for _, enc := range []struct {
		name    string
		payload binenc.Walkable
	}{
		{"workflowStart.Walk", start},
		{"stepExecute.Walk", p},
		{"stepCompleted.Walk", done},
	} {
		buf := w.Append(nil, enc.payload)
		if avg := testing.AllocsPerRun(500, func() { buf = w.Append(buf[:0], enc.payload) }); avg > 0 {
			t.Errorf("%s allocates %.2f/op into a warm buffer, budget 0", enc.name, avg)
		}
	}

	buf := w.Append(nil, p)
	var got *stepExecute
	var err error
	avg := testing.AllocsPerRun(500, func() {
		got = new(stepExecute)
		err = w.Read(buf, got)
	})
	if err != nil || !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if avg > stepExecuteDecodeAllocBudget {
		t.Errorf("decoding a stepExecute allocates %.1f/op, budget %d", avg, stepExecuteDecodeAllocBudget)
	}
	t.Logf("decode: %.1f allocs/op for %d bytes", avg, len(buf))
}
