package distributed

import (
	"reflect"
	"testing"

	"crew/internal/binenc"
	"crew/internal/expr"
	"crew/internal/metrics"
)

// stepExecuteDecodeAllocBudget is what decoding a packet with six data items
// (three of them strings) and three events may allocate: the payload's box,
// the packet, the data map, the events slice, the three header strings, six
// item names, three string values and three event names — 20 measured — plus
// slack for a runtime whose map sizes itself differently.
const stepExecuteDecodeAllocBudget = 22

// TestStepExecuteCodecAllocBudget guards the codecs on the path of every
// step in a multi-process deployment: each //crew:hotpath payload encoder
// (a workflow start, a packet, a completion) appends to a warm buffer without
// allocating (data items are sorted in the caller's scratch), and decoding a
// packet allocates what it returns and no more.
func TestStepExecuteCodecAllocBudget(t *testing.T) {
	data := map[string]expr.Value{
		"WF.I1": expr.Num(1), "WF.I2": expr.Str("order-17"), "S1.O1": expr.Num(3.5),
		"S2.O1": expr.Bool(true), "S2.O2": expr.Str("reserved"), "S3.O1": expr.Str("paid"),
	}
	events := []string{"S1.done", "S2.done", "S3.done"}
	p := stepExecute{Mechanism: metrics.Normal, Packet: &Packet{
		Workflow: "WF01", Instance: 7, Epoch: 1, TargetStep: "S4", Coordinator: "agent03",
		Data: data, Events: events,
	}}
	start := workflowStart{Workflow: "WF01", Instance: 7, Inputs: data, ReplyTo: "frontend"}
	done := stepCompleted{Workflow: "WF01", Instance: 7, Step: "S4", Epoch: 1, Data: data, Events: events}
	var keys []string
	for _, enc := range []struct {
		name   string
		append func(dst []byte) []byte
	}{
		{"appendWorkflowStart", func(dst []byte) []byte { return appendWorkflowStart(dst, start, &keys) }},
		{"appendStepExecute", func(dst []byte) []byte { return appendStepExecute(dst, p, &keys) }},
		{"appendStepCompleted", func(dst []byte) []byte { return appendStepCompleted(dst, done, &keys) }},
	} {
		buf := enc.append(nil)
		if avg := testing.AllocsPerRun(500, func() { buf = enc.append(buf[:0]) }); avg > 0 {
			t.Errorf("%s allocates %.2f/op into a warm buffer, budget 0", enc.name, avg)
		}
	}

	buf := appendStepExecute(nil, p, &keys)
	var r binenc.Reader
	var got any
	avg := testing.AllocsPerRun(500, func() {
		r.Reset(buf)
		got = decodeStepExecute(&r)
	})
	if err := r.Done(); err != nil || !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if avg > stepExecuteDecodeAllocBudget {
		t.Errorf("decodeStepExecute allocates %.1f/op, budget %d", avg, stepExecuteDecodeAllocBudget)
	}
	t.Logf("decode: %.1f allocs/op for %d bytes", avg, len(buf))
}
