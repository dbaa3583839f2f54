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

// TestStepExecuteCodecAllocBudget guards the codec on the path of every step
// in a multi-process deployment: appending a workflow packet to a warm buffer
// allocates nothing (the data items are sorted in the caller's scratch), and
// decoding one allocates what it returns and no more.
func TestStepExecuteCodecAllocBudget(t *testing.T) {
	p := stepExecute{Mechanism: metrics.Normal, Packet: &Packet{
		Workflow: "WF01", Instance: 7, Epoch: 1, TargetStep: "S4", Coordinator: "agent03",
		Data: map[string]expr.Value{
			"WF.I1": expr.Num(1), "WF.I2": expr.Str("order-17"), "S1.O1": expr.Num(3.5),
			"S2.O1": expr.Bool(true), "S2.O2": expr.Str("reserved"), "S3.O1": expr.Str("paid"),
		},
		Events: []string{"S1.done", "S2.done", "S3.done"},
	}}
	var keys []string
	buf := appendStepExecute(nil, p, &keys)
	if avg := testing.AllocsPerRun(500, func() { buf = appendStepExecute(buf[:0], p, &keys) }); avg > 0 {
		t.Errorf("appendStepExecute allocates %.2f/op into a warm buffer, budget 0", avg)
	}

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
