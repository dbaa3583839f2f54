package faults

import (
	"strings"
	"sync"
	"testing"
	"time"

	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
)

func TestChaosPlanDeterministicDigest(t *testing.T) {
	targets := []string{"n1", "n2", "n3"}
	p1 := ChaosPlan(42, targets, 3, 10, 20, 5)
	p2 := ChaosPlan(42, targets, 3, 10, 20, 5)
	if p1.String() != p2.String() {
		t.Errorf("same seed, different plans:\n  %s\n  %s", p1, p2)
	}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(p1.Events); got != 6 {
		t.Errorf("3 crashes should yield 6 events, got %d", got)
	}
	if !strings.HasPrefix(p1.String(), "seed=42;") {
		t.Errorf("digest does not lead with the seed: %s", p1)
	}
}

func TestChaosPlanClampsDowntimeBelowSpacing(t *testing.T) {
	p := ChaosPlan(1, []string{"n"}, 2, 10, 5, 50)
	if err := p.Validate(); err != nil {
		t.Fatalf("clamped plan should validate: %v", err)
	}
	for i := 0; i+1 < len(p.Events); i += 2 {
		crash, recover := p.Events[i], p.Events[i+1]
		if d := recover.At - crash.At; d >= 5 {
			t.Errorf("downtime %d not clamped below spacing 5", d)
		}
	}
}

func TestPlanValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"unsorted", Plan{Events: []Event{
			{Action: Crash, Node: "n", At: 5},
			{Action: Recover, Node: "n", At: 3},
		}}},
		{"crash while down", Plan{Events: []Event{
			{Action: Crash, Node: "n", At: 1},
			{Action: Crash, Node: "n", At: 2},
		}}},
		{"recover without crash", Plan{Events: []Event{
			{Action: Recover, Node: "n", At: 1},
		}}},
		{"never recovers", Plan{Events: []Event{
			{Action: Crash, Node: "n", At: 1},
		}}},
		{"nameless event", Plan{Events: []Event{
			{Action: Crash, At: 1},
		}}},
		{"negative link params", Plan{Links: []LinkFault{{DropEvery: -1}}}},
		{"bad fail rate", Plan{StepFailRate: 1.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.plan.Validate(); err == nil {
				t.Errorf("Validate accepted %q", tc.name)
			}
		})
	}
}

// recordingHooks captures HaltNode/RestartNode calls.
type recordingHooks struct {
	mu    sync.Mutex
	calls []string
}

func (h *recordingHooks) HaltNode(n string) {
	h.mu.Lock()
	h.calls = append(h.calls, "halt:"+n)
	h.mu.Unlock()
}

func (h *recordingHooks) RestartNode(n string) {
	h.mu.Lock()
	h.calls = append(h.calls, "restart:"+n)
	h.mu.Unlock()
}

func (h *recordingHooks) list() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.calls...)
}

func recvOne(t *testing.T, ep *transport.Endpoint) transport.Message {
	t.Helper()
	select {
	case m := <-ep.Inbox():
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return transport.Message{}
	}
}

func TestInjectorAppliesSchedule(t *testing.T) {
	col := metrics.NewCollector()
	net := transport.NewNetwork(transport.NetworkConfig{Collector: col})
	defer net.Close()
	net.MustRegister("a")
	b := net.MustRegister("b")

	plan := Plan{Seed: 1, Events: []Event{
		{Action: Crash, Node: "b", At: 2},
		{Action: Recover, Node: "b", At: 4},
	}}
	in, err := NewInjector(plan, col)
	if err != nil {
		t.Fatal(err)
	}
	hooks := &recordingHooks{}
	in.SetHooks(hooks)
	in.Attach(net)
	defer in.Stop()

	for i := 0; i < 5; i++ {
		if err := net.Send(transport.Message{From: "a", To: "b", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if m := recvOne(t, b); m.Payload.(int) != i {
			t.Fatalf("out of order after crash cycle: got %v at %d", m.Payload, i)
		}
	}
	applied := in.Applied()
	if len(applied) != 2 {
		t.Fatalf("applied %d events, want 2: %v", len(applied), applied)
	}
	if applied[0].Action != Crash || applied[1].Action != Recover {
		t.Errorf("applied order = %v", applied)
	}
	if applied[0].Forced || applied[1].Forced {
		t.Errorf("on-schedule events marked forced: %v", applied)
	}
	if col.Crashes() != 1 || col.Recoveries() != 1 {
		t.Errorf("crashes=%d recoveries=%d, want 1/1", col.Crashes(), col.Recoveries())
	}
	want := []string{"halt:b", "restart:b"}
	if got := hooks.list(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("hooks = %v, want %v", got, want)
	}
}

func TestInjectorLinkDropChargesRetransmits(t *testing.T) {
	col := metrics.NewCollector()
	net := transport.NewNetwork(transport.NetworkConfig{Collector: col})
	defer net.Close()
	net.MustRegister("a")
	b := net.MustRegister("b")

	in, err := NewInjector(Plan{Links: []LinkFault{{From: "a", To: "b", DropEvery: 2, Retransmits: 1}}}, col)
	if err != nil {
		t.Fatal(err)
	}
	in.Attach(net)
	defer in.Stop()

	for i := 0; i < 4; i++ {
		if err := net.Send(transport.Message{From: "a", To: "b", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		recvOne(t, b) // drops are retransmissions, not losses
	}
	if got := col.Retransmits(); got != 2 {
		t.Errorf("retransmits = %d, want 2 (every 2nd of 4 messages)", got)
	}
}

// TestInjectorStallBackstop crashes the only receiver with a recovery
// trigger far beyond the traffic, so the network stalls with all in-flight
// messages parked; the backstop must force the recovery out of schedule.
func TestInjectorStallBackstop(t *testing.T) {
	col := metrics.NewCollector()
	net := transport.NewNetwork(transport.NetworkConfig{Collector: col})
	defer net.Close()
	net.MustRegister("a")
	b := net.MustRegister("b")

	plan := Plan{Events: []Event{
		{Action: Crash, Node: "b", At: 1},
		{Action: Recover, Node: "b", At: 1 << 40},
	}}
	in, err := NewInjector(plan, col)
	if err != nil {
		t.Fatal(err)
	}
	in.Attach(net)
	defer in.Stop()

	if err := net.Send(transport.Message{From: "a", To: "b", Payload: 0}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b) // arrives only after the forced recovery

	deadline := time.Now().Add(2 * time.Second)
	for {
		applied := in.Applied()
		if len(applied) == 2 {
			if !applied[1].Forced {
				t.Errorf("stall recovery not marked forced: %v", applied)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backstop never fired; applied = %v", applied)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWrapFlakyFailsFirstAttemptOnly(t *testing.T) {
	reg := model.NewRegistry()
	calls := 0
	reg.Register("p", func(*model.ProgramContext) (map[string]expr.Value, error) {
		calls++
		return map[string]expr.Value{"O1": expr.Num(1)}, nil
	})
	wrapped := WrapFlaky(reg, 3, 1.0) // rate 1: every step's first attempt fails
	p, ok := wrapped.Lookup("p")
	if !ok {
		t.Fatal("wrapped registry lost the program")
	}
	ctx := &model.ProgramContext{Workflow: "W", Instance: 1, Step: "S", Mode: model.ModeExecute, Attempt: 1}
	if _, err := p(ctx); err == nil {
		t.Error("first attempt should fail at rate 1")
	}
	if calls != 0 {
		t.Error("inner program reached despite injected failure")
	}
	ctx.Attempt = 2
	if _, err := p(ctx); err != nil {
		t.Errorf("retry failed: %v", err)
	}
	comp := &model.ProgramContext{Workflow: "W", Instance: 1, Step: "S", Mode: model.ModeCompensate, Attempt: 1}
	if _, err := p(comp); err != nil {
		t.Errorf("compensation must never be made to fail: %v", err)
	}
	if same := WrapFlaky(reg, 3, 0); same != reg {
		t.Error("rate 0 should return the registry unchanged")
	}
}
