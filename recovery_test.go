package crew_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"crew"
	"crew/internal/metrics"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// TestMain checks every instance row the tests save against a walk of the
// instance without the bytes it kept from its last save (wfdb.CheckSaves):
// a save that took a step record's old bytes after the record changed, on
// any architecture and across restarts, fails the run.
func TestMain(m *testing.M) {
	var bad atomic.Int64
	wfdb.CheckSaves(func(key string, saved, fresh []byte) {
		if !bytes.Equal(saved, fresh) && bad.Add(1) == 1 {
			fmt.Fprintf(os.Stderr, "saved row of %s differs from a fresh walk\n saved %x\n fresh %x\n", key, saved, fresh)
		}
	})
	code := m.Run()
	if n := bad.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d saved rows differ from a fresh walk of their instance\n", n)
		code = 1
	}
	os.Exit(code)
}

// nodeFaults is the crash surface every architecture's System exposes (the
// fault injector drives it; these tests drive it from inside step programs to
// pin the crash to an exact point of the failure-handling protocol).
type nodeFaults interface {
	HaltNode(name string)
	RestartNode(name string)
}

// archCase describes one architecture's deployment knobs for the recovery
// tables: which scheduler nodes to crash and how to give them databases.
type archCase struct {
	arch  crew.Architecture
	nodes []string
	conf  func(*crew.Config)
}

func recoveryCases() []archCase {
	return []archCase{
		{crew.Central, []string{"engine"}, func(c *crew.Config) {
			c.DB = crew.NewMemoryDB()
		}},
		{crew.Parallel, []string{"engine0", "engine1"}, func(c *crew.Config) {
			c.Engines = 2
			c.DBs = []*crew.DB{crew.NewMemoryDB(), crew.NewMemoryDB()}
		}},
		// In distributed control every agent already replicates the state of
		// the instances it touches, so a crash parks only its transport queue.
		{crew.Distributed, []string{"a1"}, func(c *crew.Config) {}},
	}
}

// crashNodes simulates a crash/restart cycle of the scheduler nodes: volatile
// state is wiped (central, parallel) or inbound traffic parked (distributed),
// then recovery rebuilds from the workflow database and drains the queue.
func crashNodes(t *testing.T, sys crew.System, nodes []string) {
	t.Helper()
	nf, ok := sys.(nodeFaults)
	if !ok {
		t.Fatalf("%T does not expose HaltNode/RestartNode", sys)
	}
	for _, n := range nodes {
		nf.HaltNode(n)
	}
	for _, n := range nodes {
		nf.RestartNode(n)
	}
}

// TestCrashDuringRollback crashes the scheduling nodes while an abort's
// compensation is in flight, for every architecture. The recovery contract:
// the instance still reaches its terminal status, and the compensation (run
// exactly-once by the StepCompensating write-ahead mark) is not re-requested
// by the rebuilt scheduler.
func TestCrashDuringRollback(t *testing.T) {
	for _, tc := range recoveryCases() {
		t.Run(tc.arch.String(), func(t *testing.T) {
			rec := &recorder{}
			var sys crew.System
			reg := crew.NewRegistry()
			reg.Register("pa", crew.ConstProgram(map[string]crew.Value{"O1": crew.Num(7)}))
			reg.Register("ca", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				if rec.count("ca") == 0 {
					crashNodes(t, sys, tc.nodes)
				}
				rec.add("ca")
				return nil, nil
			})
			reg.Register("pb", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				rec.add("b")
				return nil, crew.Fail("permanent failure")
			})
			lib := crew.NewLibrary()
			lib.Add(crew.NewSchema("R").
				Step("A", "pa", crew.WithOutputs("O1"), crew.WithCompensation("ca"), crew.WithAgents("a1")).
				Step("B", "pb", crew.WithInputs("A.O1"), crew.WithAgents("a2")).
				Seq("A", "B").
				OnFailure("B", "A", 2).
				MustBuild())
			cfg := crew.Config{
				Library:      lib,
				Programs:     reg,
				Architecture: tc.arch,
				Agents:       []string{"a1", "a2"},
				Logf:         t.Logf,
			}
			tc.conf(&cfg)
			applyWireEnv(t, &cfg)
			s, err := crew.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sys = s

			_, st, err := s.Run("R", nil, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st != crew.Aborted {
				t.Fatalf("status = %v, want aborted", st)
			}
			if got := rec.count("ca"); got != 1 {
				t.Errorf("compensation of A ran %d times, want exactly once", got)
			}
			if got := rec.count("b"); got < 1 {
				t.Errorf("B never executed")
			}
		})
	}
}

// TestCrashDuringOCR crashes the scheduling nodes at the exact point a step
// failure is reported, so recovery happens while the failure-handling and OCR
// machinery decides what to roll back. The opportunistic outcome must survive
// the crash: A's unchanged results are reused — neither compensated nor
// re-executed — and the instance commits.
func TestCrashDuringOCR(t *testing.T) {
	for _, tc := range recoveryCases() {
		t.Run(tc.arch.String(), func(t *testing.T) {
			rec := &recorder{}
			var sys crew.System
			reg := crew.NewRegistry()
			reg.Register("pa", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				rec.add("a")
				return map[string]crew.Value{"O1": crew.Num(7)}, nil
			})
			reg.Register("ca", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				rec.add("ca")
				return nil, nil
			})
			reg.Register("pb", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				if rec.count("bfail") == 0 {
					rec.add("bfail")
					crashNodes(t, sys, tc.nodes)
					return nil, crew.Fail("transient failure")
				}
				rec.add("b")
				return nil, nil
			})
			reg.Register("pc", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				rec.add("c")
				return nil, nil
			})
			lib := crew.NewLibrary()
			lib.Add(crew.NewSchema("O").
				Step("A", "pa", crew.WithOutputs("O1"), crew.WithCompensation("ca"), crew.WithAgents("a1")).
				Step("B", "pb", crew.WithInputs("A.O1"), crew.WithAgents("a2")).
				Step("C", "pc", crew.WithAgents("a1")).
				Seq("A", "B", "C").
				OnFailure("B", "A", 3).
				MustBuild())
			cfg := crew.Config{
				Library:      lib,
				Programs:     reg,
				Architecture: tc.arch,
				Agents:       []string{"a1", "a2"},
				Logf:         t.Logf,
			}
			tc.conf(&cfg)
			applyWireEnv(t, &cfg)
			s, err := crew.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sys = s

			_, st, err := s.Run("O", nil, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st != crew.Committed {
				t.Fatalf("status = %v, want committed", st)
			}
			if got := rec.count("a"); got != 1 {
				t.Errorf("A executed %d times, want 1 (OCR reuse)", got)
			}
			if got := rec.count("ca"); got != 0 {
				t.Errorf("A compensated %d times despite reuse", got)
			}
			if got := rec.count("b"); got != 1 {
				t.Errorf("B succeeded %d times, want 1", got)
			}
			if got := rec.count("c"); got != 1 {
				t.Errorf("C executed %d times, want 1", got)
			}
		})
	}
}

// TestCrashMidBatchParksWholeEnvelope pins the transport-level recovery
// contract for batched sends: a dispatch burst coalesced into one envelope is
// ONE physical message, so a crash that lands mid-batch parks and replays the
// envelope atomically — the logical messages inside are never split across
// the crash and never double-delivered.
func TestCrashMidBatchParksWholeEnvelope(t *testing.T) {
	col := metrics.NewCollector()
	net := transport.NewNetwork(transport.NetworkConfig{Collector: col})
	defer net.Close()
	ep := net.MustRegister("agent")
	ep.ManualAck()
	h, err := net.Handle("agent")
	if err != nil {
		t.Fatal(err)
	}

	// The destination crashes before the burst lands.
	net.Crash("agent")
	var b transport.Batcher
	const logical = 3
	for i := 0; i < logical; i++ {
		b.Add(h, transport.Message{From: "coord", To: "agent", Mechanism: metrics.Normal, Kind: "StepExecute", Payload: i})
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	// The whole burst parks as a single physical message...
	if q := net.QueuedFor("agent"); q != 1 {
		t.Fatalf("QueuedFor = %d physical messages, want 1 (whole envelope parked)", q)
	}
	if p := net.Parked(); p != 1 {
		t.Fatalf("Parked = %d, want 1", p)
	}
	// ...while the metrics collector already counted every logical message
	// (the paper's tables count logical traffic, crash or not).
	if got := col.Messages(metrics.Normal); got != logical {
		t.Fatalf("collector counted %d messages, want %d", got, logical)
	}

	// Recovery replays the envelope: each logical message exactly once, in
	// send order.
	net.Recover("agent")
	var m transport.Message
	select {
	case m = <-ep.Inbox():
	case <-time.After(5 * time.Second):
		t.Fatal("envelope not replayed after recovery")
	}
	env, ok := m.Payload.(*transport.Envelope)
	if !ok {
		t.Fatalf("payload = %T, want *transport.Envelope", m.Payload)
	}
	if len(env.Msgs) != logical {
		t.Fatalf("envelope carries %d logical messages, want %d", len(env.Msgs), logical)
	}
	for i, lm := range env.Msgs {
		if lm.Payload != i {
			t.Errorf("logical message %d payload = %v, want %d", i, lm.Payload, i)
		}
	}
	env.Release()
	ep.Ack()

	// Nothing left to replay: the network drains and no second copy of any
	// logical message arrives.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := net.Quiesce(ctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	select {
	case m := <-ep.Inbox():
		t.Fatalf("double delivery after replay: %+v", m)
	default:
	}
	if got := col.Messages(metrics.Normal); got != logical {
		t.Fatalf("collector counted %d messages after replay, want %d (replay is not re-accepted)", got, logical)
	}
}

// TestCrashMidBatchUnderLoad drives the same guarantee end to end: a node
// crash/restart cycle in the middle of a workflow run with batching active
// must not duplicate or lose step executions in any architecture.
func TestCrashMidBatchUnderLoad(t *testing.T) {
	for _, tc := range recoveryCases() {
		t.Run(tc.arch.String(), func(t *testing.T) {
			rec := &recorder{}
			var sys crew.System
			reg := crew.NewRegistry()
			reg.Register("pa", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				rec.add("a")
				return map[string]crew.Value{"O1": crew.Num(1)}, nil
			})
			reg.Register("pb", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				rec.add("b")
				// Crash the scheduler nodes while the completion (and the
				// successor dispatch burst it triggers) is in flight.
				if rec.count("b") == 1 {
					crashNodes(t, sys, tc.nodes)
				}
				return map[string]crew.Value{"O1": crew.Num(2)}, nil
			})
			reg.Register("pc", func(*crew.ProgramContext) (map[string]crew.Value, error) {
				rec.add("c")
				return map[string]crew.Value{"O1": crew.Num(3)}, nil
			})
			lib := crew.NewLibrary()
			lib.Add(crew.NewSchema("M").
				Step("A", "pa", crew.WithOutputs("O1"), crew.WithAgents("a1")).
				Step("B", "pb", crew.WithOutputs("O1"), crew.WithAgents("a2")).
				Step("C", "pc", crew.WithOutputs("O1"), crew.WithAgents("a1")).
				Seq("A", "B", "C").
				MustBuild())
			cfg := crew.Config{
				Library:      lib,
				Programs:     reg,
				Architecture: tc.arch,
				Agents:       []string{"a1", "a2"},
				Logf:         t.Logf,
			}
			tc.conf(&cfg)
			applyWireEnv(t, &cfg)
			s, err := crew.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sys = s

			_, st, err := s.Run("M", nil, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st != crew.Committed {
				t.Fatalf("status = %v, want committed", st)
			}
			for _, step := range []string{"a", "b", "c"} {
				if got := rec.count(step); got != 1 {
					t.Errorf("%s executed %d times, want exactly 1", step, got)
				}
			}
		})
	}
}
