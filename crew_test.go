package crew_test

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"crew"
	"crew/internal/analysis"
)

const waitTimeout = 5 * time.Second

// orderLAWS is a LAWS spec exercising branching, OCR and coordination.
const orderLAWS = `
workflow Order {
  inputs Qty
  step Reserve {
    program "reserve"
    compensation "unreserve"
    inputs WF.Qty
    outputs O1
    reexec when "WF.Qty > prev.WF.Qty"
  }
  step Bill { program "bill" inputs Reserve.O1 outputs O1 }
  step Ship { program "ship" inputs Bill.O1 }
  Reserve -> Bill
  Bill -> Ship
  on failure of Bill rollback to Reserve attempts 3
}
`

func registryFor(t *testing.T, rec *recorder) *crew.Registry {
	t.Helper()
	reg := crew.NewRegistry()
	reg.Register("reserve", func(ctx *crew.ProgramContext) (map[string]crew.Value, error) {
		rec.add("reserve")
		q, _ := ctx.Inputs["WF.Qty"].AsNum()
		return map[string]crew.Value{"O1": crew.Num(q)}, nil
	})
	reg.Register("unreserve", func(*crew.ProgramContext) (map[string]crew.Value, error) {
		rec.add("unreserve")
		return nil, nil
	})
	reg.Register("bill", crew.FailNTimes(1, func(*crew.ProgramContext) (map[string]crew.Value, error) {
		rec.add("bill")
		return map[string]crew.Value{"O1": crew.Num(1)}, nil
	}))
	reg.Register("ship", func(*crew.ProgramContext) (map[string]crew.Value, error) {
		rec.add("ship")
		return nil, nil
	})
	return reg
}

type recorder struct {
	mu sync.Mutex
	ev []string
}

func (r *recorder) add(s string) {
	r.mu.Lock()
	r.ev = append(r.ev, s)
	r.mu.Unlock()
}

func (r *recorder) count(s string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.ev {
		if e == s {
			n++
		}
	}
	return n
}

func TestPublicAPIAcrossArchitectures(t *testing.T) {
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			lib, err := crew.CompileLAWS(orderLAWS)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recorder{}
			sys, err := crew.NewSystem(crew.Config{
				Library:      lib,
				Programs:     registryFor(t, rec),
				Architecture: arch,
				Agents:       []string{"a1", "a2", "a3"},
				Logf:         t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			id, st, err := sys.Run("Order", map[string]crew.Value{"Qty": crew.Num(7)}, waitTimeout)
			if err != nil {
				t.Fatal(err)
			}
			if st != crew.Committed {
				t.Fatalf("status = %v", st)
			}
			// Bill failed once; Reserve was reused (not re-executed, not
			// compensated) because the quantity did not grow — the OCR path.
			if rec.count("reserve") != 1 || rec.count("unreserve") != 0 {
				t.Errorf("OCR violated: reserve=%d unreserve=%d", rec.count("reserve"), rec.count("unreserve"))
			}
			if rec.count("ship") != 1 {
				t.Errorf("ship = %d", rec.count("ship"))
			}
			snap, ok := sys.Snapshot("Order", id)
			if !ok || !snap.Data["Reserve.O1"].Equal(crew.Num(7)) {
				t.Errorf("snapshot = (%v, %v)", snap, ok)
			}
			if got, ok := sys.Status("Order", id); !ok || got != crew.Committed {
				t.Errorf("Status = (%v, %v)", got, ok)
			}
			if sys.Collector().Messages(crew.MechNormal) == 0 {
				t.Error("no messages measured")
			}
		})
	}
}

func TestFrontEndOverPublicAPI(t *testing.T) {
	lib := crew.MustCompileLAWS(orderLAWS)
	rec := &recorder{}
	sys, err := crew.NewSystem(crew.Config{
		Library:  lib,
		Programs: registryFor(t, rec),
		Agents:   []string{"a1"},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fe := crew.NewFrontEnd(sys)
	if err := fe.Submit("po-1", "Order", map[string]crew.Value{"Qty": crew.Num(2)}); err != nil {
		t.Fatal(err)
	}
	st, err := fe.Wait("po-1", waitTimeout)
	if err != nil || st != crew.Committed {
		t.Fatalf("front-end wait = (%v, %v)", st, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := crew.NewSystem(crew.Config{}); err == nil || !strings.Contains(err.Error(), "Library") {
		t.Errorf("missing library = %v", err)
	}
	lib := crew.NewLibrary()
	lib.Add(crew.NewSchema("W").Step("A", "p").MustBuild())
	if _, err := crew.NewSystem(crew.Config{Library: lib}); err == nil || !strings.Contains(err.Error(), "Programs") {
		t.Errorf("missing programs = %v", err)
	}
	reg := crew.NewRegistry()
	reg.Register("p", crew.NopProgram())
	if _, err := crew.NewSystem(crew.Config{Library: lib, Programs: reg, Architecture: crew.Architecture(9)}); err == nil {
		t.Error("unknown architecture should fail")
	}
}

func TestArchitectureString(t *testing.T) {
	if crew.Central.String() != "central" || crew.Parallel.String() != "parallel" ||
		crew.Distributed.String() != "distributed" {
		t.Error("architecture names wrong")
	}
	if crew.Architecture(9).String() != "Architecture(9)" {
		t.Error("unknown architecture name wrong")
	}
	// NewSystem converts the public value to the internal one by number.
	for i, a := range analysis.Architectures {
		if !strings.EqualFold(crew.Architecture(a).String(), a.String()) || int(a) != i {
			t.Errorf("crew.Architecture(%d) is %v, internally %v", int(a), crew.Architecture(a), a)
		}
	}
}

func TestBuilderAPIWithoutLAWS(t *testing.T) {
	lib := crew.NewLibrary()
	lib.Add(crew.NewSchema("Mini", "I1").
		Step("A", "pa", crew.WithOutputs("O1"), crew.WithCompensation("ca")).
		Step("B", "pb", crew.WithInputs("A.O1"), crew.WithJoin(crew.JoinAll)).
		Seq("A", "B").
		MustBuild())
	reg := crew.NewRegistry()
	reg.Register("pa", crew.ConstProgram(map[string]crew.Value{"O1": crew.Num(1)}))
	reg.Register("pb", crew.NopProgram())
	reg.Register("ca", crew.NopProgram())
	sys, err := crew.NewSystem(crew.Config{Library: lib, Programs: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	_, st, err := sys.Run("Mini", map[string]crew.Value{"I1": crew.Num(5)}, waitTimeout)
	if err != nil || st != crew.Committed {
		t.Fatalf("run = (%v, %v)", st, err)
	}
	if crew.DefaultParams().S != 15 {
		t.Error("DefaultParams wrong")
	}
}

// goroutineDump is every goroutine's stack, as the runtime prints them.
func goroutineDump(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestNoPumpGoroutineInProcess: in an in-process deployment of any
// architecture every node is an actor that drains its own mailbox, so the
// transport runs no goroutine: neither a pump nor an Inbox feeder appears in a
// goroutine dump taken while the deployment is live. Every actor's loop sleeps
// on one channel, its wake token: idle, it is parked in a channel receive,
// never in a select. Over a socket backend each node does have a pump, which
// is also what shows the dump would name one.
func TestNoPumpGoroutineInProcess(t *testing.T) {
	const pump, feeder, loop = "transport.(*node).pump", "transport.(*Endpoint).feed", "actor.(*Actor).loop"
	// parked reports the state of every goroutine running an actor's loop,
	// retrying while one is between two parks.
	parked := func(t *testing.T) []string {
		var states []string
		for try := 0; try < 100; try++ {
			states = states[:0]
			settled := true
			for _, g := range strings.Split(goroutineDump(t), "\n\n") {
				if !strings.Contains(g, loop) {
					continue
				}
				state, _, _ := strings.Cut(g[strings.Index(g, "[")+1:], "]")
				state, _, _ = strings.Cut(state, ",") // "chan receive, 2 minutes"
				states = append(states, state)
				settled = settled && (state == "chan receive" || state == "select")
			}
			if settled {
				return states
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("an actor's loop never parked: %v", states)
		return nil
	}
	deploy := func(t *testing.T, arch crew.Architecture, tc crew.TransportConfig) string {
		sys, err := crew.NewSystem(crew.Config{
			Library:      crew.MustCompileLAWS(orderLAWS),
			Programs:     registryFor(t, &recorder{}),
			Architecture: arch,
			Agents:       []string{"a1", "a2", "a3"},
			Transport:    tc,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if _, st, err := sys.Run("Order", map[string]crew.Value{"Qty": crew.Num(7)}, waitTimeout); err != nil || st != crew.Committed {
			t.Fatalf("run = (%v, %v)", st, err)
		}
		states := parked(t)
		if len(states) == 0 {
			t.Errorf("%v: no goroutine runs %s: the check looks for the wrong frame", arch, loop)
		}
		for _, state := range states {
			if state != "chan receive" {
				t.Errorf("%v: an actor's loop is parked in [%s], want [chan receive]: it sleeps on more than its wake token", arch, state)
			}
		}
		return goroutineDump(t)
	}
	for _, arch := range []crew.Architecture{crew.Central, crew.Parallel, crew.Distributed} {
		dump := deploy(t, arch, crew.TransportConfig{})
		for _, frame := range []string{pump, feeder} {
			if strings.Contains(dump, frame) {
				t.Errorf("%v, in process: a goroutine runs %s", arch, frame)
			}
		}
	}
	if dump := deploy(t, crew.Central, crew.TransportConfig{Backend: "unix"}); !strings.Contains(dump, pump) {
		t.Errorf("over unix sockets no goroutine runs %s: the in-process check looks for the wrong frame", pump)
	}
}
