package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"crew/internal/distributed"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/ocr"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// cmdFig4 demonstrates the paper's Figure 4: the message protocol that
// establishes a relative order between two concurrent workflows using the
// AddRule / AddPrecondition / AddEvent workflow interfaces. It runs two
// ordered two-step workflows on a distributed deployment with a transport
// trace and prints the coordination messages in order.
func cmdFig4() error {
	reg := model.NewRegistry()
	for _, p := range []string{"pa1", "pb1", "pa2", "pb2"} {
		reg.Register(p, model.NopProgram())
	}
	wf1 := model.NewSchema("WF1").
		Step("S12", "pa1", model.WithAgents("a2")).
		Step("S14", "pb1", model.WithAgents("a2")).
		Seq("S12", "S14").MustBuild()
	wf2 := model.NewSchema("WF2").
		Step("S23", "pa2", model.WithAgents("a3")).
		Step("S25", "pb2", model.WithAgents("a3")).
		Seq("S23", "S25").MustBuild()
	lib := model.NewLibrary()
	lib.Add(wf1)
	lib.Add(wf2)
	lib.AddCoord(model.CoordSpec{
		Kind: model.RelativeOrder,
		Name: "orders",
		Pairs: []model.ConflictPair{
			{A: model.StepRef{Workflow: "WF1", Step: "S12"}, B: model.StepRef{Workflow: "WF2", Step: "S23"}},
			{A: model.StepRef{Workflow: "WF1", Step: "S14"}, B: model.StepRef{Workflow: "WF2", Step: "S25"}},
		},
	})

	col := metrics.NewCollector()
	sys, err := distributed.NewSystem(distributed.SystemConfig{
		Library:   lib,
		Programs:  reg,
		Collector: col,
		Agents:    []string{"a1", "a2", "a3"},
		Logf:      func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	var mu sync.Mutex
	var trace []string
	sys.Network().Trace(func(m transport.Message) {
		if m.Mechanism != metrics.Coordination {
			return
		}
		mu.Lock()
		trace = append(trace, fmt.Sprintf("%-9s -> %-9s %s", m.From, m.To, m.Kind))
		mu.Unlock()
	})

	id1, err := sys.Start("WF1", nil)
	if err != nil {
		return err
	}
	if _, err := sys.Wait("WF1", id1, 10*time.Second); err != nil {
		return err
	}
	id2, err := sys.Start("WF2", nil)
	if err != nil {
		return err
	}
	if _, err := sys.Wait("WF2", id2, 10*time.Second); err != nil {
		return err
	}

	fmt.Println("Figure 4: Enforcing Relative Order — protocol trace")
	fmt.Println("  WF1.1 executes the first conflicting pair member first (leading);")
	fmt.Println("  WF2.1 enrolls behind it (lagging) and waits for AddEvent releases.")
	fmt.Println()
	mu.Lock()
	defer mu.Unlock()
	for _, line := range trace {
		fmt.Println("  " + line)
	}
	fmt.Printf("\n  coordination messages: %d\n", col.Messages(metrics.Coordination))
	return nil
}

// cmdFig5 demonstrates the paper's Figure 5: the decisions of the
// opportunistic compensation and re-execution algorithm across the scenarios
// the paper distinguishes.
func cmdFig5() error {
	fmt.Println("Figure 5: Opportunistic Compensation and Re-execution — decisions")
	type scenario struct {
		name   string
		step   *model.Step
		rec    *wfdb.StepRecord
		inputs map[string]expr.Value
		data   expr.MapEnv
	}
	baseRec := &wfdb.StepRecord{
		Status:    wfdb.StepDone,
		HasResult: true,
		Attempts:  1,
		Inputs:    map[string]expr.Value{"WF.Qty": expr.Num(10)},
		Outputs:   map[string]expr.Value{"O1": expr.Num(10)},
	}
	scenarios := []scenario{
		{
			name:   "first execution (no previous results)",
			step:   &model.Step{ID: "S2", Program: "p", Compensation: "c"},
			rec:    nil,
			inputs: map[string]expr.Value{"WF.Qty": expr.Num(10)},
		},
		{
			name:   "inputs unchanged: previous results reused",
			step:   &model.Step{ID: "S2", Program: "p", Compensation: "c"},
			rec:    baseRec,
			inputs: map[string]expr.Value{"WF.Qty": expr.Num(10)},
		},
		{
			name:   "inputs changed: complete compensation + re-execution",
			step:   &model.Step{ID: "S2", Program: "p", Compensation: "c"},
			rec:    baseRec,
			inputs: map[string]expr.Value{"WF.Qty": expr.Num(12)},
		},
		{
			name:   "inputs changed, incremental step: partial comp + incremental re-exec",
			step:   &model.Step{ID: "S2", Program: "p", Compensation: "c", Incremental: true},
			rec:    baseRec,
			inputs: map[string]expr.Value{"WF.Qty": expr.Num(12)},
		},
		{
			name:   "condition says previous reservation still covers the order",
			step:   &model.Step{ID: "S2", Program: "p", Compensation: "c", ReexecCond: "WF.Qty > prev.WF.Qty"},
			rec:    baseRec,
			inputs: map[string]expr.Value{"WF.Qty": expr.Num(7)},
			data:   expr.MapEnv{"WF.Qty": expr.Num(7)},
		},
	}
	for _, sc := range scenarios {
		d, err := nav.Decide(false, nil, sc.step, sc.rec, sc.inputs, sc.data)
		note := ""
		if err != nil {
			note = " (" + err.Error() + ")"
		}
		fmt.Printf("  %-68s -> %s%s\n", sc.name, d, note)
	}
	fmt.Println("\n  cost model (exec=100, comp=50 load units):")
	for _, d := range []ocr.Decision{ocr.Reuse, ocr.IncrementalCR, ocr.CompleteCR} {
		fmt.Printf("  %-42s %4d units\n", d, ocr.CostUnits(d, 100, 50))
	}
	return nil
}

// cmdFig7 prints the paper's Figure 7 sample workflow packet.
func cmdFig7() error {
	p := &distributed.Packet{
		Workflow:   "WF2",
		Instance:   4,
		TargetStep: "S3",
		Data: map[string]expr.Value{
			"WF.I1": expr.Num(90),
			"WF.I2": expr.Str("Blower"),
			"S1.O1": expr.Num(20),
			"S1.O2": expr.Str("Gasket"),
			"S2.O1": expr.Num(45),
			"S2.O2": expr.Num(400),
		},
		Events:  []string{"WF.start", "S1.done", "S2.done"},
		Leading: []string{"WF3.15", "WF4.13"},
		Lagging: []string{"WF5.12"},
	}
	fmt.Println("Figure 7: Sample Workflow Packet in Distributed Control")
	fmt.Println()
	fmt.Print(indent(p.String(), "  "))
	return nil
}

func indent(s, prefix string) string {
	lines := []string{}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return false }) // keep order
	out := ""
	for _, l := range lines {
		if l == "" {
			continue
		}
		out += prefix + l + "\n"
	}
	return out
}
