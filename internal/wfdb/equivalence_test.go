package wfdb_test

// Codec equivalence: the binary row must carry exactly what the JSON row it
// replaced carried. refJSONLoad below is that JSON path — the serialized
// form and the load-time fix-ups of the parent commit — kept here as the
// reference. Every instance the three architectures produce under the mixed
// workload (failures, input changes, aborts, coordination, plus a nested
// workflow), live and archived, is pushed through both and compared.

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"crew/internal/analysis"
	"crew/internal/deploy"
	"crew/internal/distributed"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

type refEvent struct {
	Name  string `json:"n"`
	Count int    `json:"c"`
	Valid bool   `json:"v"`
}

type refStep struct {
	Status    wfdb.StepStatus       `json:"status"`
	Agent     string                `json:"agent,omitempty"`
	Attempts  int                   `json:"attempts"`
	Inputs    map[string]expr.Value `json:"inputs,omitempty"`
	Outputs   map[string]expr.Value `json:"outputs,omitempty"`
	HasResult bool                  `json:"hasResult,omitempty"`
	CompMode  model.ExecMode        `json:"compMode,omitempty"`
}

type refParent struct {
	Workflow string       `json:"workflow"`
	ID       int          `json:"id"`
	Step     model.StepID `json:"step"`
}

type refInstance struct {
	Workflow  string                    `json:"workflow"`
	ID        int                       `json:"id"`
	Status    wfdb.Status               `json:"status"`
	Data      map[string]expr.Value     `json:"data"`
	Events    []refEvent                `json:"events"`
	Steps     map[model.StepID]*refStep `json:"steps"`
	ExecOrder []model.StepID            `json:"execOrder"`
	Aborting  bool                      `json:"aborting,omitempty"`
	Parent    *refParent                `json:"parent,omitempty"`
	Epoch     int                       `json:"epoch,omitempty"`
	Coord     string                    `json:"coordinator,omitempty"`
	NotifyTo  string                    `json:"notifyTo,omitempty"`
}

// view is an instance as a comparable value: the exported fields, with the
// event table as its sorted entry list.
type view struct {
	Workflow    string
	ID          int
	Status      wfdb.Status
	Data        map[string]expr.Value
	Events      []event.Exported
	Steps       map[model.StepID]wfdb.StepRecord
	ExecOrder   []model.StepID
	Aborting    bool
	Parent      *wfdb.ParentRef
	Epoch       int
	Coordinator string
	NotifyTo    string
}

func viewOf(ins *wfdb.Instance) view {
	v := view{
		Workflow: ins.Workflow, ID: ins.ID, Status: ins.Status, Data: ins.Data,
		Events: ins.Events.Export(), ExecOrder: ins.ExecOrder, Aborting: ins.Aborting,
		Parent: ins.Parent, Epoch: ins.Epoch, Coordinator: ins.Coordinator, NotifyTo: ins.NotifyTo,
	}
	if ins.Steps != nil {
		v.Steps = make(map[model.StepID]wfdb.StepRecord, len(ins.Steps))
		for id, r := range ins.Steps {
			v.Steps[id] = *r
		}
	}
	return v
}

// refJSONLoad is what the parent commit's SaveInstance + LoadInstance made of
// an instance, as a view.
func refJSONLoad(t *testing.T, ins *wfdb.Instance) view {
	t.Helper()
	j := refInstance{
		Workflow: ins.Workflow, ID: ins.ID, Status: ins.Status, Data: ins.Data,
		ExecOrder: ins.ExecOrder, Aborting: ins.Aborting,
		Epoch: ins.Epoch, Coord: ins.Coordinator, NotifyTo: ins.NotifyTo,
	}
	j.Events = []refEvent{}
	for _, e := range ins.Events.Export() {
		j.Events = append(j.Events, refEvent{Name: e.Name, Count: e.Count, Valid: e.Valid})
	}
	if ins.Steps != nil {
		j.Steps = make(map[model.StepID]*refStep, len(ins.Steps))
		for id, r := range ins.Steps {
			j.Steps[id] = &refStep{Status: r.Status, Agent: r.Agent, Attempts: r.Attempts, Inputs: r.Inputs,
				Outputs: r.Outputs, HasResult: r.HasResult, CompMode: r.CompMode}
		}
	}
	if p := ins.Parent; p != nil {
		j.Parent = &refParent{Workflow: p.Workflow, ID: p.ID, Step: p.Step}
	}
	buf, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back refInstance
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	v := view{
		Workflow: back.Workflow, ID: back.ID, Status: back.Status, Data: back.Data,
		ExecOrder: back.ExecOrder, Aborting: back.Aborting,
		Epoch: back.Epoch, Coordinator: back.Coord, NotifyTo: back.NotifyTo,
		Events: []event.Exported{},
		Steps:  make(map[model.StepID]wfdb.StepRecord, len(back.Steps)),
	}
	if v.Data == nil { // fromJSON's fix-ups
		v.Data = make(map[string]expr.Value)
	}
	for _, e := range back.Events {
		v.Events = append(v.Events, event.Exported{Name: e.Name, Count: e.Count, Valid: e.Valid})
	}
	for id, r := range back.Steps {
		v.Steps[id] = wfdb.StepRecord{Status: r.Status, Agent: r.Agent, Attempts: r.Attempts, Inputs: r.Inputs,
			Outputs: r.Outputs, HasResult: r.HasResult, CompMode: r.CompMode}
	}
	if p := back.Parent; p != nil {
		v.Parent = &wfdb.ParentRef{Workflow: p.Workflow, ID: p.ID, Step: p.Step}
	}
	return v
}

// normalized folds the differences a load never preserved (an empty map or
// list against a nil one), for comparing a loaded instance with the live one
// it was saved from.
func normalized(v view) view {
	if len(v.ExecOrder) == 0 {
		v.ExecOrder = nil
	}
	steps := make(map[model.StepID]wfdb.StepRecord, len(v.Steps))
	for id, r := range v.Steps {
		if len(r.Inputs) == 0 {
			r.Inputs = nil
		}
		if len(r.Outputs) == 0 {
			r.Outputs = nil
		}
		steps[id] = r
	}
	v.Steps = steps
	return v
}

// checkCodec saves x as an instance row and as an archive row and compares
// what loads with x and with the JSON reference.
func checkCodec(t *testing.T, where string, x *wfdb.Instance) {
	t.Helper()
	db := wfdb.NewMemory()
	if err := db.SaveInstance(x); err != nil {
		t.Fatalf("%s %s: save: %v", where, x.Key(), err)
	}
	live, ok, err := db.LoadInstance(x.Workflow, x.ID)
	if err != nil || !ok {
		t.Fatalf("%s %s: load = (%v, %v)", where, x.Key(), ok, err)
	}
	if err := db.Archive(x); err != nil {
		t.Fatalf("%s %s: archive: %v", where, x.Key(), err)
	}
	archived, ok, err := db.LoadArchived(x.Workflow, x.ID)
	if err != nil || !ok {
		t.Fatalf("%s %s: load archived = (%v, %v)", where, x.Key(), ok, err)
	}
	ref := refJSONLoad(t, x)
	for name, y := range map[string]*wfdb.Instance{"instance row": live, "archive row": archived} {
		got := viewOf(y)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s %s: %s loads\n%+v\nthe JSON path loaded\n%+v", where, x.Key(), name, got, ref)
		}
		if want := normalized(viewOf(x)); !reflect.DeepEqual(normalized(got), want) {
			t.Fatalf("%s %s: %s loads\n%+v\nsaved from\n%+v", where, x.Key(), name, got, want)
		}
	}
}

// TestCodecMatchesJSONOnHandBuiltInstance pins the cases the workload rarely
// or never produces: every optional field set, nil against empty maps,
// invalidated events with counts, every value kind.
func TestCodecMatchesJSONOnHandBuiltInstance(t *testing.T) {
	ins := wfdb.NewInstance("Ord", 4, map[string]expr.Value{"I1": expr.Num(-90.5), "I2": expr.Str("Blöwer \"q\"")})
	ins.Data["b"], ins.Data["n"], ins.Data["zero"], ins.Data["empty"] = expr.Bool(false), expr.Null(), expr.Num(0), expr.Str("")
	ins.RecordExecuting("S1", "a1", map[string]expr.Value{}) // empty, not nil
	ins.RecordDone("S1", map[string]expr.Value{"O1": expr.Num(20), "O2": expr.Bool(true)})
	ins.RecordExecuting("S2", "a2", map[string]expr.Value{"S1.O1": expr.Num(20)})
	ins.RecordFailed("S2")
	ins.RecordCompensating("S1", model.ModePartialComp)
	ins.StepRec("S3") // pending, all zero
	for i := 0; i < 3; i++ {
		ins.Events.Post(event.DoneName("S1"))
	}
	ins.Events.Invalidate(event.DoneName("S1"))
	ins.Events.Post(event.ExternalName("WF3", 15, "S3.done"))
	ins.Parent = &wfdb.ParentRef{Workflow: "Parent", ID: 1, Step: "N1"}
	ins.Aborting, ins.Epoch, ins.Coordinator, ins.NotifyTo = true, 7, "agent03", "frontend"
	checkCodec(t, "hand-built", ins)

	bare := wfdb.NewInstance("Ord", 5, nil)
	bare.Status = wfdb.Committed
	checkCodec(t, "bare", bare)
}

func TestCodecMatchesJSONAcrossArchitectures(t *testing.T) {
	if testing.Short() {
		t.Skip("drives three deployments")
	}
	p := analysis.Default()
	p.C, p.S, p.E, p.Z, p.A, p.F, p.R, p.W = 3, 8, 3, 6, 2, 2, 3, 2
	p.ME, p.RO, p.RD = 1, 2, 1
	p.PF, p.PI, p.PA, p.PR = 0.15, 0.1, 0.1, 0.25
	const instances = 6
	quiet := func(string, ...any) {}

	for _, arch := range analysis.Architectures {
		t.Run(arch.String(), func(t *testing.T) {
			w, err := workload.Generate(p, 11)
			if err != nil {
				t.Fatal(err)
			}
			// A nested workflow beside the generated classes.
			w.Programs.Register("nest-p", func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
				return map[string]expr.Value{"O1": expr.Num(11)}, nil
			})
			w.Library.Add(model.NewSchema("Child", "I1").
				Step("C1", "nest-p", model.WithInputs("WF.I1"), model.WithOutputs("O1"), model.WithAgents(w.Agents[2])).
				MustBuild())
			w.Library.Add(model.NewSchema("Parent", "I1").
				Step("P1", "nest-p", model.WithOutputs("O1"), model.WithAgents(w.Agents[0])).
				NestedStep("N", "Child", model.WithInputs("P1.O1"), model.WithOutputs("O1"), model.WithAgents(w.Agents[1])).
				Step("P3", "nest-p", model.WithInputs("N.O1"), model.WithOutputs("O1"), model.WithAgents(w.Agents[0])).
				Seq("P1", "N", "P3").
				MustBuild())

			// A database per scheduling node: the engines, or the agents.
			n := deploy.Engines(arch, p.E)
			if n == 0 {
				n = len(w.Agents)
			}
			dbs := make([]*wfdb.DB, n)
			for i := range dbs {
				dbs[i] = wfdb.NewMemory()
			}
			sys, err := deploy.New(arch, deploy.Config{Library: w.Library, Programs: w.Programs,
				Agents: w.Agents, Engines: p.E, DBs: dbs, Logf: quiet})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			var agents []*distributed.Agent // per-agent replicas carry Epoch/Coordinator
			if s, ok := sys.(*distributed.System); ok {
				for _, name := range s.SchedulingNodes() {
					agents = append(agents, s.Agent(name))
				}
			}

			checked := 0
			sweep := func(where string) {
				for _, wf := range w.Library.Names() {
					for id := 1; id <= instances; id++ {
						if x, ok := sys.Snapshot(wf, id); ok {
							checkCodec(t, where, x)
							checked++
						}
						for _, a := range agents {
							if x, ok := a.Snapshot(wf, id); ok {
								checkCodec(t, where, x)
								checked++
							}
						}
					}
				}
			}

			var driver sync.WaitGroup
			done := make(chan struct{})
			var driveErr error
			driver.Add(1)
			go func() {
				defer driver.Done()
				defer close(done)
				if _, driveErr = workload.Drive(sys, w, instances, 30*time.Second); driveErr != nil {
					return
				}
				for i := 0; i < instances; i++ {
					id, err := sys.Start("Parent", map[string]expr.Value{"I1": expr.Num(float64(i))})
					if err == nil {
						_, err = sys.Wait("Parent", id, 30*time.Second)
					}
					if err != nil {
						driveErr = err
						return
					}
				}
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
					sweep("live")
				}
			}
			driver.Wait()
			if driveErr != nil {
				t.Fatal(driveErr)
			}
			sweep("final")
			if checked < instances*p.C {
				t.Errorf("only %d instance states were checked", checked)
			}
			t.Logf("%s: %d instance states checked", arch, checked)
		})
	}
}
