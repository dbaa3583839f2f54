package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crew/internal/coord"
	"crew/internal/distributed"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/laws"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/ocr"
	"crew/internal/rules"
	"crew/internal/store"
	"crew/internal/transport"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// The layer timings call each package's exported functions directly, with
// inputs taken from the generated workload, and say what one call costs in
// isolation. They do not add up to the end-to-end cost (cpu_share.* does
// that); they tell a change to one package where to look first.

const (
	timedBatch   = 4 * time.Millisecond // shortest batch worth timing
	timedBatches = 5                    // batches per figure; the median is reported
)

// sink keeps results of timed calls alive so the compiler cannot drop them.
var sink any

// timed returns the median cost in ns of one op, where batch(n) performs n
// ops. The batch size is grown until a batch is long enough to time.
func timed(batch func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		batch(n)
		if d := time.Since(t0); d >= timedBatch || n >= 1<<20 {
			break
		}
		n *= 4
	}
	per := make([]float64, timedBatches)
	for i := range per {
		t0 := time.Now()
		batch(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// timedFresh is timed for ops that each need a fresh fixture: prepare builds
// it untimed and returns the op.
func timedFresh(prepare func(i int) func()) float64 {
	const n = 200
	per := make([]float64, timedBatches)
	for r := range per {
		var total time.Duration
		for i := 0; i < n; i++ {
			op := prepare(r*n + i)
			t0 := time.Now()
			op()
			total += time.Since(t0)
		}
		per[r] = float64(total) / n
	}
	return median(per)
}

// layerBench carries the inputs every layer timing shares.
type layerBench struct {
	w      *workload.Workload // the run's own workload
	mixed  *workload.Workload // the same point with failures and coordination on
	schema *model.Schema
	dir    string
	m      map[string]float64
}

// layerTimings fills the timed-call metrics.
func layerTimings(w *workload.Workload, dir string, m map[string]float64) error {
	mixed, err := workload.Generate((&spec{Mixed: true}).params(), schemaSeed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b := &layerBench{w: w, mixed: mixed, dir: dir, m: m,
		schema: w.Library.Schema(w.Library.Names()[0])}
	for _, f := range []func() error{
		b.setup, b.exprEvent, b.rulesNav, b.tables, b.failure, b.coordination,
		b.persistence, b.wire, b.hub,
	} {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// lawsSource renders the workload's schemas in the LAWS language, so
// laws.Compile is timed on the same library everything else runs.
func lawsSource(lib *model.Library) string {
	var b strings.Builder
	for _, name := range lib.Names() {
		s := lib.Schema(name)
		fmt.Fprintf(&b, "workflow %s {\n  inputs %s\n", s.Name, strings.Join(s.Inputs, ", "))
		for _, st := range s.StepList() {
			fmt.Fprintf(&b, "  step %s {\n    program %q\n", st.ID, st.Program)
			if st.Compensation != "" {
				fmt.Fprintf(&b, "    compensation %q\n", st.Compensation)
			}
			fmt.Fprintf(&b, "    agents %s\n    inputs %s\n    outputs %s\n",
				strings.Join(st.EligibleAgents, ", "), strings.Join(st.Inputs, ", "),
				strings.Join(st.Outputs, ", "))
			if st.ReexecCond != "" {
				fmt.Fprintf(&b, "    reexec when %q\n", st.ReexecCond)
			}
			b.WriteString("  }\n")
		}
		for _, a := range s.Arcs {
			fmt.Fprintf(&b, "  %s -> %s\n", a.From, a.To)
		}
		ids := make([]string, 0, len(s.OnFailure))
		for id := range s.OnFailure {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		for _, id := range ids {
			p := s.OnFailure[model.StepID(id)]
			fmt.Fprintf(&b, "  on failure of %s rollback to %s attempts %d\n", id, p.RollbackTo, p.MaxAttempts)
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func (b *layerBench) setup() error {
	src := lawsSource(b.w.Library)
	if _, err := laws.Compile(src); err != nil {
		return fmt.Errorf("laws.Compile of the rendered workload: %w", err)
	}
	b.m["laws.compile_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = laws.Compile(src)
		}
	}) / 1e3
	p := b.w.Params
	b.m["workload.generate_ms"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = workload.Generate(p, schemaSeed)
		}
	}) / 1e6

	// Spawning and connecting the agent processes, as dist-procs set-up
	// does, measured on every workload so the figure has one meaning.
	d, err := deploy(findWorkload("dist-procs"), b.w.Seed, filepath.Join(b.dir, "spawn"))
	if err != nil {
		return err
	}
	b.m["mproc.spawn_ms"] = float64(d.spawn) / 1e6
	d.close()
	return nil
}

func (b *layerBench) exprEvent() error {
	const src = "WF.I1 > 10 && S1.O1 != prev.S1.O1"
	b.m["expr.compile_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = expr.Compile(src)
		}
	})
	e := expr.MustCompile(src)
	env := expr.MapEnv{"WF.I1": expr.Num(42), "S1.O1": expr.Num(43), "prev.S1.O1": expr.Num(44)}
	b.m["expr.eval_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = e.EvalBool(env)
		}
	})
	// One instance's worth of events into a fresh table, per event.
	names := []string{event.WorkflowStartName}
	for _, id := range b.schema.Order {
		names = append(names, b.schema.DoneEventOf(id))
	}
	b.m["event.post_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			t := event.NewTable()
			for _, name := range names {
				t.Post(name)
			}
		}
	}) / float64(len(names))
	return nil
}

// completed builds the state of an instance that ran every step once.
func completed(s *model.Schema, id int) *wfdb.Instance {
	ins := wfdb.NewInstance(s.Name, id, map[string]expr.Value{"I1": expr.Num(float64(id))})
	ins.AttachSchema(s)
	ins.Events.Post(event.WorkflowStartName)
	for _, sid := range s.TopoOrder() {
		st := s.Step(sid)
		in := make(map[string]expr.Value, len(st.Inputs))
		for _, name := range st.Inputs {
			in[name] = ins.Data[name]
		}
		ins.RecordExecuting(sid, st.EligibleAgents[0], in)
		ins.RecordDone(sid, map[string]expr.Value{"O1": expr.Num(float64(id + len(ins.ExecOrder)))})
	}
	return ins
}

func (b *layerBench) rulesNav() error {
	s := b.schema
	walk := []string{event.WorkflowStartName}
	for _, id := range s.TopoOrder() {
		walk = append(walk, s.DoneEventOf(id))
	}
	// What an engine pays per instance start (install, then bind as the
	// engines do) and per delivered event (fire): the failure-free walk of
	// one instance.
	b.m["rules.install_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			e := rules.NewEngine()
			rules.InstallSchemaRules(e, s)
			e.Bind(event.NewTable())
			sink = e
		}
	}) / 1e3
	var fireErr error
	b.m["rules.fire_ns"] = timedFresh(func(int) func() {
		e := rules.NewEngine()
		rules.InstallSchemaRules(e, s)
		e.Bind(event.NewTable())
		return func() {
			for _, name := range walk {
				if _, err := e.FireOn(name, nil); err != nil {
					fireErr = err
				}
			}
		}
	}) / float64(len(walk))
	if fireErr != nil {
		return fmt.Errorf("rules.FireOn: %w", fireErr)
	}

	ins := completed(s, 1)
	b.m["nav.potential_terminals_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink = nav.PotentialTerminals(s, ins)
		}
	})
	b.m["nav.should_commit_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink = nav.ShouldCommit(s, ins)
		}
	})
	st := s.Step(s.Order[len(s.Order)/2])
	b.m["nav.elect_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink = nav.ElectAgent(st.EligibleAgents, s.Name, i, st.ID, nil)
		}
	})
	return nil
}

func (b *layerBench) tables() error {
	var tbl itable.Map[int]
	const entries = 4096
	for i := 0; i < entries; i++ {
		tbl.Put(itable.Ref{Workflow: b.schema.Name, ID: i}, i)
	}
	b.m["itable.get_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = tbl.Get(itable.Ref{Workflow: b.schema.Name, ID: i % entries})
		}
	})
	// Subscribe, complete from another goroutine, wake: what every Wait pays.
	var term itable.Terminal
	next := 0
	b.m["itable.complete_wake_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			next++
			_, done, w, _ := term.Subscribe(b.schema.Name, next)
			if done {
				continue
			}
			go term.Complete(b.schema.Name, next, wfdb.Committed)
			<-w.Done()
		}
	}) / 1e3

	col := metrics.NewCollector()
	rec := col.Node("engine")
	b.m["metrics.add_load_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			rec.Add(metrics.Normal, 1)
		}
	})
	return nil
}

func (b *layerBench) failure() error {
	s := b.mixed.Library.Schema(b.mixed.Library.Names()[0])
	chain := s.TopoOrder()
	// A failure at the last chain step rolls back r = 3 steps.
	origin := chain[len(chain)-b.mixed.Params.F-1-b.mixed.Params.R]
	b.m["nav.rollback_us"] = timedFresh(func(i int) func() {
		ins := completed(s, i)
		e := rules.NewEngine()
		rules.InstallSchemaRules(e, s)
		e.Bind(ins.Events)
		return func() { sink, _ = nav.ApplyRollback(s, ins, e, origin) }
	}) / 1e3

	ins := completed(s, 1)
	st := s.Step(origin)
	rec := ins.StepRec(origin)
	b.m["ocr.decide_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = ocr.Decide(s, st, rec, rec.Inputs, ins.Env())
		}
	})
	b.m["ocr.plan_compensation_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink = ocr.PlanCompensation(s, ins, origin)
		}
	})
	return nil
}

func (b *layerBench) coordination() error {
	lib := b.mixed.Library
	var mutexRef, first, second model.StepRef
	for _, c := range lib.Coord {
		switch c.Kind {
		case model.Mutex:
			mutexRef = c.MutexSteps[0]
		case model.RelativeOrder:
			first, second = c.Pairs[0].A, c.Pairs[1].A
		}
	}
	if mutexRef.Workflow == "" || first.Workflow == "" {
		return fmt.Errorf("mixed workload has no mutex or relative-order spec")
	}
	t := coord.NewTracker(lib)
	id := 0
	b.m["coord.mutex_cycle_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			id++
			inst := coord.InstanceRef{Workflow: mutexRef.Workflow, ID: id}
			t.MutexAcquire(mutexRef, inst)
			sink = t.MutexRelease(mutexRef, inst)
		}
	})
	// One instance's life in a relative-order spec: enroll at the first
	// conflicting pair, check and complete the second, leave.
	b.m["coord.order_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			id++
			inst := coord.InstanceRef{Workflow: first.Workflow, ID: id}
			t.OrderStepDone(first, inst)
			t.OrderWait(second, inst)
			t.OrderStepDone(second, inst)
			sink = t.OrderForget(inst)
		}
	})
	return nil
}

func (b *layerBench) persistence() error {
	s := b.schema
	value := make([]byte, 1024)
	mem := store.OpenMemory()
	b.m["store.put_mem_ns"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			mem.Put("t", "k", value)
		}
	})

	st, err := store.Open(filepath.Join(b.dir, "layers.db"))
	if err != nil {
		return err
	}
	defer st.Close()
	b.m["store.put_file_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			st.Put("t", "k", value)
		}
	}) / 1e3
	if err := st.Spill("spilled"); err != nil {
		return err
	}
	const keys = 512
	for i := 0; i < keys; i++ {
		if err := st.Put("spilled", fmt.Sprint(i), value); err != nil {
			return err
		}
	}
	b.m["store.get_spilled_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _ = st.Get("spilled", fmt.Sprint(i%keys))
		}
	}) / 1e3

	db := wfdb.New(st)
	if err := db.SpillArchive(); err != nil {
		return err
	}
	ins := completed(s, 1)
	wal := filepath.Join(b.dir, "layers.db")
	size := func() int64 {
		fi, err := os.Stat(wal)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	before, saves := size(), 0
	b.m["wfdb.save_instance_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			db.SaveInstance(ins)
		}
		saves += n
	}) / 1e3
	b.m["wfdb.save_instance_bytes"] = float64(size()-before) / float64(saves)
	archived := 0
	b.m["wfdb.archive_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			archived++
			ins.ID = archived
			db.Archive(ins)
		}
	}) / 1e3
	b.m["wfdb.load_archived_us"] = timed(func(n int) {
		for i := 0; i < n; i++ {
			sink, _, _ = db.LoadArchived(s.Name, 1+i%archived)
		}
	}) / 1e3
	return nil
}

// wireMessage is a representative workflow-interface message with a
// registered payload: the start of an instance with its inputs.
func wireMessage(to string) transport.Message {
	return distributed.StartMessage("frontend", to, "WF01", 7,
		map[string]expr.Value{"I1": expr.Num(42)}, "frontend")
}

// discard consumes an endpoint's inbox, releasing pooled envelopes, until
// the network closes it.
func discard(ep *transport.Endpoint) {
	for m := range ep.Inbox() {
		if env, ok := m.Payload.(*transport.Envelope); ok && m.Kind == transport.KindEnvelope {
			env.Release()
		}
	}
}

func (b *layerBench) wire() error {
	quiesce := func(n *transport.Network) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		n.Quiesce(ctx)
	}
	// In-process: the cost of handing a message to the destination's queue
	// (the receiver drains concurrently), alone and as a burst of eight.
	{
		n := transport.NewNetwork(transport.NetworkConfig{})
		ep, err := n.Register("agent01")
		if err != nil {
			return err
		}
		go discard(ep)
		h, err := n.Handle("agent01")
		if err != nil {
			return err
		}
		msg := wireMessage("agent01")
		b.m["transport.send_ns"] = timed(func(k int) {
			for i := 0; i < k; i++ {
				h.Send(msg)
			}
			quiesce(n)
		})
		const burst = 8
		var bt transport.Batcher
		b.m["transport.batch_ns_per_msg"] = timed(func(k int) {
			for i := 0; i < k; i++ {
				for j := 0; j < burst; j++ {
					bt.Add(h, msg)
				}
				bt.Flush()
			}
			quiesce(n)
		}) / burst
		n.Close()
	}
	// Sockets: one message sent and received, frame codec and kernel included.
	for _, backend := range []string{"unix", "tcp"} {
		addr := ""
		if backend == "unix" {
			addr = filepath.Join(b.dir, "wire.sock")
		}
		w, err := transport.NewSocketWire(backend, addr)
		if err != nil {
			return err
		}
		n := transport.NewNetwork(transport.NetworkConfig{Wire: w})
		ep, err := n.Register("agent01")
		if err != nil {
			n.Close()
			return err
		}
		msg := wireMessage("agent01")
		b.m["transport."+backend+"_us_per_msg"] = timed(func(k int) {
			for i := 0; i < k; i++ {
				n.Send(msg)
				<-ep.Inbox()
			}
		}) / 1e3
		n.Close()
	}
	return nil
}

// hub times the multi-process hub protocol's round trip with both ends in
// this process: hub -> child (MSG), child -> hub (MSG reply, then ACK).
func (b *layerBench) hub() error {
	n := transport.NewNetwork(transport.NetworkConfig{})
	defer n.Close()
	hub, err := transport.NewRemoteHub(n, "unix", filepath.Join(b.dir, "rtt.sock"), nil)
	if err != nil {
		return err
	}
	if err := hub.RegisterRemote("agent01"); err != nil {
		return err
	}
	fe, err := n.Register("frontend")
	if err != nil {
		return err
	}
	conn, err := transport.DialHub("unix", hub.Addr(), "agent01")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() {
		served <- conn.Serve(func(m transport.Message) error {
			return conn.SendMessage(distributed.AbortMessage("agent01", "frontend", "WF01", 7))
		}, nil)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := hub.WaitConnected(ctx, "agent01"); err != nil {
		return err
	}
	msg := wireMessage("agent01")
	b.m["transport.hub_rtt_us"] = timed(func(k int) {
		for i := 0; i < k; i++ {
			n.Send(msg)
			<-fe.Inbox()
		}
	}) / 1e3
	conn.Close()
	<-served
	return nil
}
