package central

import (
	"errors"
	"fmt"
	"slices"

	"crew/internal/actor"
	"crew/internal/cerrors"
	"crew/internal/coord"
	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/ocr"
	"crew/internal/rules"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// Config parameterizes an engine.
type Config struct {
	// Name is the engine's node name on the network.
	Name string
	// Library holds the deployed schemas and coordination specs. Steps with
	// empty EligibleAgents are dispatched to any of Agents.
	Library *model.Library
	// Agents lists the application agents the engine may dispatch to.
	Agents []string
	// Programs resolves step program names.
	Programs *model.Registry
	// Collector receives load accounting (may be nil).
	Collector *metrics.Collector
	// DB persists instance state; nil disables persistence.
	DB *wfdb.DB
	// DisableOCR forces the Saga-style complete compensation and complete
	// re-execution on every revisit (the OCR ablation).
	DisableOCR bool
	// The tables below are the deployment's, shared by its engines (System
	// makes them). Archive receives retired instances when DB is nil, so any
	// engine can answer Snapshot; with a DB they go to its archive table.
	Archive *wfdb.DB
	// Terminal is the terminal-status registry completions are published to
	// (push-based Wait).
	Terminal *itable.Terminal
	// IDs holds the last instance ID assigned per workflow class ({workflow,
	// 0}); the engine draws its nested children's IDs from it and keeps it
	// above the IDs it recovers.
	IDs *itable.Map[int]
	// Owners maps every live instance to its engine: an engine enters the
	// instances it starts or reloads and removes them as they retire.
	Owners *itable.Map[*Engine]
	// Logf, if set, receives diagnostics (compensation failures, dropped
	// stale results).
	Logf func(format string, args ...any)
}

// instState is the engine-side state of one instance: the navigation state
// every placement shares, and the engine's own, which a dispatching owner
// needs (what is out at an agent, the compensation chain, the abort).
type instState struct {
	nav.Inst
	e *Engine

	dispatched map[model.StepID]bool

	chain        []chainTask
	chainActive  bool
	pendingChain *chainTask
	aborting     bool
	abortCause   metrics.Mechanism

	// dirty marks the instance as changed since its last WFDB row; it is then
	// queued with the actor and the turn's commit writes it.
	dirty bool
	// unanswered counts the step requests sent for the instance that have no
	// response yet. An in-process agent runs the program over the request's
	// maps, which are the step record's own (Inputs, Prev), so the instance is
	// handed to a waiter only when the count is zero. A reloaded instance
	// never is: responses to the crashed engine's requests would skew it.
	unanswered int
	reloaded   bool
}

// handsOff reports whether nothing outside the instance can still hold its
// maps, so a waiter may take it as it is.
func (st *instState) handsOff() bool {
	return st.unanswered == 0 && !st.reloaded && st.Ins.Parent == nil
}

// Save implements actor.Row: retirement clears the mark, so an instance that
// left the live table mid-turn is not written back.
func (st *instState) Save(tx *wfdb.Batch) {
	if st.dirty {
		st.dirty = false
		tx.SaveInstance(st.Ins)
	}
}

// newInstState wraps an instance, fresh or reloaded, with its rule set bound
// to its event table.
func (e *Engine) newInstState(ins *wfdb.Instance, schema *model.Schema) *instState {
	st := &instState{
		Inst:       nav.NewInst(ins, schema, &e.site),
		e:          e,
		dispatched: make(map[model.StepID]bool),
	}
	rules.InstallSchemaRules(st.Rules, schema)
	st.Rules.Bind(ins.Events)
	return st
}

// chainTask is one entry of the serialized compensation/re-execution chain.
type chainTask struct {
	step model.StepID
	mode model.ExecMode // ModeCompensate or ModePartialComp
	then *execPlan      // optional re-execution after this compensation
}

type execPlan struct {
	step model.StepID
	mode model.ExecMode // ModeExecute or ModeIncremental
}

// Engine is a centralized workflow engine. All state is owned by the
// embedded actor's goroutine; external calls go through its command queue
// (Do, DoAsync), and every turn ends in the actor's commit, flush, ack.
type Engine struct {
	*actor.Actor
	cfg  Config
	net  *transport.Network
	site nav.Site

	instances map[string]*instState
	loads     map[string]int64

	// term records terminal statuses and wakes completion subscribers; adb
	// is where retired instances are archived (cfg.DB, else cfg.Archive).
	// Both are safe for concurrent use, so Status / Wait / Snapshot of
	// finished instances never round-trip through the engine goroutine.
	term *itable.Terminal
	adb  *wfdb.DB

	// Placement of coordinated execution: requests go to homeNode; home is
	// non-nil on that engine, which routes an injection to the target's owner
	// and a rollback order to every one of engines.
	homeNode string
	home     *coord.Home
	engines  []string

	// halted marks a simulated engine-process crash: volatile state has been
	// discarded and not yet rebuilt. Messages that reference unknown
	// instances while halted are stashed in orphans and replayed after
	// Restart rebuilds the instance table (a message can slip past the
	// transport-level crash into the engine loop during the crash window).
	halted  bool
	orphans []func()
}

// NewEngine registers the engine on the network and starts its goroutine. The
// engine is its own coordination home (the centralized placement: the whole
// protocol is calls) unless Place says otherwise.
func NewEngine(cfg Config, net *transport.Network) (*Engine, error) {
	if cfg.Name == "" {
		return nil, errors.New("central: engine needs a name")
	}
	if cfg.Library == nil || cfg.Programs == nil {
		return nil, errors.New("central: engine needs a library and programs")
	}
	e := &Engine{
		cfg:       cfg,
		net:       net,
		instances: make(map[string]*instState),
		loads:     make(map[string]int64),
		term:      cfg.Terminal,
		adb:       cfg.Archive,
		homeNode:  cfg.Name,
		engines:   []string{cfg.Name},
	}
	e.home = coord.NewHome(cfg.Library, e)
	if cfg.DB != nil {
		e.adb = cfg.DB
	}
	var err error
	if e.Actor, err = actor.New(net, cfg.Name, e.adb, cfg.Logf); err != nil {
		return nil, err
	}
	e.site = nav.Site{
		Name:        cfg.Name,
		Rec:         cfg.Collector.Node(cfg.Name),
		Coordinated: e.home.Tracker().CoordinatedSteps(),
		DisableOCR:  cfg.DisableOCR,
		Logf:        e.Logf,
	}
	e.Launch(e.handleMessage, nil)
	return e, nil
}

// Place puts the engine in a deployment of several: coordination requests go
// to the engine named home, which sends a rollback order to each of engines.
// Call it before the first workflow starts.
func (e *Engine) Place(home string, engines []string) {
	e.homeNode, e.engines = home, engines
	if home != e.cfg.Name {
		e.home = nil
	}
}

func (e *Engine) handleMessage(m transport.Message) {
	switch p := m.Payload.(type) {
	case *ExecResponse:
		e.onExecResponse(*p)
	case *StateResponse:
		e.loads[p.Agent] = p.Load
	default:
		if !coord.Dispatch(p, e) {
			e.Logf("unhandled payload %T", p)
		}
	}
}

// ---------------------------------------------------------------------------
// Public API (thread-safe)

// ErrUnknownWorkflow reports an unknown class name. It aliases the shared
// sentinel so errors.Is matches across architectures.
var ErrUnknownWorkflow = cerrors.ErrUnknownWorkflow

// ErrUnknownInstance reports an unknown instance.
var ErrUnknownInstance = cerrors.ErrUnknownInstance

// ErrNotRunning reports an operation on a committed/aborted instance.
var ErrNotRunning = cerrors.ErrNotRunning

// StartWithID launches an instance under the ID the deployment assigned it.
func (e *Engine) StartWithID(workflow string, id int, inputs map[string]expr.Value) error {
	var err error
	e.Do(func() {
		_, err = e.startLocked(workflow, id, inputs, nil)
	})
	return err
}

// Abort requests a user-initiated abort.
func (e *Engine) Abort(workflow string, id int) error {
	if _, done := e.term.Status(workflow, id); done {
		return ErrNotRunning // already retired
	}
	var err error
	e.Do(func() {
		var st *instState
		if st, err = e.running(workflow, id); err == nil {
			e.site.Rec.Add(metrics.Abort, 1)
			e.abortInstance(st, metrics.Abort)
		}
	})
	return err
}

// running returns a live running instance, or the error a user operation on
// it gets: ErrNotRunning once it finished, even if it retired while the
// command was queued.
func (e *Engine) running(workflow string, id int) (*instState, error) {
	st := e.instances[wfdb.InstanceKeyOf(workflow, id)]
	if st == nil {
		if _, done := e.term.Status(workflow, id); done {
			return nil, ErrNotRunning
		}
		return nil, ErrUnknownInstance
	}
	if st.Ins.Status != wfdb.Running {
		return nil, ErrNotRunning
	}
	return st, nil
}

// ChangeInputs applies user-initiated workflow input changes, rolling back
// to the earliest step consuming a changed input and re-executing forward
// with the OCR strategy.
func (e *Engine) ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error {
	if _, done := e.term.Status(workflow, id); done {
		return ErrNotRunning // already retired
	}
	var err error
	e.Do(func() {
		var st *instState
		if st, err = e.running(workflow, id); err == nil {
			e.changeInputs(st, inputs)
		}
	})
	return err
}

// Status reports an instance's status. Finished instances answer from the
// terminal registry without touching the engine goroutine. An instance of an
// earlier incarnation answers from its row in the WFDB: the archive row if
// it finished, else the instance row, which an instance not yet recovered
// still has.
func (e *Engine) Status(workflow string, id int) (wfdb.Status, bool) {
	if st, done := e.term.Status(workflow, id); done {
		return st, true
	}
	var s wfdb.Status
	var ok bool
	e.Do(func() {
		if st := e.instances[wfdb.InstanceKeyOf(workflow, id)]; st != nil {
			s, ok = st.Ins.Status, true
		} else if db := e.cfg.DB; db != nil {
			if s, ok, _ = db.ArchivedStatus(workflow, id); !ok {
				var ins *wfdb.Instance
				if ins, ok, _ = db.LoadInstance(workflow, id); ins != nil {
					s = ins.Status
				}
			}
		}
	})
	return s, ok
}

// Snapshot returns an instance's state for inspection; the returned instance
// is the caller's, referenced by nothing else. One the registry reports
// finished is read from the archive without an engine turn: retirement
// commits the archive row before it publishes the status. A live instance, or
// a finished one archived in another engine's database, costs a turn.
// System.Snapshot takes a handed-off instance before it gets here.
func (e *Engine) Snapshot(workflow string, id int) (*wfdb.Instance, bool) {
	if _, done := e.term.Status(workflow, id); done {
		if ins, ok := e.archived(workflow, id); ok {
			return ins, true
		}
	}
	var out *wfdb.Instance
	e.Do(func() {
		if st := e.instances[wfdb.InstanceKeyOf(workflow, id)]; st != nil {
			out = st.Ins.Clone()
		}
	})
	if out == nil {
		out, _ = e.archived(workflow, id)
	}
	return out, out != nil
}

// archived loads a retired instance from the engine's archive. A row it cannot
// decode is logged with its error code and read as missing.
func (e *Engine) archived(workflow string, id int) (*wfdb.Instance, bool) {
	ins, ok, err := e.adb.LoadArchived(workflow, id)
	if err != nil {
		e.Logf("snapshot %s.%d: archive row [%s]: %v", workflow, id, cerrors.CodeOf(err), err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	if schema := e.cfg.Library.Schema(workflow); schema != nil {
		ins.AttachSchema(schema)
	}
	return ins, true
}

// Recover performs the forward recovery the WFDB exists for (paper §2):
// after an engine failure, a fresh engine reloads every running instance
// from the database, regenerates its rule set, resets steps that were
// dispatched but whose results died with the old engine, and resumes
// navigation. Steps whose results are on file are revisited through the OCR
// strategy, so unchanged work is reused rather than redone. It returns the
// number of instances resumed.
func (e *Engine) Recover() (int, error) {
	if e.cfg.DB == nil {
		return 0, errors.New("central: recovery needs a database")
	}
	var n int
	e.Do(func() {
		// Results of steps that were executing at the crash are lost, and so is
		// a compensation in flight: both are re-queued for dispatch
		// (compensations tolerate at-least-once).
		n = e.reload(false)
		e.site.Rec.Add(metrics.Normal, int64(n))
	})
	return n, nil
}

// Halt simulates an engine-process crash: all volatile state — the instance
// table, dispatch bookkeeping, compensation chains, the agent-load cache — is
// discarded. The WFDB and the transport's persistent queues survive (parking
// undelivered messages is Network.Crash's job). Waiter channels, the ID
// counters and the owner table are harness-side state and survive too. No-op
// without a database or when already halted.
func (e *Engine) Halt() {
	e.DoAsync(func() {
		if e.cfg.DB == nil || e.halted {
			return
		}
		e.halted = true
		e.instances = make(map[string]*instState)
		e.loads = make(map[string]int64)
	})
}

// Restart rebuilds volatile state from the WFDB after Halt, trusting the
// persistent queues (paper §2's recovery contract): a step recorded as
// executing or compensating has its request or result parked in a queue, so
// the rebuilt instance awaits that result rather than redispatching —
// compensations therefore run at most once per write-ahead record. Messages
// that arrived during the halt window are replayed afterwards.
func (e *Engine) Restart() {
	e.DoAsync(func() {
		if !e.halted {
			return
		}
		n := int64(e.reload(true))
		e.site.Rec.Add(metrics.Failure, n) // recovery bookkeeping
		e.cfg.Collector.AddSurvived(n)
		e.halted = false
		orphans := e.orphans
		e.orphans = nil
		for _, f := range orphans {
			f()
		}
	})
}

// reload rebuilds the live table from the WFDB and returns how many instances
// it brought back: every running instance on file that is not resident gets
// its rule set regenerated and its compensation chains rebuilt (rebuildChains
// says what trustQueues means for those). With trustQueues a step recorded as
// executing is awaited, its request or result being in a queue; without, it
// is reset to pending.
func (e *Engine) reload(trustQueues bool) int {
	var rebuilt []*instState
	for _, key := range e.cfg.DB.InstanceKeys() {
		workflow, id, err := wfdb.ParseInstanceKey(key)
		if err != nil {
			e.Logf("reload: %v", err)
			continue
		}
		if _, live := e.instances[key]; live {
			continue
		}
		ins, ok, err := e.cfg.DB.LoadInstance(workflow, id)
		if err != nil || !ok {
			if err != nil {
				e.Logf("reload %s: %v", key, err)
			}
			continue
		}
		if ins.Status != wfdb.Running {
			continue
		}
		schema := e.cfg.Library.Schema(workflow)
		if schema == nil {
			e.Logf("reload %s: unknown workflow class", key)
			continue
		}
		st := e.newInstState(ins, schema)
		st.reloaded = true
		for sid, rec := range ins.Steps {
			if rec.Status != wfdb.StepExecuting {
				continue
			}
			if trustQueues {
				st.dispatched[sid] = true
			} else {
				rec.Status = wfdb.StepPending
			}
		}
		e.rebuildChains(st, trustQueues)
		e.adopt(key, st)
		e.cfg.IDs.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int { return max(v, id) })
		rebuilt = append(rebuilt, st)
	}
	// Resume only after every instance is registered: nested children finish
	// into their parent, coordination may cross instances.
	for _, st := range rebuilt {
		e.resumeInstance(st)
	}
	return len(rebuilt)
}

// adopt enters an instance in the live table and the deployment's owner table.
func (e *Engine) adopt(key string, st *instState) {
	e.instances[key] = st
	e.cfg.Owners.Put(itable.Ref{Workflow: st.Ins.Workflow, ID: st.Ins.ID}, e)
}

// resumeInstance restarts navigation on a rebuilt instance.
func (e *Engine) resumeInstance(st *instState) {
	if st.aborting {
		e.pumpChain(st)
		return
	}
	nav.Evaluate(st)
	if !st.chainActive && len(st.chain) > 0 {
		e.pumpChain(st)
	}
}

// rebuildChains reconstructs compensation-chain state from the persisted
// instance. With trustQueues (warm restart over reliable queues) a step
// recorded StepCompensating has its compensation request or result still in a
// queue, so it becomes the active pending task and is NOT re-dispatched;
// without (cold recovery, queues lost) the task is re-queued for dispatch.
// An instance flagged Aborting gets its abort chain rebuilt the same way
// abortInstance builds it, minus steps already compensated or in flight.
func (e *Engine) rebuildChains(st *instState, trustQueues bool) {
	for _, sid := range st.Schema.Order {
		rec := st.Ins.Steps[sid]
		if rec == nil || rec.Status != wfdb.StepCompensating {
			continue
		}
		mode := rec.CompMode
		if mode != model.ModeCompensate && mode != model.ModePartialComp {
			mode = model.ModeCompensate
		}
		task := chainTask{step: sid, mode: mode}
		if mode == model.ModePartialComp {
			// The partial compensation's re-execution plan is implied by its
			// mode; a complete-CR chain's plan is instead recovered by rule
			// re-arming (see onCompResult).
			task.then = &execPlan{step: sid, mode: model.ModeIncremental}
		}
		if trustQueues && !st.chainActive {
			t := task
			st.chainActive = true
			st.pendingChain = &t
		} else {
			st.chain = append(st.chain, task)
		}
	}
	if !st.Ins.Aborting {
		return
	}
	st.aborting = true
	st.abortCause = metrics.Abort
	ordered := st.Ins.ResultMembersInOrder(nav.AbortCandidates(st.Schema))
	for i := len(ordered) - 1; i >= 0; i-- {
		sid := ordered[i]
		if st.pendingChain != nil && st.pendingChain.step == sid {
			continue
		}
		if !slices.ContainsFunc(st.chain, func(t chainTask) bool { return t.step == sid }) {
			st.chain = append(st.chain, chainTask{step: sid, mode: model.ModeCompensate})
		}
	}
}

// ---------------------------------------------------------------------------
// Instance lifecycle (engine goroutine only)

func (e *Engine) startLocked(workflow string, id int, inputs map[string]expr.Value, parent *wfdb.ParentRef) (int, error) {
	schema := e.cfg.Library.Schema(workflow)
	if schema == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownWorkflow, workflow)
	}
	if id == 0 {
		id = e.cfg.IDs.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int { return v + 1 })
	}
	key := wfdb.InstanceKeyOf(workflow, id)
	if _, dup := e.instances[key]; dup {
		return 0, fmt.Errorf("central: instance %s already exists", key)
	}
	ins := wfdb.NewInstanceOf(schema, id, inputs)
	ins.Parent = parent
	st := e.newInstState(ins, schema)
	e.adopt(key, st)
	e.site.Rec.Add(metrics.Normal, 1) // WorkflowStart processing
	ins.Events.Post(event.WorkflowStartName)
	// An acknowledged start must survive a crash even if the first dispatch
	// has not happened yet (coordination blocks).
	st.Persist()
	nav.Evaluate(st)
	return id, nil
}

func (e *Engine) changeInputs(st *instState, inputs map[string]expr.Value) {
	e.site.Rec.Add(metrics.InputChange, 1)
	changed, origin := nav.InputChange(st.Schema, st.Ins, inputs)
	st.Ins.MergeData(changed)
	if origin == "" {
		return // nothing changed, or no step consumes what did
	}
	// Roll back to the earliest step consuming a changed input; OCR decides
	// per revisited step whether re-execution is actually needed.
	e.rollbackTo(st, origin, metrics.InputChange)
	nav.Evaluate(st)
}

// ---------------------------------------------------------------------------
// Navigation: the engine's side of the core (nav.Owner). The engine dispatches
// a step to an agent and waits for its result; a revisit's compensation goes
// through the instance's chain.

// Stopped: an abort under way owns the instance; no rule fires.
func (st *instState) Stopped() bool { return st.aborting }

// MayRun admits a step that is neither out at an agent nor compensating.
func (st *instState) MayRun(step model.StepID) bool {
	if st.aborting || st.dispatched[step] {
		return false
	}
	rec := st.Ins.Steps[step]
	return rec == nil || (rec.Status != wfdb.StepExecuting && rec.Status != wfdb.StepCompensating)
}

// Revisits: the engine holds every result, so OCR applies to any of them.
func (st *instState) Revisits(*wfdb.StepRecord) bool { return true }

func (st *instState) Run(step model.StepID, inputs map[string]expr.Value, _ metrics.Mechanism) bool {
	st.e.dispatchStep(st, step, model.ModeExecute, inputs, nil)
	return false
}

func (st *instState) CompleteCR(step model.StepID, _ metrics.Mechanism) bool {
	plan := ocr.PlanCompensation(st.Schema, st.Ins, step)
	st.e.enqueueCompChain(st, plan, &execPlan{step: step, mode: model.ModeExecute})
	return false
}

func (st *instState) IncrementalCR(step model.StepID, _ map[string]expr.Value, _ metrics.Mechanism) bool {
	st.chain = append(st.chain, chainTask{
		step: step,
		mode: model.ModePartialComp,
		then: &execPlan{step: step, mode: model.ModeIncremental},
	})
	st.e.pumpChain(st)
	return false
}

func (st *instState) Done(step model.StepID, _ metrics.Mechanism) { st.e.afterStepDone(st, step) }

// Loop: every loop whose condition holds is taken; a result still out for
// the body is stale.
func (st *instState) Loop(_ model.StepID, body []model.StepID) bool {
	for _, id := range body {
		st.dispatched[id] = false // a result in flight is stale
	}
	nav.Reset(st, body)
	return true
}

// enqueueCompChain queues compensations for plan (already in compensation
// order) attaching the re-execution to the last entry.
func (e *Engine) enqueueCompChain(st *instState, plan []model.StepID, then *execPlan) {
	for i, cid := range plan {
		t := chainTask{step: cid, mode: model.ModeCompensate}
		if i == len(plan)-1 {
			t.then = then
		}
		st.chain = append(st.chain, t)
	}
	e.pumpChain(st)
}

// chooseAgent probes the non-chosen eligible agents (2(a-1) messages) and
// dispatch+result make the per-step total 2a, matching the paper's
// centralized message model. Selection is least cached load, ties broken
// lexically.
func (e *Engine) chooseAgent(s *model.Step, mech metrics.Mechanism) string {
	elig := nav.EffectiveAgents(s, e.cfg.Agents)
	best := ""
	for _, a := range elig {
		if !e.net.Alive(a) {
			continue
		}
		if best == "" || e.loads[a] < e.loads[best] || (e.loads[a] == e.loads[best] && a < best) {
			best = a
		}
	}
	if best == "" {
		return ""
	}
	for _, a := range elig {
		if a == best || !e.net.Alive(a) {
			continue
		}
		e.Send(a, mech, KindStateInformation, &StateRequest{ReplyTo: e.cfg.Name, Mechanism: mech})
	}
	return best
}

func (e *Engine) dispatchStep(st *instState, step model.StepID, mode model.ExecMode, inputs map[string]expr.Value, prev *model.PrevExecution) {
	s := st.Schema.Steps[step]
	mech := nav.StepMechanism(st.Ins, step, st.Recovery)
	e.site.Rec.Add(mech, 1) // navigation/scheduling

	if s.Nested != "" {
		e.startNested(st, step, inputs)
		return
	}

	agent := e.chooseAgent(s, mech)
	if agent == "" {
		e.Logf("instance %s step %s: no eligible agent alive", st.Ins.Key(), step)
		return
	}
	if mode == model.ModeIncremental && prev == nil {
		prev = st.Ins.StepRec(step).Prev()
	}
	st.Ins.RecordExecuting(step, agent, inputs)
	st.dispatched[step] = true
	// Write-ahead: a restart must know this attempt's request (or result) is
	// in a persistent queue, so it awaits the result instead of redispatching.
	st.Persist()
	e.loads[agent]++ // optimistic cache update
	st.unanswered++
	e.Send(agent, mech, KindStepExecute, &ExecRequest{
		Workflow:  st.Ins.Workflow,
		Instance:  st.Ins.ID,
		Step:      step,
		Program:   s.Program,
		Mode:      mode,
		Attempt:   st.Ins.StepRec(step).Attempts,
		Inputs:    inputs,
		Prev:      prev,
		Mechanism: mech,
		ReplyTo:   e.cfg.Name,
	})
}

// ---------------------------------------------------------------------------
// Results

func (e *Engine) onExecResponse(r ExecResponse) {
	st := e.instances[wfdb.InstanceKeyOf(r.Workflow, r.Instance)]
	if st == nil {
		if e.halted {
			e.orphans = append(e.orphans, func() { e.onExecResponse(r) })
			return
		}
		if _, done := e.term.Status(r.Workflow, r.Instance); done {
			// A result landing after its instance finished (a user abort
			// racing an in-flight step): examining it still costs the
			// result-processing unit the pre-retirement engine charged, so
			// the Tables 4-5 load columns stay identical.
			e.site.Rec.Add(metrics.Normal, 1)
		}
		return
	}
	st.unanswered--
	switch r.Mode {
	case model.ModeCompensate, model.ModePartialComp:
		e.onCompResult(st, r)
	default:
		e.onStepResult(st, r)
	}
}

func (e *Engine) onStepResult(st *instState, r ExecResponse) {
	// The attempt number identifies the dispatch a result answers
	// (RecordExecuting increments it, and the agent echoes it). Only the
	// newest dispatch's result is live; anything else — an older attempt
	// overtaken by a rollback's re-dispatch, a result for a step that was
	// reset and not re-dispatched, or a stray from before an engine restart
	// — is dropped here. Counting expected drops instead (the previous
	// scheme) is unsound when results arrive out of order from different
	// agents: the counter can eat the live result and process a stale one.
	rec := st.Ins.Steps[r.Step]
	if rec == nil || r.Attempt != rec.Attempts || !st.dispatched[r.Step] {
		return
	}
	st.dispatched[r.Step] = false
	mech := nav.StepMechanism(st.Ins, r.Step, st.Recovery)
	e.site.Rec.Add(mech, 1) // result processing

	if st.Ins.Status != wfdb.Running {
		return
	}
	if r.Failed {
		st.Ins.RecordFailed(r.Step)
		nav.Release(st, coord.Failed, r.Step)
		e.handleStepFailure(st, r.Step)
		return
	}
	st.Ins.RecordDone(r.Step, r.Outputs)
	e.afterStepDone(st, r.Step)
	nav.Evaluate(st)
}

// afterStepDone runs the post-success navigation: recovery exit,
// branch-switch compensation, coordination notifications, loop arcs and
// persistence. Callers re-evaluate afterwards (nav.Evaluate is reentrant-safe
// from the engine goroutine).
func (e *Engine) afterStepDone(st *instState, step model.StepID) {
	st.Ran(step)

	// Branch switch after re-execution: compensate abandoned branches
	// (the CompensateThread of distributed control, done engine-side here).
	if st.Schema.IsBranching(step) && st.Ins.StepRec(step).Attempts > 1 {
		taken := nav.ActiveBranchTargets(st.Schema, st.Ins, step)
		abandoned := nav.AbandonedBranchSteps(st.Schema, st.Ins, step, taken)
		if len(abandoned) > 0 {
			e.compensateLatestFirst(st, abandoned)
			if st.Retired {
				return
			}
		}
	}

	// Coordination: advance order queues, release mutexes.
	nav.Release(st, coord.Done, step)
	nav.LoopBack(st, step)
	st.Persist()
}

func (e *Engine) handleStepFailure(st *instState, step model.StepID) {
	target, ok := st.Retry(step)
	if !ok {
		e.abortInstance(st, metrics.Failure)
		return
	}
	e.rollbackTo(st, target, metrics.Failure)
	nav.Evaluate(st)
}

// rollbackTo applies a partial rollback: descendants of origin (and origin)
// are reset, coordination is informed, dependent workflows roll back too.
func (e *Engine) rollbackTo(st *instState, origin model.StepID, cause metrics.Mechanism) {
	prev := st.Recovery
	all := st.Rollback(origin, cause)
	// A still-dispatched step has a result in flight that the reset below
	// makes stale: onStepResult will drop it without charging the
	// result-processing unit. In the common schedule that result arrives
	// just before the rollback and is charged under the pre-rollback
	// mechanism, so charge the same unit here — otherwise total load
	// depends on the race (the documented ~1.5% Table-4 22.94-vs-23.00
	// flake). Clearing dispatched as we charge keeps duplicates in `all`
	// from double-charging.
	for _, id := range all {
		if st.dispatched[id] {
			st.dispatched[id] = false
			e.site.Rec.Add(prev, 1)
		}
	}
	nav.Reset(st, all)
	st.ToHome(coord.Request{Op: coord.Rollback, Ref: model.StepRef{Workflow: st.Ins.Workflow}, Invalidated: all})
	st.Persist()
}

// ---------------------------------------------------------------------------
// Compensation chain

func (e *Engine) pumpChain(st *instState) {
	for !st.chainActive && !st.Retired {
		if len(st.chain) == 0 {
			if st.aborting {
				e.finalizeAbort(st)
			} else {
				st.Settle()
			}
			return
		}
		task := st.chain[0]
		st.chain = st.chain[1:]
		rec := st.Ins.Steps[task.step]
		s := st.Schema.Steps[task.step]
		needsWork := rec != nil && rec.HasResult && s != nil && s.Compensation != ""
		if task.mode == model.ModePartialComp {
			needsWork = needsWork && s.Incremental
		}
		if !needsWork {
			// Nothing to undo (never executed, not compensable, or already
			// compensated): complete the task inline.
			if rec != nil && rec.HasResult && task.mode == model.ModeCompensate && (s == nil || s.Compensation == "") {
				// Not compensable but has results: just drop the marker so
				// re-execution proceeds.
				st.Ins.RecordCompensated(task.step)
			}
			e.finishChainTask(st, task)
			continue
		}
		mech := st.compMech()
		agent := rec.Agent
		if agent == "" || !e.net.Alive(agent) {
			agent = e.chooseAgent(s, mech)
		}
		if agent == "" {
			e.Logf("instance %s: no agent to compensate %s", st.Ins.Key(), task.step)
			e.finishChainTask(st, task)
			continue
		}
		st.chainActive = true
		st.pendingChain = &task
		// Write-ahead: mark the step compensating (with its mode) so a
		// restart rebuilds this pending task and never dispatches the
		// compensation a second time.
		st.Ins.RecordCompensating(task.step, task.mode)
		st.Persist()
		e.site.Rec.Add(mech, 1)
		st.unanswered++
		e.Send(agent, mech, KindStepCompensate, &ExecRequest{
			Workflow:  st.Ins.Workflow,
			Instance:  st.Ins.ID,
			Step:      task.step,
			Program:   s.Compensation,
			Mode:      task.mode,
			Attempt:   rec.Attempts,
			Inputs:    rec.Inputs,
			Prev:      rec.Prev(),
			Mechanism: mech,
			ReplyTo:   e.cfg.Name,
		})
	}
}

// compMech is the mechanism compensation work is charged to: the abort's
// cause while aborting, else the recovery's, Failure outside either.
func (st *instState) compMech() metrics.Mechanism {
	mech := st.Recovery
	if st.aborting {
		mech = st.abortCause
	}
	if mech == metrics.Normal {
		mech = metrics.Failure
	}
	return mech
}

func (e *Engine) onCompResult(st *instState, r ExecResponse) {
	task := st.pendingChain
	st.chainActive = false
	st.pendingChain = nil
	if task == nil || task.step != r.Step {
		e.Logf("instance %s: unexpected compensation result for %s", st.Ins.Key(), r.Step)
		return
	}
	mech := st.compMech()
	e.site.Rec.Add(mech, 1)
	if r.Failed {
		e.Logf("instance %s: compensation of %s failed: %s", st.Ins.Key(), r.Step, r.Reason)
	}
	if r.Mode == model.ModeCompensate {
		st.Ins.RecordCompensated(r.Step)
	}
	st.Persist()
	e.finishChainTask(st, *task)
	// A restart while this compensation was in flight loses the re-execution
	// plan attached to the chain (only the compensating step itself is
	// persisted). Re-arm the step's execution rule and re-evaluate: if the
	// revisit that queued this chain is still due, OCR re-decides it; in
	// normal operation the rule's events/conditions no longer hold (or the
	// step is already dispatched), so this is a no-op.
	if !st.Retired && st.Ins.Status == wfdb.Running && !st.aborting {
		st.Rules.RearmExecRules(r.Step)
		nav.Evaluate(st)
	}
}

func (e *Engine) finishChainTask(st *instState, task chainTask) {
	if task.then != nil && !st.aborting && st.Ins.Status == wfdb.Running {
		s := st.Schema.Steps[task.then.step]
		if s != nil {
			inputs := nav.ResolveInputs(st.Ins, s)
			prev := st.Ins.StepRec(task.then.step).Prev()
			e.dispatchStep(st, task.then.step, task.then.mode, inputs, prev)
		}
	}
	e.pumpChain(st)
}

// ---------------------------------------------------------------------------
// Abort / commit / nested

func (e *Engine) abortInstance(st *instState, cause metrics.Mechanism) {
	if st.aborting || st.Ins.Status != wfdb.Running {
		return
	}
	st.aborting = true
	st.abortCause = cause
	if st.abortCause == metrics.Normal {
		st.abortCause = metrics.Abort
	}
	// Write-ahead: an acknowledged abort must survive a crash; a restart
	// rebuilds the compensation chain from this flag.
	st.Ins.Aborting = true
	st.Persist()
	// Drop any queued chain work; abort compensation takes over.
	st.chain = nil
	e.compensateLatestFirst(st, nav.AbortCandidates(st.Schema))
}

// compensateLatestFirst queues the compensation of those of steps that hold
// results, the latest executed first, and pumps the chain.
func (e *Engine) compensateLatestFirst(st *instState, steps []model.StepID) {
	ordered := st.Ins.ResultMembersInOrder(steps)
	for i := len(ordered) - 1; i >= 0; i-- {
		st.chain = append(st.chain, chainTask{step: ordered[i], mode: model.ModeCompensate})
	}
	e.pumpChain(st)
}

func (e *Engine) finalizeAbort(st *instState) {
	if st.Ins.Status != wfdb.Running {
		return
	}
	st.Ins.Status = wfdb.Aborted
	st.Ins.Events.Post(event.WorkflowAbortName)
	e.finishInstance(st)
}

// Settle commits the instance once every reachable terminal step ran and no
// compensation is pending: the engine is its coordinator, and checks after
// every pass of the rule loop and whenever the chain runs dry.
func (st *instState) Settle() {
	if st.Retired || st.aborting || !nav.ShouldCommit(st.Schema, st.Ins) {
		return
	}
	// A workflow with an active compensation chain is not quiescent.
	if st.chainActive || len(st.chain) > 0 {
		return
	}
	st.e.site.Rec.Add(metrics.Normal, 1)
	st.Ins.Status = wfdb.Committed
	st.Ins.Events.Post(event.WorkflowDoneName)
	st.e.finishInstance(st)
}

// finishInstance retires a terminal instance: the full state is archived,
// the terminal status is published (waking every Wait subscriber), the
// coordination tracker and routing owners drop their references, and the
// live entry is evicted — so resident memory stays flat under an unbounded
// instance stream while Status/Snapshot/Wait keep answering from the
// archive and the terminal registry.
//
// Retirement happens only here, at terminal status: by this point every
// pending rollback dependency and OCR compensation-dependent set involving
// the instance has been resolved (a Running instance is never evicted), so
// no live navigation can still need the evicted state.
func (e *Engine) finishInstance(st *instState) {
	ins := st.Ins
	key, ref := ins.Key(), itable.Ref{Workflow: ins.Workflow, ID: ins.ID}
	// Archive before publishing completion: a woken waiter may Snapshot
	// immediately and must find the archived state. The archive row and the
	// deletion of the instance row go out in one group (behind whatever the
	// turn has pending), so a crash finds the instance, and its status, in
	// exactly one of the two tables. Without a DB there is no instance row to
	// delete.
	e.Tx().Archive(ins)
	if e.cfg.DB != nil {
		e.Tx().DeleteInstance(ref.Workflow, ref.ID)
	}
	st.dirty = false
	e.Commit()
	st.ToHome(coord.Request{Op: coord.Forget, Inst: coord.InstanceRef{Workflow: ref.Workflow, ID: ref.ID}})

	// Publish. An instance nothing else holds goes to its waiter, if any, as
	// it is: from CompleteWith on it is the waiter's, and the engine does not
	// touch it again (st.Retired stops the navigation still on the stack). A
	// nested child is not handed off, because its parent step reads its data
	// below, nor is one with a request still out (handsOff). The rule set
	// stops observing the event table the taker may write.
	parent := ins.Parent
	st.Retired = true
	ins.Events.SetObserver(nil)
	if st.handsOff() {
		e.term.CompleteWith(ref.Workflow, ref.ID, ins.Status, ins)
	} else {
		e.term.Complete(ref.Workflow, ref.ID, ins.Status)
	}
	if parent != nil {
		// Hand the result to the parent step before the child leaves the
		// table.
		if pst := e.instances[wfdb.InstanceKeyOf(parent.Workflow, parent.ID)]; pst != nil {
			e.onChildFinished(pst, parent.Step, st)
		} else if _, done := e.term.Status(parent.Workflow, parent.ID); done {
			// Parent finished first (a user abort racing the child):
			// examining the child's result still costs the unit the
			// pre-retirement engine charged in onChildFinished, so the
			// Tables 4-5 load columns stay identical.
			e.site.Rec.Add(metrics.Normal, 1)
		}
	}

	delete(e.instances, key)
	e.cfg.Owners.Delete(ref)
}

func (e *Engine) startNested(st *instState, step model.StepID, inputs map[string]expr.Value) {
	s := st.Schema.Steps[step]
	child := e.cfg.Library.Schema(s.Nested)
	if child == nil {
		e.Logf("instance %s step %s: unknown nested workflow %q", st.Ins.Key(), step, s.Nested)
		return
	}
	childInputs := nav.NestedInputs(s, child, st.Ins)
	st.Ins.RecordExecuting(step, e.cfg.Name, inputs)
	st.dispatched[step] = true
	st.Persist()
	parent := &wfdb.ParentRef{Workflow: st.Ins.Workflow, ID: st.Ins.ID, Step: step}
	if _, err := e.startLocked(s.Nested, 0, childInputs, parent); err != nil {
		e.Logf("instance %s step %s: nested start: %v", st.Ins.Key(), step, err)
		st.dispatched[step] = false
	}
}

// onChildFinished resumes the parent step when its nested workflow ends.
func (e *Engine) onChildFinished(parent *instState, step model.StepID, child *instState) {
	parent.dispatched[step] = false
	e.site.Rec.Add(metrics.Normal, 1)
	if parent.Ins.Status != wfdb.Running {
		return
	}
	if child.Ins.Status != wfdb.Committed {
		parent.Ins.RecordFailed(step)
		e.handleStepFailure(parent, step)
		return
	}
	parent.Ins.RecordDone(step, nav.NestedOutputs(parent.Schema.Steps[step], child.Schema, child.Ins.Data))
	e.afterStepDone(parent, step)
	nav.Evaluate(parent)
}

// Persist marks the instance for the turn's commit. Callers invoke it after
// any change a restart must see; the row itself is encoded once, from the
// state the instance has when the turn ends (or another instance retires),
// and is on the log before the turn's sends leave (the actor's turn epilogue).
func (st *instState) Persist() {
	if st.e.cfg.DB == nil || st.Retired || st.dirty {
		return
	}
	st.dirty = true
	st.e.Mark(st)
}

// ---------------------------------------------------------------------------
// Coordinated execution (engine goroutine only). The protocol is package
// coord's; what follows is its placement: how a request reaches the home, how
// the home's answers reach an instance, under which labels and load units.

// coordKinds labels the protocol's messages between engines.
var coordKinds = [...]string{
	coord.Check: "CoordCheck", coord.Done: "CoordDone", coord.Failed: "CoordFailed",
	coord.Rollback: "CoordRollback", coord.Forget: "CoordForget",
}

// ToHome hands a request to the home: a call on the home engine, one message
// from any other.
func (st *instState) ToHome(req coord.Request) {
	if e := st.e; e.home != nil {
		e.home.Handle(req)
	} else {
		e.Send(e.homeNode, metrics.Coordination, coordKinds[req.Op], &req)
	}
}

// The home's way out (coord.Host). A message to this engine itself is handled
// on the spot, so with one engine these are calls.

func (e *Engine) Charge() { e.site.Rec.Add(metrics.Coordination, 1) }

func (e *Engine) Resolve(to string, r coord.Resolve) {
	e.Send(to, metrics.Coordination, "CoordResolve", &r)
}

func (e *Engine) Inject(inj coord.Injection) {
	to := e // a target that retired has no owner; the injection ends here
	if o, ok := e.cfg.Owners.Get(itable.Ref{Workflow: inj.Target.Workflow, ID: inj.Target.ID}); ok {
		to = o
	}
	p := coord.Inject(inj)
	e.Send(to.cfg.Name, metrics.Coordination, "CoordInject", &p)
}

func (e *Engine) Order(ord coord.RollbackOrder) {
	p := coord.Order(ord)
	for _, eng := range e.engines {
		e.Send(eng, metrics.Coordination, "CoordOrder", &p)
	}
}

// The way in (coord.Node).

func (e *Engine) OnRequest(req coord.Request) {
	if e.home == nil {
		e.Logf("coordination request received by an engine that is not the home")
		return
	}
	e.home.Handle(req)
}

func (e *Engine) OnResolve(r coord.Resolve) {
	st := e.instances[wfdb.InstanceKeyOf(r.Inst.Workflow, r.Inst.ID)]
	if st == nil {
		if e.halted {
			e.orphans = append(e.orphans, func() { e.OnResolve(r) })
		}
		return
	}
	nav.Resolved(st, r)
}

func (e *Engine) OnInject(inj coord.Inject) {
	st := e.instances[wfdb.InstanceKeyOf(inj.Target.Workflow, inj.Target.ID)]
	if st == nil {
		if e.halted {
			e.orphans = append(e.orphans, func() { e.OnInject(inj) })
		}
		return
	}
	nav.Injected(st, inj.Event)
}

// OnOrder enforces a rollback dependency on this engine's running instances
// of the target class.
func (e *Engine) OnOrder(ord coord.Order) {
	if e.halted {
		e.orphans = append(e.orphans, func() { e.OnOrder(ord) })
		return
	}
	// Sorted iteration: rollbackTo emits coordination and recovery traffic,
	// and map order would make the emitted sequence differ run to run.
	keys := make([]string, 0, len(e.instances))
	for k := range e.instances {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		st := e.instances[k]
		if st.Ins.Workflow != ord.TargetWorkflow || st.Ins.Status != wfdb.Running || st.aborting {
			continue
		}
		if st.Recovery != metrics.Normal {
			continue // already recovering; guards against dependency cycles
		}
		rec := st.Ins.Steps[ord.TargetStep]
		if rec == nil || rec.Attempts == 0 {
			continue // has not reached the target step yet
		}
		e.site.Rec.Add(metrics.Coordination, 1)
		e.rollbackTo(st, ord.TargetStep, metrics.Failure)
		nav.Evaluate(st)
	}
}
