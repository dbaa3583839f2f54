package distributed

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"crew/internal/actor"
	"crew/internal/cerrors"
	"crew/internal/coord"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/nav"
	"crew/internal/rules"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// Config parameterizes one distributed agent.
type Config struct {
	// Name is the agent's node name.
	Name string
	// Library holds the replicated schemas and coordination specs.
	Library *model.Library
	// Agents lists every agent in the deployment (sorted order defines the
	// coordination home agent and default eligibility).
	Agents []string
	// Programs resolves step programs.
	Programs *model.Registry
	// Collector receives load accounting (may be nil).
	Collector *metrics.Collector
	// AGDB persists the agent's replicas; nil disables persistence.
	AGDB *wfdb.DB
	// Archive receives the instances the agent retires as their coordination
	// agent when AGDB is nil, for Snapshot to serve; with an AGDB they go to
	// its archive table. With neither the agent keeps no store at all: it
	// writes no row at retirement, and Snapshot of a finished instance
	// answers not found.
	Archive *wfdb.DB
	// DisableOCR forces Saga-style recovery on revisits (ablation).
	DisableOCR bool
	// ExplicitElection enables the StateInformation-exchange successor
	// election (ablation); the default is the deterministic zero-message
	// election.
	ExplicitElection bool
	// PurgeOnCommit makes coordination agents tell every other agent of the
	// instances they finished, so replicas are purged where no terminal
	// registry is shared. As in the paper the broadcast is periodic: one note
	// per peer from each maintenance sweep, naming what finished since the
	// last (so a disabled sweep sends none).
	PurgeOnCommit bool
	// Alive overrides the liveness oracle used by agent elections and status
	// polling; nil uses the transport's view. Multi-process children need the
	// override: their local network registers every peer as an always-up
	// direct node that writes to the hub connection, so only the hub's
	// crash/recover announcements know which agents are really down.
	Alive func(name string) bool
	// Terminal optionally shares a terminal-status registry across the
	// deployment. The coordination agent publishes every commit/abort into
	// it; completion waiters subscribe to it, and the other agents follow its
	// completion feed and retire their replicas at their next turn without
	// exchanging a single message. Nil keeps a private registry (standalone
	// agents).
	Terminal *itable.Terminal
	// OnRetired, if set, is called after the agent archives and evicts a
	// replica of a terminated instance (the deployment evicts its routing
	// entries through it).
	OnRetired func(workflow string, id int)
	Logf      func(format string, args ...any)
	// sweepPeriod paces the agent's maintenance sweep: re-evaluating
	// replicas, re-reporting completed terminal steps to coordination agents,
	// and polling StepStatus for overdue missing events (the paper's
	// predecessor-failure detection). The sweep runs off a one-shot timer
	// armed only while the agent holds replicas or queued purges. A terminal
	// step is re-reported, and a missing event polled, once it is two periods
	// old. Zero means 100 ms; only tests set it.
	sweepPeriod time.Duration
}

// replica is an agent's partial copy of one workflow instance's state: the
// navigation state every placement shares (its Rollbacks count the rollbacks
// initiated here), and the agent's own, which an executing owner holding a
// partial view needs (epochs, the elected coordinator, polling state).
type replica struct {
	nav.Inst
	a *Agent
	// coordinator is the instance's coordination agent.
	coordinator string
	// executing guards against double execution while a program runs.
	executing map[model.StepID]bool
	// abort tracks an in-progress user abort (coordination agent only).
	abort *abortState
	// waitSince tracks when a pending rule first lacked exactly one event
	// (predecessor-failure detection); keyed by ruleID|event.
	waitSince map[string]time.Time
	polled    map[string]bool
	// parentAgent is the agent awaiting this nested instance's result.
	parentAgent string
	// inputEpoch counts input-change rollbacks issued by the coordination
	// agent.
	inputEpoch int
	// epoch is the instance's rollback epoch at this agent; resetEpoch
	// records, per step, the epoch at which the step was last reset by a
	// rollback. Incoming state (packets, StepCompleted snapshots) is merged
	// per step: entries for a step are ignored unless the sender's epoch is
	// at least the step's reset epoch, so stale threads cannot resurrect
	// invalidated state while unaffected parallel branches still merge.
	epoch      int
	resetEpoch map[model.StepID]int
	// doneEpoch records, per step, the epoch at which its current done
	// state was established. HaltThread probes of epoch E reset only steps
	// whose doneEpoch < E: a probe that arrives after the re-executed
	// thread already passed through must not clobber the fresh state.
	doneEpoch map[model.StepID]int
	// lastHalt remembers the most recent rollback parameters so agents that
	// send stale state can be told to catch up (anti-entropy).
	lastHalt *haltThread
	// handledHalts dedupes HaltThread floods: highest epoch seen per (origin,
	// initiator). Made by the first halt, gone with the replica.
	handledHalts map[haltFlood]int
	// lastReport throttles the sweep's terminal re-reports.
	lastReport time.Time
	// dirty marks the replica as changed since its last AGDB row; it is then
	// queued with the actor and the turn's commit writes it.
	dirty bool
}

// Save implements actor.Row. The replica-level recovery anchors are stamped
// into the record as it is encoded: a process restarted from this database
// must resume with the rollback epoch and coordination election the replica
// had when the turn ended, not rediscover them. Retirement and purge clear
// the mark, so a replica that left the live table is not written back.
func (r *replica) Save(tx *wfdb.Batch) {
	if r.dirty {
		r.dirty = false
		r.Ins.Epoch = r.epoch
		r.Ins.Coordinator = r.coordinator
		tx.SaveInstance(r.Ins)
	}
}

type abortState struct {
	queue   []model.StepID
	pending int // outstanding stepCompensated replies for the current step
}

// Agent is a distributed workflow agent: execution agent always, and
// coordination/termination agent per instance as the schemas dictate. All
// state is owned by the embedded actor's goroutine, and every turn — message,
// command or maintenance sweep — ends in the actor's commit, flush, ack.
type Agent struct {
	*actor.Actor
	cfg  Config
	net  *transport.Network
	site nav.Site

	replicas map[itable.Ref]*replica
	// progs holds, per schema, the compiled rules of the steps this agent is
	// eligible for, compiled by program at the schema's first replica.
	progs map[*model.Schema]*rules.Program
	// execCount is this agent's total program executions.
	execCount int64
	// term records terminal statuses (shared deployment-wide via
	// Config.Terminal); adb archives retired replicas (cfg.AGDB, else
	// cfg.Archive, else nil: nothing is archived).
	term *itable.Terminal
	adb  *wfdb.DB
	// cursor is where the agent stands in term's completion feed, finished
	// the buffer it reads the feed into; inTurn marks a message turn under
	// way, so a message the agent sends itself retires nothing
	// (retireFinished).
	cursor   uint64
	finished []itable.Ref
	inTurn   bool
	// purges queues the instances finished here since the last sweep, for its
	// purge broadcast (Config.PurgeOnCommit). Like any unflushed send it dies
	// with the process.
	purges []purgeEntry
	// sweepWakeups counts maintenance-timer firings; tests assert an idle
	// agent stops waking up.
	sweepWakeups atomic.Int64

	// Coordinated execution: requests go to homeNode; home is non-nil on that
	// agent.
	homeNode       string
	home           *coord.Home
	hasRollbackDep bool
}

// NewAgent registers the agent and starts its goroutine.
func NewAgent(cfg Config, net *transport.Network) (*Agent, error) {
	if cfg.Name == "" {
		return nil, errors.New("distributed: agent needs a name")
	}
	if cfg.Library == nil || cfg.Programs == nil {
		return nil, errors.New("distributed: agent needs a library and programs")
	}
	if len(cfg.Agents) == 0 {
		return nil, errors.New("distributed: agent needs the deployment agent list")
	}
	if cfg.sweepPeriod == 0 {
		cfg.sweepPeriod = 100 * time.Millisecond
	}
	a := &Agent{
		cfg:      cfg,
		net:      net,
		replicas: make(map[itable.Ref]*replica),
		term:     cfg.Terminal,
		adb:      cfg.Archive,
	}
	if a.term == nil {
		a.term = new(itable.Terminal)
	}
	if cfg.AGDB != nil {
		a.adb = cfg.AGDB
	}
	a.cursor = a.term.Follow()
	for _, spec := range cfg.Library.Coord {
		if spec.Kind == model.RollbackDep {
			a.hasRollbackDep = true
		}
	}
	if a.homeNode = HomeAgent(cfg.Agents); a.homeNode == cfg.Name {
		a.home = coord.NewHome(cfg.Library, a)
	}
	var err error
	if a.Actor, err = actor.New(net, cfg.Name, a.adb, cfg.Logf); err != nil {
		return nil, err
	}
	a.site = nav.Site{
		Name:        cfg.Name,
		Rec:         cfg.Collector.Node(cfg.Name),
		Coordinated: coord.NewTracker(cfg.Library).CoordinatedSteps(),
		DisableOCR:  cfg.DisableOCR,
		Logf:        a.Logf,
	}
	// Only while the agent holds replicas is there anything to heal, report or
	// retire, and only with purges queued anything to broadcast, so the sweep's
	// timer is armed on those conditions alone.
	a.Launch(a.receive, &actor.Timer{
		Every: cfg.sweepPeriod,
		Busy:  func() bool { return len(a.replicas) > 0 || len(a.purges) > 0 },
		Tick:  a.sweep,
	})
	return a, nil
}

// HomeAgent returns the deployment's coordination home agent: the first
// agent in sorted order. Every agent computes the same answer locally.
func HomeAgent(agents []string) string {
	if len(agents) == 0 {
		return ""
	}
	return slices.Min(agents)
}

// alive answers liveness queries for elections and polls: the Config.Alive
// override when installed, else the transport's view.
func (a *Agent) alive(name string) bool {
	if a.cfg.Alive != nil {
		return a.cfg.Alive(name)
	}
	return a.net.Alive(name)
}

// executorOf elects the executor of a step (deterministic, alive-aware). The
// first start step is not elected: its executor is the instance's
// coordination agent for as long as the instance lives. Only that agent was
// given the start, so an election that flips (the hash winner was down when
// the instance started and is back before a coordinated step's AddRule is
// answered) would hand the step to an agent that has never heard of the
// instance, and nobody would run it.
func (a *Agent) executorOf(r *replica, step model.StepID) string {
	s := r.Schema.Steps[step]
	if s == nil {
		return ""
	}
	if starts := r.Schema.StartSteps(); r.coordinator != "" && len(starts) > 0 && step == starts[0] {
		return r.coordinator
	}
	return nav.ElectAgent(nav.EffectiveAgents(s, a.cfg.Agents), r.Ins.Workflow, r.Ins.ID, step, a.alive)
}

// errRetired marks a message addressed to an instance that already reached a
// terminal status and was archived. Handlers drop such messages silently:
// late packets for a finished instance are normal traffic, and recreating a
// replica for them would resurrect the instance in the live tables.
var errRetired = errors.New("instance already terminated")

// replicaKey is the replica table's key for an instance: comparable as it is,
// so a lookup builds no string.
func replicaKey(workflow string, id int) itable.Ref {
	return itable.Ref{Workflow: workflow, ID: id}
}

// getReplica returns (creating if needed) the replica of an instance,
// installing the execution rules for every step this agent is eligible for.
// Instances recorded terminal in the registry are never recreated; callers
// get errRetired instead.
func (a *Agent) getReplica(workflow string, id int) (*replica, error) {
	key := replicaKey(workflow, id)
	if r, ok := a.replicas[key]; ok {
		return r, nil
	}
	if st, ok := a.term.Status(workflow, id); ok && st != wfdb.Running {
		return nil, fmt.Errorf("%s.%d: %w", workflow, id, errRetired)
	}
	schema := a.cfg.Library.Schema(workflow)
	if schema == nil {
		return nil, fmt.Errorf("distributed: unknown workflow class %q", workflow)
	}
	ins := wfdb.NewInstance(workflow, id, nil)
	r := a.newReplica(schema, ins)
	a.replicas[key] = r
	return r, nil
}

// program returns the agent's compiled rules for a schema: the execution
// rules of every step the agent is eligible for, in schema order. Compiled
// at the schema's first replica and shared by all of them.
func (a *Agent) program(schema *model.Schema) *rules.Program {
	if p, ok := a.progs[schema]; ok {
		return p
	}
	var rs []*rules.Rule
	for _, id := range schema.Order {
		if slices.Contains(nav.EffectiveAgents(schema.Steps[id], a.cfg.Agents), a.cfg.Name) {
			rs = append(rs, rules.StepRules(schema, id)...)
		}
	}
	p := rules.Compile(rs)
	if a.progs == nil {
		a.progs = make(map[*model.Schema]*rules.Program)
	}
	a.progs[schema] = p
	return p
}

// newReplica builds a replica around an instance (fresh or reloaded from the
// AGDB), loading the agent's program for the schema and binding it to the
// instance's event table.
func (a *Agent) newReplica(schema *model.Schema, ins *wfdb.Instance) *replica {
	r := &replica{
		Inst:       nav.NewInst(ins, schema, &a.site),
		a:          a,
		executing:  make(map[model.StepID]bool),
		waitSince:  make(map[string]time.Time),
		polled:     make(map[string]bool),
		resetEpoch: make(map[model.StepID]int),
		doneEpoch:  make(map[model.StepID]int),
	}
	r.Rules.Load(a.program(schema))
	r.Rules.Bind(ins.Events)
	return r
}

// RecoverReplicas rebuilds the agent's live replicas from its AGDB after a
// process restart: the real crash-recovery path of a multi-process
// deployment, where a killed agent loses every in-memory table and owns
// nothing but its database. Terminal summaries are replayed into the local
// terminal registry (and re-announced to notify, when non-empty, so a front
// end across the wire cannot miss a completion that raced the crash); each
// live instance record becomes a replica again, restoring the persisted
// rollback epoch and coordination election, and is re-evaluated so rules
// whose effects died with the process fire again. Messages the hub never saw
// acknowledged are replayed on reconnect, which is where the remaining
// in-flight state comes from.
func (a *Agent) RecoverReplicas(notify string) error {
	if a.cfg.AGDB == nil {
		return nil
	}
	var firstErr error
	a.Do(func() {
		db := a.cfg.AGDB
		for _, key := range db.SummaryKeys() {
			wf, id, err := wfdb.ParseInstanceKey(key)
			if err != nil {
				continue
			}
			st, ok, err := db.LoadSummary(wf, id)
			if err != nil || !ok || st == wfdb.Running {
				continue
			}
			a.term.Complete(wf, id, st)
			if notify != "" {
				a.Send(notify, metrics.Failure, KindWorkflowDone,
					WorkflowDone{Workflow: wf, Instance: id, Status: st})
			}
		}
		for _, key := range db.InstanceKeys() {
			wf, id, err := wfdb.ParseInstanceKey(key)
			if err != nil {
				continue
			}
			if _, ok := a.replicas[replicaKey(wf, id)]; ok {
				continue
			}
			if st, ok := a.term.Status(wf, id); ok && st != wfdb.Running {
				continue
			}
			ins, ok, err := db.LoadInstance(wf, id)
			if err != nil || !ok {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				continue
			}
			schema := a.cfg.Library.Schema(wf)
			if schema == nil {
				continue
			}
			r := a.newReplica(schema, ins)
			r.epoch = ins.Epoch
			r.coordinator = ins.Coordinator
			r.Recovery = metrics.Failure
			a.replicas[replicaKey(wf, id)] = r
		}
		for _, r := range a.sortedReplicas(nil) {
			nav.Evaluate(r)
		}
	})
	return firstErr
}

// sortedReplicas snapshots the live replicas keep accepts (nil: all of them)
// in instance order: what a scan emits must not depend on map order, and
// handling one replica may create or evict others. Filtering comes first so a
// scan that picks a few replicas out of thousands does not sort the rest.
func (a *Agent) sortedReplicas(keep func(*replica) bool) []*replica {
	var out []*replica
	if keep == nil {
		out = make([]*replica, 0, len(a.replicas))
	}
	for _, r := range a.replicas {
		if keep == nil || keep(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i].Ins, out[j].Ins
		if x.Workflow != y.Workflow {
			return x.Workflow < y.Workflow
		}
		return x.ID < y.ID
	})
	return out
}

// coordinatorOf returns a replica's coordination agent: the one it was told of
// (by the start, a packet or its database row), else the one elected.
func (a *Agent) coordinatorOf(r *replica) string {
	if r.coordinator != "" {
		return r.coordinator
	}
	return a.electCoordinator(r.Ins.Workflow, r.Ins.ID)
}

// electCoordinator computes an instance's coordination agent as every agent
// and front end does (CoordinatorFor); "" when nobody eligible is alive.
func (a *Agent) electCoordinator(workflow string, id int) string {
	name, err := CoordinatorFor(a.cfg.Library, a.cfg.Agents, workflow, id, a.alive)
	if err != nil {
		a.Logf("%v", err)
	}
	return name
}

// Persist marks the replica for the turn's commit: its row is encoded once,
// from the state it has when the turn ends, and is on the log before the
// turn's sends leave. Retired replicas are never written back: that would
// resurrect the instance record the archive removed.
func (r *replica) Persist() {
	if r.a.cfg.AGDB == nil || r.Retired || r.dirty {
		return
	}
	r.dirty = true
	r.a.Mark(r)
}

// Snapshot returns a deep copy of the agent's replica of an instance. For a
// retired instance the coordination agent serves the archived final state, if
// it keeps an archive; the other agents dropped their partial copy and have
// nothing to serve. An archive row it cannot decode is logged with its error
// code.
func (a *Agent) Snapshot(workflow string, id int) (*wfdb.Instance, bool) {
	var out *wfdb.Instance
	a.Do(func() {
		if r, ok := a.replicas[replicaKey(workflow, id)]; ok {
			out = r.Ins.Clone()
		}
	})
	if out == nil && a.adb != nil {
		ins, ok, err := a.adb.LoadArchived(workflow, id)
		switch {
		case err != nil:
			a.Logf("snapshot %s.%d: archive row [%s]: %v", workflow, id, cerrors.CodeOf(err), err)
		case ok:
			if schema := a.cfg.Library.Schema(workflow); schema != nil {
				ins.AttachSchema(schema)
			}
			out = ins
		}
	}
	return out, out != nil
}

// retireReplica is how the coordination agent lets go of an instance at its
// terminal status, after the coordination clean-up has been issued: never
// while rollback dependencies or compensation-dependent sets can still
// reference it, since those exist only while it runs. It archives the full
// final state (where the agent keeps an archive), evicts the replica from the
// live table, publishes the terminal status and wakes completion waiters. Only
// the coordination agent archives (Snapshot serves that copy); every other agent
// drops its partial replica (dropReplica). In process, retirement sends no
// messages and adds no load, so the paper's tables are unaffected. Only a
// replica with a NotifyTo address (set by a multi-process front end's
// WorkflowStart) pushes one WorkflowDone across the wire: the completion
// signal that replaces the shared terminal registry a process boundary takes
// away.
func (a *Agent) retireReplica(r *replica) {
	st := r.Ins.Status
	r.Retired, r.dirty = true, false
	// Archive before publishing completion: a woken waiter may Snapshot
	// immediately and must find the archived state. The archive row and the
	// deletion of the instance row go out in one group with whatever the turn
	// has pending — on the coordination agent, the terminal summary
	// finishInstance just added — so a crash never finds the instance both
	// archived and live, nor summarized as finished while still live.
	if a.adb != nil {
		a.Tx().Archive(r.Ins)
		a.Commit()
	}
	a.term.Complete(r.Ins.Workflow, r.Ins.ID, st)
	if r.Ins.NotifyTo != "" {
		a.Send(r.Ins.NotifyTo, metrics.Normal, KindWorkflowDone,
			WorkflowDone{Workflow: r.Ins.Workflow, Instance: r.Ins.ID, Status: st})
	}
	delete(a.replicas, replicaKey(r.Ins.Workflow, r.Ins.ID))
	if a.cfg.OnRetired != nil {
		a.cfg.OnRetired(r.Ins.Workflow, r.Ins.ID)
	}
}

// dropReplica is how every other agent lets go of a replica whose instance
// finished elsewhere, learnt from a purge note or from the terminal registry:
// the partial copy is evicted and its AGDB row deleted in the turn's group.
// Nothing is archived; nobody reads a bystander's view of a finished instance.
func (a *Agent) dropReplica(r *replica) {
	r.Retired, r.dirty = true, false
	delete(a.replicas, replicaKey(r.Ins.Workflow, r.Ins.ID))
	if a.cfg.OnRetired != nil {
		a.cfg.OnRetired(r.Ins.Workflow, r.Ins.ID)
	}
	if a.cfg.AGDB != nil {
		a.Tx().DeleteInstance(r.Ins.Workflow, r.Ins.ID)
	}
}

// DebugState renders an instance replica's rule and coordination state for
// diagnostics.
func (a *Agent) DebugState(workflow string, id int) string {
	var out string
	a.Do(func() {
		r, ok := a.replicas[replicaKey(workflow, id)]
		if !ok {
			out = "(no replica)"
			return
		}
		out = fmt.Sprintf("status=%v epoch=%d recovery=%v", r.Ins.Status, r.epoch, r.Recovery)
		for _, w := range r.Rules.WaitingRules(r.Ins.Events) {
			out += fmt.Sprintf("\n  waiting %s missing=%v", w.Rule.ID, w.Missing)
		}
		if s := r.Gate.String(); s != "" {
			out += "\n" + s
		}
		if a.home != nil {
			out += "\n" + a.home.String()
		}
	})
	return out
}

// StartInstance runs the WorkflowStart WI locally (invoked by the front end
// on the coordination agent).
func (a *Agent) StartInstance(workflow string, id int, inputs map[string]expr.Value) error {
	var err error
	a.Do(func() {
		err = a.handleWorkflowStart(workflowStart{Workflow: workflow, Instance: id, Inputs: inputs})
	})
	return err
}

// InstanceStatus serves the WorkflowStatus WI from the coordination instance
// summary (and live replicas).
func (a *Agent) InstanceStatus(workflow string, id int) (wfdb.Status, bool) {
	var st wfdb.Status
	var ok bool
	a.Do(func() {
		if st, ok = a.term.Status(workflow, id); ok {
			return
		}
		if a.cfg.AGDB != nil {
			if st, ok, _ = a.cfg.AGDB.LoadSummary(workflow, id); ok {
				return
			}
		}
		if r, found := a.replicas[replicaKey(workflow, id)]; found {
			st, ok = r.Ins.Status, true
		}
	})
	return st, ok
}
