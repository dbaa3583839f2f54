package distributed

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
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
	// Alive overrides the liveness oracle used by agent elections and status
	// polling; nil uses the transport's view. Multi-process children need the
	// override: their local network registers every peer as an always-up
	// direct node that writes to the hub connection, so only the hub's
	// crash/recover announcements know which agents are really down.
	Alive func(name string) bool
	// Notify is the front end of an agent process (mproc.FrontendNode),
	// empty in process. A nested instance's WorkflowStart names it as the
	// node to tell of the instance's end, as the front end's own
	// WorkflowStart does for a top-level instance, since a nested step's
	// executor may not know the parent's NotifyTo; RecoverReplicas
	// re-announces the statuses of archived instances to it.
	Notify string
	// Terminal is the terminal-status registry, shared by the agents of one
	// process (System). The coordination agent publishes every commit/abort
	// into it; completion waiters subscribe to it, and the other agents
	// follow its completion feed and retire their replicas at their next turn
	// without exchanging a single message. An agent process's own registry is
	// completed from the hub's DONE frames (mproc.RunChild).
	Terminal *itable.Terminal
	// OnRetired, if set, is called after the agent archives and evicts a
	// replica of a terminated instance (the deployment evicts its routing
	// entries through it).
	OnRetired func(workflow string, id int)
	Logf      func(format string, args ...any)
	// sweepPeriod paces the agent's maintenance sweep (Agent.sweep), which
	// runs off a one-shot timer armed only while the agent holds replicas; no
	// rule waits for it and it commits nothing. A missing event is polled once
	// it is two periods old. Zero means 100 ms; only tests set it.
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
	// abort tracks an in-progress user abort (coordination agent only).
	abort *abortState
	// waits holds when each wait began, zero once polled (pollOverdueRules).
	// It, resetEpoch and doneEpoch are nil until their first write.
	waits map[waitKey]time.Time
	// parentAgent is the agent awaiting this nested instance's result.
	parentAgent string
	// epoch is the highest rollback epoch this agent has seen or issued for
	// the instance (nextEpoch); resetEpoch records, per step, the highest
	// epoch of a rollback that reset the step (markReset), and resetMax the
	// highest of them. Incoming state
	// (packets, StepCompleted snapshots) is merged per step: entries for a
	// step are ignored unless the sender's epoch is at least the step's
	// reset epoch, so stale threads cannot resurrect invalidated state while
	// unaffected parallel branches still merge.
	epoch      int
	resetEpoch map[model.StepID]int
	resetMax   int
	// doneEpoch records, per step, the epoch at which its current done
	// state was established. HaltThread probes of epoch E reset only steps
	// whose doneEpoch < E: a probe that arrives after the re-executed
	// thread already passed through must not clobber the fresh state.
	doneEpoch map[model.StepID]int
	// lastHalt remembers the most recent rollback parameters so agents that
	// send stale state can be told to catch up (anti-entropy).
	lastHalt     *haltThread
	handledHalts map[model.StepID]int
	// dirty marks the replica as changed since its last AGDB row; it is then
	// queued with the actor and the turn's commit writes it.
	dirty bool
}

// Save implements actor.Row. The replica-level recovery anchors are stamped
// into the record as it is encoded: a process restarted from this database
// must resume with the rollback epoch and coordination election the replica
// had when the turn ended, not rediscover them. Retirement and a drop clear
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
	pending int  // outstanding stepCompensated replies for the current step
	pumping bool // pumpAbort is on the stack
}

// Agent is a distributed workflow agent: execution agent always, and
// coordination/termination agent per instance as the schemas dictate. All
// state is owned by the embedded actor's goroutine, and every turn — message,
// command or maintenance sweep — ends in the actor's commit, flush, ack.
type Agent struct {
	*actor.Actor
	cfg  Config
	site nav.Site
	// self is the agent's 1-based index in cfg.Agents, the low field of the
	// epochs it issues (nextEpoch).
	self int

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
	// evicted holds the replicas the turn under way let go of (evict), for
	// the turn's end to hand to spares (recycle).
	evicted []*replica
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
	self := slices.Index(cfg.Agents, cfg.Name) + 1
	if self == 0 || len(cfg.Agents) > maxAgents {
		return nil, fmt.Errorf("distributed: %w: agent %q must be one of at most %d agents (%d listed)",
			cerrors.ErrInvalidConfig, cfg.Name, maxAgents, len(cfg.Agents))
	}
	if cfg.Library == nil || cfg.Programs == nil || cfg.Terminal == nil {
		return nil, errors.New("distributed: agent needs a library, programs and a terminal registry")
	}
	if cfg.sweepPeriod == 0 {
		cfg.sweepPeriod = 100 * time.Millisecond
	}
	if cfg.Alive == nil {
		cfg.Alive = net.Alive
	}
	a := &Agent{
		cfg:      cfg,
		self:     self,
		replicas: make(map[itable.Ref]*replica),
		term:     cfg.Terminal,
		adb:      cfg.Archive,
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
	a.OnTurnEnd(a.recycle)
	// Only while the agent holds replicas is there anything to poll or retire,
	// so the sweep's timer is armed on that condition alone.
	a.Launch(a.receive, &actor.Timer{
		Every: cfg.sweepPeriod,
		Busy:  func() bool { return len(a.replicas) > 0 },
		Tick:  a.sweep,
	})
	return a, nil
}

// A rollback epoch is a counter in its high bits and, in its low
// epochAgentBits, the index of the agent that issued it (Agent.self).
const (
	epochAgentBits = 16
	maxAgents      = 1<<epochAgentBits - 1
)

// nextEpoch is the one place a rollback epoch is made, by Lamport's rule: one
// more than the largest epoch the agent has seen for the instance, tagged
// with the agent. So an epoch names one rollback, and of two issued from one
// epoch the higher agent index has the larger, at every agent; an epoch
// stays a plain int under every comparison. An epoch counted by a build
// before this rule (a small count, counter 0) lies below every one issued now.
func (a *Agent) nextEpoch(seen int) int {
	return (seen>>epochAgentBits+1)<<epochAgentBits | a.self
}

// HomeAgent returns the deployment's coordination home agent: the first
// agent in sorted order. Every agent computes the same answer locally.
func HomeAgent(agents []string) string {
	if len(agents) == 0 {
		return ""
	}
	return slices.Min(agents)
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
	return nav.ElectAgent(nav.EffectiveAgents(s, a.cfg.Agents), r.Ins.Workflow, r.Ins.ID, step, a.cfg.Alive)
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
// A new replica is a spare emptied in place (reuseReplica) if there is one.
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
	r, ok := spares.Get().(*replica)
	if ok {
		a.reuseReplica(r, schema, id)
	} else {
		r = a.newReplica(schema, wfdb.NewInstanceOf(schema, id, nil))
	}
	a.replicas[key] = r
	return r, nil
}

// spares holds the replicas the agents of this process evicted, once the
// turn that evicted each has ended (evict, recycle). A spare belongs to no
// agent and holds no instance anyone reads; getReplica empties it in place.
var spares sync.Pool

// reuseReplica makes a spare what newReplica builds around
// wfdb.NewInstanceOf(schema, id, nil): its instance, engine, gate and maps
// are emptied and kept.
func (a *Agent) reuseReplica(r *replica, schema *model.Schema, id int) {
	r.Inst.Reuse(schema, id, &a.site)
	r.Rules.Load(a.program(schema))
	clear(r.waits)
	clear(r.resetEpoch)
	clear(r.doneEpoch)
	clear(r.handledHalts)
	*r = replica{Inst: r.Inst, a: a, waits: r.waits, resetEpoch: r.resetEpoch,
		doneEpoch: r.doneEpoch, handledHalts: r.handledHalts}
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
	r := &replica{Inst: nav.NewInst(ins, schema, &a.site), a: a}
	r.Rules.Load(a.program(schema))
	r.Rules.Bind(ins.Events)
	return r
}

// RecoverReplicas rebuilds the agent's live replicas from its AGDB after a
// process restart: the real crash-recovery path of a multi-process
// deployment, where a killed agent loses every in-memory table and owns
// nothing but its database. The statuses of archived instances are replayed
// into the local terminal registry (and re-announced to Config.Notify, when
// non-empty, so a front end across the wire cannot miss a completion that
// raced the crash); each live instance record becomes a replica again,
// restoring the persisted rollback epoch and coordination election, and is
// re-evaluated so rules whose effects died with the process fire again.
// Messages the hub never saw acknowledged are replayed on reconnect, which is
// where the remaining in-flight state comes from.
func (a *Agent) RecoverReplicas() error {
	if a.cfg.AGDB == nil {
		return nil
	}
	var firstErr error
	a.Do(func() {
		db := a.cfg.AGDB
		for _, key := range db.ArchiveKeys() {
			wf, id, err := wfdb.ParseInstanceKey(key)
			if err != nil {
				continue
			}
			st, ok, err := db.ArchivedStatus(wf, id)
			if err != nil || !ok || st == wfdb.Running {
				continue
			}
			a.term.Complete(wf, id, st)
			if notify := a.cfg.Notify; notify != "" {
				a.Send(notify, metrics.Failure, KindWorkflowDone,
					&WorkflowDone{Workflow: wf, Instance: id, Status: st})
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
	name, err := CoordinatorFor(a.cfg.Library, a.cfg.Agents, workflow, id, a.cfg.Alive)
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
// replica with a NotifyTo address (a multi-process front end's, for nested
// instances too: Config.Notify) sends one WorkflowDone to it: the hub relays
// it to every agent process in place of the registry they cannot share.
func (a *Agent) retireReplica(r *replica) {
	st := r.Ins.Status
	r.dirty = false // the commit below must not write the row back
	// Archive before publishing completion: a woken waiter may Snapshot
	// immediately and must find the archived state. The archive row and the
	// deletion of the instance row go out in one group with whatever the turn
	// has pending, so a crash finds the instance, and its status, in exactly
	// one of the two tables. Only an AGDB holds an instance row to delete.
	if a.adb != nil {
		a.Tx().Archive(r.Ins)
		if a.cfg.AGDB != nil {
			a.Tx().DeleteInstance(r.Ins.Workflow, r.Ins.ID)
		}
		a.Commit()
	}
	a.term.Complete(r.Ins.Workflow, r.Ins.ID, st)
	if r.Ins.NotifyTo != "" {
		a.Send(r.Ins.NotifyTo, metrics.Normal, KindWorkflowDone,
			&WorkflowDone{Workflow: r.Ins.Workflow, Instance: r.Ins.ID, Status: st})
	}
	a.evict(r)
}

// dropReplica is how every other agent lets go of a replica whose instance
// finished elsewhere, learnt from the terminal registry: the partial copy is
// evicted and its AGDB row deleted in the turn's group.
// Nothing is archived; nobody reads a bystander's view of a finished instance.
func (a *Agent) dropReplica(r *replica) {
	a.evict(r)
	if a.cfg.AGDB != nil {
		a.Tx().DeleteInstance(r.Ins.Workflow, r.Ins.ID)
	}
}

// evict is the one place a replica leaves the live table: it is marked
// retired, so navigation still on the stack returns and its row is not
// written again, and it is queued for reuse. A replica is evicted once, and
// reused only after the turn's commit: the turn that evicts it may still
// read it (an Evaluate unwinding, the rows it added to the group), so recycle
// hands it to spares only once that turn has ended. A replica that is not in
// the table, evicted already, is left alone, so it never goes to spares
// twice, where two agents could then take it at once.
func (a *Agent) evict(r *replica) {
	key := replicaKey(r.Ins.Workflow, r.Ins.ID)
	if a.replicas[key] != r {
		return
	}
	r.Retired, r.dirty = true, false
	delete(a.replicas, key)
	if a.cfg.OnRetired != nil {
		a.cfg.OnRetired(r.Ins.Workflow, r.Ins.ID)
	}
	a.evicted = append(a.evicted, r)
}

// recycle is the agent's turn-end hook: the replicas the turn evicted become
// spares, for any agent of the process to build a replica out of.
func (a *Agent) recycle() {
	for i, r := range a.evicted {
		spares.Put(r)
		a.evicted[i] = nil
	}
	a.evicted = a.evicted[:0]
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
		out = fmt.Sprintf("status=%v epoch=%d@%d recovery=%v", // counter@agent index
			r.Ins.Status, r.epoch>>epochAgentBits, r.epoch&maxAgents, r.Recovery)
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

// InstanceStatus serves the WorkflowStatus WI from the terminal registry,
// then the live replica, then the archive row of an instance the agent
// coordinated in an earlier incarnation.
func (a *Agent) InstanceStatus(workflow string, id int) (wfdb.Status, bool) {
	var st wfdb.Status
	var ok bool
	a.Do(func() {
		if st, ok = a.term.Status(workflow, id); ok {
			return
		}
		if r, found := a.replicas[replicaKey(workflow, id)]; found {
			st, ok = r.Ins.Status, true
		} else if a.cfg.AGDB != nil {
			st, ok, _ = a.cfg.AGDB.ArchivedStatus(workflow, id)
		}
	})
	return st, ok
}
