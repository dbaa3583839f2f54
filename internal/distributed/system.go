package distributed

import (
	"context"
	"errors"
	"fmt"
	"time"

	"crew/internal/actor"
	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// SystemConfig parameterizes a distributed deployment: z agents, no engine.
type SystemConfig struct {
	Library   *model.Library
	Programs  *model.Registry
	Collector *metrics.Collector
	// Agents lists the agent node names (the paper's z); empty derives them
	// from the library, defaulting to three agents.
	Agents []string
	// AGDBs optionally gives each agent a database (len must match Agents).
	AGDBs            []*wfdb.DB
	DisableOCR       bool
	ExplicitElection bool
	PurgeOnCommit    bool
	// Wire selects the transport backend (nil = in-process channels).
	Wire transport.Wire
	Logf func(format string, args ...any)
	// sweepPeriod is every agent's Config.sweepPeriod.
	sweepPeriod time.Duration
}

// System is a running distributed WFMS deployment. Its methods play the role
// of the front-end database: they translate user requests into workflow
// interface invocations on coordination agents. The embedded client supplies
// Start, Run, RunCtx and Wait over the StartCtx and WaitCtx below.
type System struct {
	*actor.Client
	net    *transport.Network
	agents map[string]*Agent
	names  []string
	lib    *model.Library
	col    *metrics.Collector

	// term is the deployment-wide terminal-status registry shared by every
	// agent: WaitCtx subscribes to it, user operations pre-check it, and
	// agents retire replicas of finished instances against it.
	term *itable.Terminal
	// nextID allocates per-workflow instance ids (workflow-level entries,
	// ID 0). Sharded: concurrent Start calls for different workflows — and
	// mostly for the same one — do not contend on a single system lock.
	nextID itable.Map[int]
	// coordName remembers the coordination agent elected when an instance
	// started. Later operations (Wait, Abort, Status, ...) must route to that
	// same agent: re-electing with a liveness filter while the coordinator is
	// crashed would silently address a different agent, which never learns
	// the instance's fate. A crashed coordinator is reachable for local
	// subscription, and its parked protocol traffic drains on recovery.
	// Entries are evicted when the instance retires.
	coordName itable.Map[string]
}

// NewSystem builds and starts a distributed deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Library == nil || cfg.Programs == nil {
		return nil, errors.New("distributed: system needs a library and programs")
	}
	if err := cfg.Library.Validate(); err != nil {
		return nil, err
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector()
	}
	names := cfg.Agents
	if len(names) == 0 {
		names = cfg.Library.SortedAgents()
	}
	if len(names) == 0 {
		names = []string{"agent1", "agent2", "agent3"}
	}
	if cfg.AGDBs != nil && len(cfg.AGDBs) != len(names) {
		return nil, fmt.Errorf("distributed: %w: AGDBs length must match Agents", cerrors.ErrInvalidConfig)
	}

	net := transport.NewNetwork(transport.NetworkConfig{Collector: cfg.Collector, Wire: cfg.Wire})
	sys := &System{
		net:    net,
		agents: make(map[string]*Agent, len(names)),
		names:  append([]string(nil), names...),
		lib:    cfg.Library,
		col:    cfg.Collector,
		term:   new(itable.Terminal),
	}
	sys.Client = actor.NewClient("distributed", cfg.Library, sys)
	onRetired := func(workflow string, id int) {
		sys.coordName.Delete(itable.Ref{Workflow: workflow, ID: id})
	}
	for i, name := range names {
		var db *wfdb.DB
		if cfg.AGDBs != nil {
			db = cfg.AGDBs[i]
		}
		ag, err := NewAgent(Config{
			Name:             name,
			Library:          cfg.Library,
			Agents:           names,
			Programs:         cfg.Programs,
			Collector:        cfg.Collector,
			AGDB:             db,
			DisableOCR:       cfg.DisableOCR,
			ExplicitElection: cfg.ExplicitElection,
			PurgeOnCommit:    cfg.PurgeOnCommit,
			Terminal:         sys.term,
			OnRetired:        onRetired,
			Logf:             cfg.Logf,
			sweepPeriod:      cfg.sweepPeriod,
		}, net)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("distributed: agent %s: %w", name, err)
		}
		sys.agents[name] = ag
	}
	return sys, nil
}

// Collector returns the metrics collector.
func (s *System) Collector() *metrics.Collector { return s.col }

// Network exposes the transport (tests crash/recover agents through it).
func (s *System) Network() *transport.Network { return s.net }

// Agent returns a deployed agent by name.
func (s *System) Agent(name string) *Agent { return s.agents[name] }

// SchedulingNodes names the nodes whose load the paper's tables report: the
// agents, which schedule the workflows themselves.
func (s *System) SchedulingNodes() []string { return s.names }

// coordinationAgent returns the coordination agent of an instance: the one
// remembered from its start, or (for instances this front end did not start)
// the one elected among the currently alive eligible agents, which is then
// remembered for the instance's lifetime.
func (s *System) coordinationAgent(workflow string, id int) (*Agent, error) {
	ref := itable.Ref{Workflow: workflow, ID: id}
	if name, known := s.coordName.Get(ref); known {
		return s.agents[name], nil
	}
	name, err := CoordinatorFor(s.lib, s.names, workflow, id, s.net.Alive)
	if err != nil {
		return nil, err
	}
	ag, ok := s.agents[name]
	if !ok {
		return nil, fmt.Errorf("distributed: elected unknown agent %q", name)
	}
	// Remember the election only while the instance is live: a retired
	// instance's queries answer from the terminal registry and must not
	// repopulate the routing table.
	if st, done := s.term.Status(workflow, id); !done || st == wfdb.Running {
		s.coordName.Put(ref, name)
	}
	return ag, nil
}

// StartCtx launches an instance via its coordination agent's WorkflowStart
// WI. The context gates only the admission of the request; a started instance
// keeps running after ctx is cancelled.
func (s *System) StartCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	id := s.nextID.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int { return v + 1 })
	ag, err := s.coordinationAgent(workflow, id)
	if err != nil {
		return 0, err
	}
	if err := ag.StartInstance(workflow, id, inputs); err != nil {
		return 0, err
	}
	return id, nil
}

// StartSeq launches an instance under an externally assigned ID. Placement is
// a pure function of (workflow, id) — the elected coordination agent — so the
// global sequence number is unused; accepting it lets concurrent drivers
// start instances in any order without changing where work lands. A StartSeq
// racing Close fails with cerrors.ErrClosed instead of panicking on the
// closed transport.
func (s *System) StartSeq(workflow string, id, seq int, inputs map[string]expr.Value) error {
	if err := s.Admit(context.Background(), ""); err != nil {
		return err
	}
	s.nextID.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int {
		if id > v {
			return id
		}
		return v
	})
	ag, err := s.coordinationAgent(workflow, id)
	if err != nil {
		return err
	}
	return ag.StartInstance(workflow, id, inputs)
}

// Quiesce blocks until no message is queued, undelivered or still being
// processed anywhere in the deployment, and then has every agent let go of its
// replicas of instances that finished elsewhere. Those leave at the agent's
// next turn in any case and dropping them sends nothing; done here, what a
// quiesced deployment holds does not depend on which agent took a turn last.
func (s *System) Quiesce(ctx context.Context) error {
	if err := s.net.Quiesce(ctx); err != nil {
		return err
	}
	for _, name := range s.names {
		a := s.agents[name]
		a.Do(a.dropFinished)
	}
	return nil
}

// WaitCtx blocks until the instance terminates or ctx ends (the contract is
// itable.Terminal.Wait's): it subscribes to the deployment's shared terminal
// registry, so a Wait can neither stall behind a long-running step program
// nor wake any agent. A completion from a previous incarnation exists only
// as a summary in the coordination agent's database (read directly — the
// store is internally synchronized).
func (s *System) WaitCtx(ctx context.Context, workflow string, id int) (wfdb.Status, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	return s.term.Wait(ctx, workflow, id, func() (wfdb.Status, bool) {
		ag, err := s.coordinationAgent(workflow, id)
		if err != nil || ag.cfg.AGDB == nil {
			return 0, false
		}
		sum, found, _ := ag.cfg.AGDB.LoadSummary(workflow, id)
		return sum, found
	})
}

// running returns the coordination agent of an instance a user operation
// may still change. A retired instance reports cerrors.ErrNotRunning without
// touching any agent.
func (s *System) running(workflow string, id int) (*Agent, error) {
	if st, ok := s.term.Status(workflow, id); ok && st != wfdb.Running {
		return nil, fmt.Errorf("distributed: %w: %s.%d is %v", cerrors.ErrNotRunning, workflow, id, st)
	}
	return s.coordinationAgent(workflow, id)
}

// Abort requests a user abort via the WorkflowAbort WI.
func (s *System) Abort(workflow string, id int) error {
	ag, err := s.running(workflow, id)
	if err == nil {
		ag.Do(func() { err = ag.handleWorkflowAbort(workflowAbort{Workflow: workflow, Instance: id}) })
	}
	return err
}

// ChangeInputs applies user input changes via WorkflowChangeInputs.
func (s *System) ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error {
	ag, err := s.running(workflow, id)
	if err == nil {
		ag.Do(func() {
			err = ag.handleWorkflowChangeInputs(workflowChangeInputs{Workflow: workflow, Instance: id, Inputs: inputs})
		})
	}
	return err
}

// Status serves the WorkflowStatus WI: the shared terminal registry answers
// for every finished instance, live ones ask their coordination agent.
func (s *System) Status(workflow string, id int) (wfdb.Status, bool) {
	if st, ok := s.term.Status(workflow, id); ok {
		return st, true
	}
	ag, err := s.coordinationAgent(workflow, id)
	if err != nil {
		return 0, false
	}
	return ag.InstanceStatus(workflow, id)
}

// Snapshot returns the coordination agent's replica of the instance.
func (s *System) Snapshot(workflow string, id int) (*wfdb.Instance, bool) {
	ag, err := s.coordinationAgent(workflow, id)
	if err != nil {
		return nil, false
	}
	return ag.Snapshot(workflow, id)
}

// SnapshotAt returns a specific agent's replica of the instance.
func (s *System) SnapshotAt(agent, workflow string, id int) (*wfdb.Instance, bool) {
	ag, ok := s.agents[agent]
	if !ok {
		return nil, false
	}
	return ag.Snapshot(workflow, id)
}

// Close shuts the deployment down. Later context-aware calls fail with
// cerrors.ErrClosed.
func (s *System) Close() {
	if !s.Shut() {
		return
	}
	s.net.Close()
	for _, a := range s.agents {
		a.Stop()
	}
}

// HaltNode simulates a crash of a named agent. In the distributed
// architecture every agent replicates the coordination state of the
// instances it touches into its AGDB, so a crash only parks the agent's
// transport queue: undelivered messages wait, peers keep navigating, and the
// parked traffic drains on RestartNode — the paper's persistent-queue
// recovery contract.
func (s *System) HaltNode(name string) { s.net.Crash(name) }

// RestartNode recovers an agent halted by HaltNode, delivering the messages
// parked while it was down.
func (s *System) RestartNode(name string) { s.net.Recover(name) }
