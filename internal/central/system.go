package central

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"crew/internal/actor"
	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// SystemConfig parameterizes an engine-based deployment: e engines plus their
// application agents, on a private network.
type SystemConfig struct {
	Library   *model.Library
	Programs  *model.Registry
	Collector *metrics.Collector
	// Engines is the paper's e; minimum 1. One engine is the centralized
	// architecture, several are the parallel one.
	Engines int
	// Agents lists the shared application agents; empty derives them from the
	// library's eligible-agent declarations, defaulting to two agents.
	Agents []string
	// DBs optionally gives each engine a database (len must equal Engines).
	DBs []*wfdb.DB
	// DisableOCR forces Saga-style recovery (ablation).
	DisableOCR bool
	// Wire selects the socket backend (nil = in process).
	Wire *transport.SocketWire
	Logf func(format string, args ...any)
}

// System is a running engine-based WFMS. The embedded client supplies Start,
// Run, RunCtx and Wait over the StartCtx and WaitCtx below.
type System struct {
	*actor.Client
	engines []*Engine
	names   []string // the engines' node names
	dbs     []*wfdb.DB
	net     *transport.Network
	agents  []*Agent
	col     *metrics.Collector
	rr      atomic.Int64

	// Shared by every engine (Config.Terminal, Archive, IDs, Owners): the
	// terminal-status registry, the retirement archive of DB-less deployments
	// (so any engine can answer Snapshot for a retired instance), the
	// per-workflow id counters ({workflow, 0} -> last assigned ID) and the
	// owner of every live instance. The last two are fixed-shard tables, so
	// concurrent Start/Wait/routing traffic for different instances does not
	// contend on one system mutex.
	term    itable.Terminal
	archive *wfdb.DB
	nextID  itable.Map[int]
	owner   itable.Map[*Engine]
}

// NewSystem builds and starts an engine-based deployment. Its scheduling
// nodes are named after their count: one engine is "engine", e of them are
// "engine0" to "engine{e-1}".
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Library == nil || cfg.Programs == nil {
		return nil, errors.New("central: system needs a library and programs")
	}
	if err := cfg.Library.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engines < 1 {
		cfg.Engines = 1
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector()
	}
	if cfg.DBs != nil && len(cfg.DBs) != cfg.Engines {
		return nil, fmt.Errorf("central: %w: DBs length must equal Engines", cerrors.ErrInvalidConfig)
	}
	agents := cfg.Agents
	if len(agents) == 0 {
		agents = cfg.Library.SortedAgents()
	}
	if len(agents) == 0 {
		agents = []string{"agent1", "agent2"}
	}

	// The shared archive keeps its rows spilled (wfdb.DB.SpillArchive).
	archive := wfdb.NewMemory()
	if err := archive.SpillArchive(); err != nil {
		return nil, err
	}
	net := transport.NewNetwork(transport.NetworkConfig{Collector: cfg.Collector, Wire: cfg.Wire})
	sys := &System{net: net, col: cfg.Collector, dbs: cfg.DBs, archive: archive}
	sys.Client = actor.NewClient("central", cfg.Library, sys)

	names := make([]string, cfg.Engines)
	for i := range names {
		names[i] = fmt.Sprintf("engine%d", i)
	}
	if cfg.Engines == 1 {
		names[0] = "engine"
	}
	sys.names = names
	for i, name := range names {
		var db *wfdb.DB
		if cfg.DBs != nil {
			db = cfg.DBs[i]
		}
		eng, err := NewEngine(Config{
			Name:       name,
			Library:    cfg.Library,
			Agents:     agents,
			Programs:   cfg.Programs,
			Collector:  cfg.Collector,
			DB:         db,
			Archive:    sys.archive,
			Terminal:   &sys.term,
			IDs:        &sys.nextID,
			Owners:     &sys.owner,
			DisableOCR: cfg.DisableOCR,
			Logf:       cfg.Logf,
		}, net)
		if err != nil {
			sys.Close()
			return nil, err
		}
		sys.engines = append(sys.engines, eng)
	}
	// Coordinated execution: the state for the library's specs lives at the
	// first engine, which the others reach with physical messages.
	for _, eng := range sys.engines {
		eng.Place(names[0], names)
	}

	for _, name := range agents {
		ag, err := NewAgent(name, net, cfg.Programs, cfg.Collector, cfg.Logf)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("central: agent %s: %w", name, err)
		}
		sys.agents = append(sys.agents, ag)
	}
	return sys, nil
}

// SchedulingNodes names the nodes whose load the paper's tables report: the
// engines.
func (s *System) SchedulingNodes() []string { return s.names }

// Collector returns the metrics collector.
func (s *System) Collector() *metrics.Collector { return s.col }

// Network exposes the transport (tests crash/recover agents through it).
func (s *System) Network() *transport.Network { return s.net }

// engineFor returns the engine owning an instance. A retired instance has no
// owner any more; any engine answers for it from the shared registry and
// archive.
func (s *System) engineFor(workflow string, id int) *Engine {
	if e, ok := s.owner.Get(itable.Ref{Workflow: workflow, ID: id}); ok {
		return e
	}
	return s.engines[0]
}

// StartCtx launches an instance on the next engine (round robin). The context
// gates only the admission of the request; a started instance keeps running
// after ctx is cancelled.
func (s *System) StartCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	id := s.nextID.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int { return v + 1 })
	idx := int(s.rr.Add(1)-1) % len(s.engines)
	if err := s.engines[idx].StartWithID(workflow, id, inputs); err != nil {
		return 0, err
	}
	return id, nil
}

// StartSeq launches an instance under an externally assigned ID and global
// sequence number. The owning engine is seq modulo the engine count — the
// same placement the round-robin Start produces when instances are started
// one at a time in sequence order — so concurrent drivers reproduce the
// sequential placement exactly regardless of call interleaving. A StartSeq
// racing Close fails with cerrors.ErrClosed instead of panicking on the
// closed transport.
func (s *System) StartSeq(workflow string, id, seq int, inputs map[string]expr.Value) error {
	if err := s.Admit(context.Background(), ""); err != nil {
		return err
	}
	s.nextID.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int { return max(v, id) })
	for {
		cur := s.rr.Load()
		if int64(seq+1) <= cur || s.rr.CompareAndSwap(cur, int64(seq+1)) {
			break
		}
	}
	return s.engines[seq%len(s.engines)].StartWithID(workflow, id, inputs)
}

// Quiesce blocks until no message is queued, undelivered or still being
// processed anywhere in the deployment.
func (s *System) Quiesce(ctx context.Context) error { return s.net.Quiesce(ctx) }

// WaitCtx blocks until the instance reaches a terminal status or ctx ends
// (the contract is itable.Terminal.Wait's): it subscribes to the shared
// terminal registry, with no routing through the owner table. A completion
// from a previous incarnation exists only as an archive row in an engine's
// database (read directly; the store is internally synchronized).
func (s *System) WaitCtx(ctx context.Context, workflow string, id int) (wfdb.Status, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	var older func() (wfdb.Status, bool)
	if s.dbs != nil {
		older = func() (wfdb.Status, bool) {
			for _, db := range s.dbs {
				if st, found, _ := db.ArchivedStatus(workflow, id); found {
					return st, true
				}
			}
			return 0, false
		}
	}
	return s.term.Wait(ctx, workflow, id, older)
}

// Abort requests a user abort.
func (s *System) Abort(workflow string, id int) error {
	return s.engineFor(workflow, id).Abort(workflow, id)
}

// ChangeInputs applies a user-initiated input change.
func (s *System) ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error {
	return s.engineFor(workflow, id).ChangeInputs(workflow, id, inputs)
}

// Status reports an instance's status.
func (s *System) Status(workflow string, id int) (wfdb.Status, bool) {
	return s.engineFor(workflow, id).Status(workflow, id)
}

// Snapshot returns the instance state; the returned instance is the caller's,
// referenced by nothing else. A waiter's first Snapshot takes the final
// instance its engine handed over, a live instance is read by its owner, and a
// finished one is read from the engines' archives (their databases, or the
// shared one) without an engine turn, each archive looked up once.
func (s *System) Snapshot(workflow string, id int) (*wfdb.Instance, bool) {
	if ins := s.term.Take(workflow, id); ins != nil {
		return ins, true
	}
	if e, ok := s.owner.Get(itable.Ref{Workflow: workflow, ID: id}); ok {
		return e.Snapshot(workflow, id)
	}
	archives := s.engines // one database each
	if len(s.dbs) == 0 {
		archives = s.engines[:1] // all share s.archive
	}
	for _, e := range archives {
		if ins, ok := e.archived(workflow, id); ok {
			return ins, true
		}
	}
	return nil, false
}

// Close shuts the deployment down. Later context-aware calls fail with
// cerrors.ErrClosed.
func (s *System) Close() {
	if !s.Shut() {
		return
	}
	s.net.Close()
	for _, e := range s.engines {
		e.Stop()
	}
	for _, a := range s.agents {
		a.Stop()
	}
}

// engine returns the engine of that node name, nil for agents and unknown
// names.
func (s *System) engine(name string) *Engine {
	for _, e := range s.engines {
		if e.Name() == name {
			return e
		}
	}
	return nil
}

// HaltNode simulates a process crash of a named node. A crashed engine
// discards its volatile state (rebuilt from its WFDB by RestartNode); agents
// are stateless, so for them — and unknown names — only the transport queue
// is parked. The home coordination tracker (the first engine's) is treated as
// part of the persistent coordination database, matching the paper's
// assumption that scheduler state survives in stable storage.
func (s *System) HaltNode(name string) {
	s.net.Crash(name)
	if e := s.engine(name); e != nil {
		e.Halt()
	}
}

// RestartNode recovers a node halted by HaltNode: a crashed engine rebuilds
// from its WFDB, then the transport delivers the messages parked while the
// node was down.
func (s *System) RestartNode(name string) {
	if e := s.engine(name); e != nil {
		e.Restart()
	}
	s.net.Recover(name)
}

// Recover resumes the running instances persisted in the engines' databases:
// the forward recovery of a deployment started over the databases of one that
// died. It returns the number of instances resumed.
func (s *System) Recover() (int, error) {
	total := 0
	for _, e := range s.engines {
		n, err := e.Recover()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
