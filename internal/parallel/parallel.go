// Package parallel implements the parallel workflow control architecture
// (paper Figure 6(b) and §6): several centralized engines work side by side
// to share the workflow management load, each instance being controlled by
// exactly one engine. Normal execution behaves like centralized control at
// every engine (the per-instance message count is unchanged), but
// coordinated execution now spans engines: the coordination state for the
// library's specs lives at a home engine, and the other engines reach it
// with physical messages — which is why, unlike Table 4's zero, Table 5
// reports coordination messages that grow with the number of engines.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"crew/internal/actor"
	"crew/internal/central"
	"crew/internal/coord"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// SystemConfig parameterizes a parallel deployment.
type SystemConfig struct {
	Library   *model.Library
	Programs  *model.Registry
	Collector *metrics.Collector
	// Engines is the paper's e; minimum 1.
	Engines int
	// Agents lists the shared application agents.
	Agents []string
	// DBs optionally gives each engine a database (len must equal Engines).
	DBs        []*wfdb.DB
	DisableOCR bool
	// Wire selects the transport backend (nil = in-process channels).
	Wire transport.Wire
	Logf func(format string, args ...any)
}

// System is a running parallel WFMS deployment. The embedded client supplies
// Start, Run, RunCtx and Wait over the StartCtx and WaitCtx below.
type System struct {
	*actor.Client
	engines []*central.Engine
	net     *transport.Network
	agents  []*central.Agent
	col     *metrics.Collector

	// owner and nextID are fixed-shard tables (hash on workflow+id), so
	// concurrent Start/Wait/routing traffic for different instances does not
	// contend on one system mutex. Owner entries are dropped when the owning
	// engine retires the instance (OnRetired), keeping the table flat.
	owner  itable.Map[int] // instance ref -> engine index
	nextID itable.Map[int] // {workflow, 0} -> last assigned ID
	rr     atomic.Int64

	// term is the terminal-status registry shared by every engine; archive
	// is the shared retirement archive of DB-less deployments, so any engine
	// can answer Snapshot for a retired instance.
	term    *itable.Terminal
	archive *wfdb.DB
}

// NewSystem builds and starts a parallel deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Library == nil || cfg.Programs == nil {
		return nil, errors.New("parallel: system needs a library and programs")
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
		return nil, errors.New("parallel: DBs length must equal Engines")
	}
	agents := cfg.Agents
	if len(agents) == 0 {
		agents = cfg.Library.SortedAgents()
	}
	if len(agents) == 0 {
		agents = []string{"agent1", "agent2"}
	}

	net := transport.NewNetwork(transport.NetworkConfig{Collector: cfg.Collector, Wire: cfg.Wire})
	sys := &System{
		net:     net,
		col:     cfg.Collector,
		term:    new(itable.Terminal),
		archive: wfdb.NewMemory(),
	}
	sys.Client = actor.NewClient("parallel", cfg.Library, sys)

	for i := 0; i < cfg.Engines; i++ {
		name := fmt.Sprintf("engine%d", i)
		var db *wfdb.DB
		if cfg.DBs != nil {
			db = cfg.DBs[i]
		}
		eng, err := central.NewEngine(central.Config{
			Name:       name,
			Library:    cfg.Library,
			Agents:     agents,
			Programs:   cfg.Programs,
			Collector:  cfg.Collector,
			DB:         db,
			Archive:    sys.archive,
			Terminal:   sys.term,
			DisableOCR: cfg.DisableOCR,
			Logf:       cfg.Logf,
			OnRetired: func(workflow string, id int) {
				sys.owner.Delete(itable.Ref{Workflow: workflow, ID: id})
			},
		}, net)
		if err != nil {
			sys.Close()
			return nil, err
		}
		sys.engines = append(sys.engines, eng)
	}

	// Coordinated execution: the state for the library's specs lives at
	// engine 0, which the others reach with physical messages; it routes an
	// injection to the engine owning the target instance and a rollback order
	// to every engine, as any may own instances of the dependent class.
	names := make([]string, len(sys.engines))
	for i, eng := range sys.engines {
		names[i] = eng.Name()
	}
	for _, eng := range sys.engines {
		eng.Place(names[0], names, func(inst coord.InstanceRef) string {
			return sys.engineFor(inst.Workflow, inst.ID).Name()
		})
	}

	for _, name := range agents {
		ag, err := central.NewAgent(name, net, cfg.Programs, cfg.Collector, cfg.Logf)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("parallel: agent %s: %w", name, err)
		}
		sys.agents = append(sys.agents, ag)
	}
	return sys, nil
}

// Engines returns the number of engines.
func (s *System) Engines() int { return len(s.engines) }

// Collector returns the metrics collector.
func (s *System) Collector() *metrics.Collector { return s.col }

// Network exposes the transport.
func (s *System) Network() *transport.Network { return s.net }

// engineFor returns the engine owning an instance.
func (s *System) engineFor(workflow string, id int) *central.Engine {
	idx, _ := s.owner.Get(itable.Ref{Workflow: workflow, ID: id})
	return s.engines[idx]
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
	s.owner.Put(itable.Ref{Workflow: workflow, ID: id}, idx)
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
	idx := seq % len(s.engines)
	s.nextID.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int {
		if id > v {
			return id
		}
		return v
	})
	for {
		cur := s.rr.Load()
		if int64(seq+1) <= cur || s.rr.CompareAndSwap(cur, int64(seq+1)) {
			break
		}
	}
	s.owner.Put(itable.Ref{Workflow: workflow, ID: id}, idx)
	return s.engines[idx].StartWithID(workflow, id, inputs)
}

// Quiesce blocks until no message is queued, undelivered or still being
// processed anywhere in the deployment.
func (s *System) Quiesce(ctx context.Context) error { return s.net.Quiesce(ctx) }

// WaitCtx blocks until the instance terminates or ctx ends (the contract is
// itable.Terminal.Wait's): it subscribes to the shared terminal registry —
// no routing through the owner map, which drops retired instances. An
// instance that finished under a previous engine incarnation exists only as
// a database summary, which its engine's Status reads.
func (s *System) WaitCtx(ctx context.Context, workflow string, id int) (wfdb.Status, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	return s.term.Wait(ctx, workflow, id, func() (wfdb.Status, bool) {
		return s.engineFor(workflow, id).Status(workflow, id)
	})
}

// Abort requests a user abort.
func (s *System) Abort(workflow string, id int) error {
	return s.engineFor(workflow, id).Abort(workflow, id)
}

// ChangeInputs applies user-initiated input changes.
func (s *System) ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error {
	return s.engineFor(workflow, id).ChangeInputs(workflow, id, inputs)
}

// Status reports an instance's status.
func (s *System) Status(workflow string, id int) (wfdb.Status, bool) {
	return s.engineFor(workflow, id).Status(workflow, id)
}

// Snapshot returns a deep copy of the instance state. Retired instances
// answer from the shared archive via any engine; DB-backed deployments fall
// back to scanning each engine's own archive.
func (s *System) Snapshot(workflow string, id int) (*wfdb.Instance, bool) {
	if ins, ok := s.engineFor(workflow, id).Snapshot(workflow, id); ok {
		return ins, true
	}
	for _, e := range s.engines {
		if ins, ok := e.Snapshot(workflow, id); ok {
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

// HaltNode simulates a process crash of a named node. A crashed engine
// discards its volatile state (rebuilt from its WFDB by RestartNode); agents
// are stateless, so for them — and unknown names — only the transport queue
// is parked. The home coordination tracker (engine 0) is treated as part of
// the persistent coordination database, matching the paper's assumption that
// scheduler state survives in stable storage.
func (s *System) HaltNode(name string) {
	s.net.Crash(name)
	for _, e := range s.engines {
		if e.Name() == name {
			e.Halt()
		}
	}
}

// RestartNode recovers a node halted by HaltNode: a crashed engine rebuilds
// from its WFDB, then the transport delivers the messages parked while the
// node was down.
func (s *System) RestartNode(name string) {
	for _, e := range s.engines {
		if e.Name() == name {
			e.Restart()
		}
	}
	s.net.Recover(name)
}
