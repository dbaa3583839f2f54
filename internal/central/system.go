package central

import (
	"context"
	"errors"
	"fmt"

	"crew/internal/actor"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// SystemConfig parameterizes a complete centralized deployment: one engine
// plus its application agents, on a private network.
type SystemConfig struct {
	Library   *model.Library
	Programs  *model.Registry
	Collector *metrics.Collector
	DB        *wfdb.DB
	// Agents lists agent node names; empty derives them from the library's
	// eligible-agent declarations, defaulting to two agents.
	Agents []string
	// EngineName defaults to "engine".
	EngineName string
	// DisableOCR forces Saga-style recovery (ablation).
	DisableOCR bool
	// Wire selects the transport backend (nil = in-process channels).
	Wire transport.Wire
	Logf func(format string, args ...any)
}

// System is a running centralized WFMS. The embedded client supplies Start,
// Run, RunCtx and Wait over the StartCtx and WaitCtx below.
type System struct {
	*actor.Client
	Engine *Engine
	net    *transport.Network
	agents []*Agent
	col    *metrics.Collector
}

// NewSystem builds and starts a centralized deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Library == nil {
		return nil, errors.New("central: system needs a library")
	}
	if err := cfg.Library.Validate(); err != nil {
		return nil, err
	}
	if cfg.Programs == nil {
		return nil, errors.New("central: system needs a program registry")
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector()
	}
	if cfg.EngineName == "" {
		cfg.EngineName = "engine"
	}
	agents := cfg.Agents
	if len(agents) == 0 {
		agents = cfg.Library.SortedAgents()
	}
	if len(agents) == 0 {
		agents = []string{"agent1", "agent2"}
	}

	net := transport.NewNetwork(transport.NetworkConfig{Collector: cfg.Collector, Wire: cfg.Wire})
	eng, err := NewEngine(Config{
		Name:       cfg.EngineName,
		Library:    cfg.Library,
		Agents:     agents,
		Programs:   cfg.Programs,
		Collector:  cfg.Collector,
		DB:         cfg.DB,
		DisableOCR: cfg.DisableOCR,
		Logf:       cfg.Logf,
	}, net)
	if err != nil {
		net.Close()
		return nil, err
	}

	sys := &System{Engine: eng, net: net, col: cfg.Collector}
	sys.Client = actor.NewClient("central", cfg.Library, sys)
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

// Collector returns the system's metrics collector.
func (s *System) Collector() *metrics.Collector { return s.col }

// Network exposes the transport (tests crash/recover agents through it).
func (s *System) Network() *transport.Network { return s.net }

// StartCtx launches an instance and returns its ID. The context gates only
// the admission of the request; a started instance keeps running after ctx
// is cancelled.
func (s *System) StartCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	return s.Engine.Start(workflow, inputs)
}

// StartSeq launches an instance under an externally assigned ID. The global
// sequence number is unused by the centralized architecture; accepting it
// lets concurrent drivers start instances in any order without changing
// where work lands (there is only one engine). A StartSeq racing Close
// fails with cerrors.ErrClosed instead of panicking on the closed transport.
func (s *System) StartSeq(workflow string, id, seq int, inputs map[string]expr.Value) error {
	if err := s.Admit(context.Background(), ""); err != nil {
		return err
	}
	return s.Engine.StartWithID(workflow, id, inputs)
}

// Quiesce blocks until no message is queued, undelivered or still being
// processed anywhere in the deployment.
func (s *System) Quiesce(ctx context.Context) error { return s.net.Quiesce(ctx) }

// WaitCtx blocks until the instance reaches a terminal status or ctx ends
// (the contract is itable.Terminal.Wait's). A completion from a previous
// engine incarnation exists only as a summary in the database.
func (s *System) WaitCtx(ctx context.Context, workflow string, id int) (wfdb.Status, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	var older func() (wfdb.Status, bool)
	if db := s.Engine.cfg.DB; db != nil {
		older = func() (wfdb.Status, bool) {
			sum, found, _ := db.LoadSummary(workflow, id)
			return sum, found
		}
	}
	return s.Engine.Terminal().Wait(ctx, workflow, id, older)
}

// Abort requests a user abort.
func (s *System) Abort(workflow string, id int) error { return s.Engine.Abort(workflow, id) }

// ChangeInputs applies a user-initiated input change.
func (s *System) ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error {
	return s.Engine.ChangeInputs(workflow, id, inputs)
}

// Status reports an instance's status.
func (s *System) Status(workflow string, id int) (wfdb.Status, bool) {
	return s.Engine.Status(workflow, id)
}

// Snapshot returns a deep copy of the instance state.
func (s *System) Snapshot(workflow string, id int) (*wfdb.Instance, bool) {
	return s.Engine.Snapshot(workflow, id)
}

// Close shuts the deployment down. Later context-aware calls fail with
// cerrors.ErrClosed.
func (s *System) Close() {
	if !s.Shut() {
		return
	}
	s.net.Close()
	s.Engine.Stop()
	for _, a := range s.agents {
		a.Stop()
	}
}

// HaltNode simulates a process crash of a named node. For the engine this
// discards its volatile state (RestartNode rebuilds it from the WFDB); for
// agents — which are stateless — and unknown names it only parks the node's
// transport queue.
func (s *System) HaltNode(name string) {
	s.net.Crash(name)
	if name == s.Engine.Name() {
		s.Engine.Halt()
	}
}

// RestartNode recovers a node halted by HaltNode: the engine rebuilds from
// the WFDB, the transport delivers the messages parked while it was down.
func (s *System) RestartNode(name string) {
	if name == s.Engine.Name() {
		s.Engine.Restart()
	}
	s.net.Recover(name)
}

// Recover resumes running instances persisted in the system's database — the
// forward recovery of a restarted engine.
func (s *System) Recover() (int, error) { return s.Engine.Recover() }
