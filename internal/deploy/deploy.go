// Package deploy builds the deployment an architecture names. The paper's
// three control architectures (Figure 6) are two kinds of deployment: engines
// that schedule for stateless agents (package central; one engine is the
// centralized architecture, several are the parallel one) or agents that
// schedule among themselves (package distributed). The public crew.NewSystem
// and the measured experiments all build through New, so which facade an
// architecture gets, over which wire, with whose databases, is decided here
// and nowhere else.
package deploy

import (
	"context"
	"fmt"
	"time"

	"crew/internal/analysis"
	"crew/internal/central"
	"crew/internal/cerrors"
	"crew/internal/distributed"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// Config is what a deployment is built from. Library and Programs are
// required; the zero value of everything else is a default.
type Config struct {
	Library   *model.Library
	Programs  *model.Registry
	Collector *metrics.Collector
	// Agents names the agent nodes; empty derives them from the library.
	Agents []string
	// Engines is the parallel architecture's engine count (the paper's e).
	Engines int
	// DBs optionally gives each scheduling node its database, in
	// SchedulingNodes order.
	DBs []*wfdb.DB
	// DisableOCR forces Saga-style recovery (ablation).
	DisableOCR bool
	// ExplicitElection is distributed.Config's.
	ExplicitElection bool
	// Backend names the wire between the nodes: "" or "inproc" (in process),
	// "unix" or "tcp" (every message crosses a real socket, listening at Addr
	// or, when that is empty, at a fresh temp path or loopback port).
	Backend, Addr string
	Logf          func(format string, args ...any)
}

// System is a running deployment: the public crew.System plus what harnesses
// need to drive, settle, fault and measure it.
type System interface {
	Start(workflow string, inputs map[string]expr.Value) (int, error)
	StartCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, error)
	Run(workflow string, inputs map[string]expr.Value, timeout time.Duration) (int, wfdb.Status, error)
	RunCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, wfdb.Status, error)
	Wait(workflow string, id int, timeout time.Duration) (wfdb.Status, error)
	WaitCtx(ctx context.Context, workflow string, id int) (wfdb.Status, error)
	Abort(workflow string, id int) error
	ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error
	Status(workflow string, id int) (wfdb.Status, bool)
	Snapshot(workflow string, id int) (*wfdb.Instance, bool)
	Collector() *metrics.Collector
	Close()

	// StartSeq launches an instance under an externally assigned ID and global
	// sequence number, so concurrent drivers place work deterministically.
	StartSeq(workflow string, id, seq int, inputs map[string]expr.Value) error
	// Quiesce blocks until no message is queued, undelivered or being handled.
	Quiesce(ctx context.Context) error
	// Network exposes the transport (fault injectors attach to it).
	Network() *transport.Network
	// HaltNode and RestartNode crash and recover a named node.
	HaltNode(name string)
	RestartNode(name string)
	// SchedulingNodes names the nodes whose load the paper's tables report:
	// "engine", "engine0".."engine{e-1}", or the agents.
	SchedulingNodes() []string
}

// Engines is the number of engines arch runs: one for the centralized
// architecture, e (at least one) for the parallel one, none for the
// distributed one, whose agents schedule.
func Engines(arch analysis.Architecture, e int) int {
	switch arch {
	case analysis.Central:
		return 1
	case analysis.Parallel:
		return max(e, 1)
	default:
		return 0
	}
}

// New builds and starts the deployment arch names.
func New(arch analysis.Architecture, cfg Config) (System, error) {
	engines := Engines(arch, cfg.Engines)
	if engines == 0 && arch != analysis.Distributed {
		return nil, fmt.Errorf("deploy: %w: unknown architecture %v", cerrors.ErrInvalidConfig, arch)
	}
	var wire *transport.SocketWire
	if cfg.Backend != "" && cfg.Backend != "inproc" {
		var err error
		if wire, err = transport.NewSocketWire(cfg.Backend, cfg.Addr); err != nil {
			return nil, err
		}
	}
	if engines > 0 {
		return central.NewSystem(central.SystemConfig{
			Library:    cfg.Library,
			Programs:   cfg.Programs,
			Collector:  cfg.Collector,
			Engines:    engines,
			Agents:     cfg.Agents,
			DBs:        cfg.DBs,
			DisableOCR: cfg.DisableOCR,
			Wire:       wire,
			Logf:       cfg.Logf,
		})
	}
	return distributed.NewSystem(distributed.SystemConfig{
		Library:          cfg.Library,
		Programs:         cfg.Programs,
		Collector:        cfg.Collector,
		Agents:           cfg.Agents,
		AGDBs:            cfg.DBs,
		DisableOCR:       cfg.DisableOCR,
		ExplicitElection: cfg.ExplicitElection,
		Wire:             wire,
		Logf:             cfg.Logf,
	})
}
