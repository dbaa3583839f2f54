// Package crew is a Go reproduction of "Failure Handling and Coordinated
// Execution of Concurrent Workflows" (Kamath & Ramamritham, ICDE 1998): a
// rule-based workflow management system with three interchangeable control
// architectures — centralized, parallel and distributed — plus the paper's
// failure-handling machinery (partial rollback, thread halting, compensation
// dependent sets, opportunistic compensation and re-execution) and
// coordinated execution across concurrent workflows (relative ordering,
// mutual exclusion, rollback dependencies).
//
// A minimal program:
//
//	lib := crew.NewLibrary()
//	lib.Add(crew.NewSchema("Hello").
//		Step("Greet", "greet").
//		MustBuild())
//	reg := crew.NewRegistry()
//	reg.Register("greet", func(*crew.ProgramContext) (map[string]crew.Value, error) {
//		fmt.Println("hello, workflow")
//		return nil, nil
//	})
//	sys, _ := crew.NewSystem(crew.Config{Library: lib, Programs: reg})
//	defer sys.Close()
//	id, _ := sys.Start("Hello", nil)
//	sys.Wait("Hello", id, time.Second)
//
// Workflows can also be written in the LAWS specification language and
// compiled with CompileLAWS. Choose the control architecture with
// Config.Architecture; the same library, programs and API run unchanged on
// all three, which is exactly what the paper's evaluation compares.
//
// The System interface is context-aware — StartCtx, RunCtx and WaitCtx
// accept a context, and the duration-based calls are thin wrappers over
// them — and reports failure classes through typed sentinels
// (ErrUnknownWorkflow, ErrUnknownInstance, ErrNotRunning, ErrTimeout,
// ErrClosed) that errors.Is-match identically on every architecture.
//
// Deployments can be fault-injected deterministically: WithFaults arms a
// seeded FaultPlan (see NewChaosPlan) of scheduled node crashes and
// recoveries, per-link message drops and delays, and transient step
// failures. A crashed engine halts and later rebuilds its volatile state
// from the workflow database (give it one with Config.DB/DBs); the transport
// parks and replays a crashed node's messages — the paper's persistent-queue
// recovery contract. The same seed reproduces the same fault schedule.
package crew

import (
	"context"
	"fmt"
	"time"

	"crew/internal/analysis"
	"crew/internal/cerrors"
	"crew/internal/deploy"
	"crew/internal/expr"
	"crew/internal/faults"
	"crew/internal/frontend"
	"crew/internal/laws"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/wfdb"
)

// Core modeling types, aliased from the implementation packages so they are
// usable without importing internal paths.
type (
	// Schema is a workflow definition: a directed graph of steps.
	Schema = model.Schema
	// SchemaBuilder builds schemas fluently; see NewSchema.
	SchemaBuilder = model.Builder
	// Library is a set of schemas plus cross-workflow coordination specs.
	Library = model.Library
	// Step is one node of a schema.
	Step = model.Step
	// StepID identifies a step within a schema.
	StepID = model.StepID
	// StepOption customizes a step added through a SchemaBuilder.
	StepOption = model.StepOption
	// Arc connects two steps (control or data flow).
	Arc = model.Arc
	// FailurePolicy is a step's failure-handling specification.
	FailurePolicy = model.FailurePolicy
	// CoordSpec is a coordinated-execution requirement across workflows.
	CoordSpec = model.CoordSpec
	// StepRef qualifies a step with its workflow class.
	StepRef = model.StepRef
	// ConflictPair is one conflicting step pair of a relative-order spec.
	ConflictPair = model.ConflictPair

	// Value is a dynamically typed workflow data value.
	Value = expr.Value
	// Program is a black-box step program.
	Program = model.Program
	// ProgramContext carries a program invocation's arguments.
	ProgramContext = model.ProgramContext
	// PrevExecution exposes a step's previous execution to re-executions.
	PrevExecution = model.PrevExecution
	// Registry maps program names to implementations.
	Registry = model.Registry

	// Status is a workflow instance's life-cycle state.
	Status = wfdb.Status
	// Instance is a snapshot of one workflow instance's state.
	Instance = wfdb.Instance
	// DB is a workflow database: the persistent instance store an engine
	// recovers from after a crash.
	DB = wfdb.DB
	// FaultPlan is a deterministic, seeded fault-injection schedule; pass it
	// to NewSystem through WithFaults.
	FaultPlan = faults.Plan
	// FaultEvent schedules one node crash or recovery within a FaultPlan.
	FaultEvent = faults.Event
	// LinkFault injects per-link message drops and delays within a FaultPlan.
	LinkFault = faults.LinkFault
	// Collector accumulates the load and message metrics the paper's
	// evaluation compares.
	Collector = metrics.Collector
	// Mechanism classifies load/messages by the evaluation's five rows.
	Mechanism = metrics.Mechanism
	// Params is the evaluation's Table 3 parameter point.
	Params = analysis.Parameters
	// FrontEnd maps external request IDs to workflow instances.
	FrontEnd = frontend.FrontEnd
)

// Instance life-cycle states.
const (
	Running   = wfdb.Running
	Committed = wfdb.Committed
	Aborted   = wfdb.Aborted
)

// Join policies for confluence steps.
const (
	JoinAll = model.JoinAll
	JoinAny = model.JoinAny
)

// Coordination spec kinds.
const (
	Mutex         = model.Mutex
	RelativeOrder = model.RelativeOrder
	RollbackDep   = model.RollbackDep
)

// Metric mechanism classes.
const (
	MechNormal       = metrics.Normal
	MechInputChange  = metrics.InputChange
	MechAbort        = metrics.Abort
	MechFailure      = metrics.Failure
	MechCoordination = metrics.Coordination
)

// Fault-plan event actions.
const (
	// FaultCrash halts a node at a scheduled point.
	FaultCrash = faults.Crash
	// FaultRecover restarts a crashed node.
	FaultRecover = faults.Recover
)

// Sentinel errors shared by every architecture. All System methods wrap these
// values, so callers match failure classes with errors.Is regardless of the
// deployed architecture.
var (
	// ErrUnknownWorkflow reports a workflow class absent from the library.
	ErrUnknownWorkflow = cerrors.ErrUnknownWorkflow
	// ErrUnknownInstance reports an instance that was never started.
	ErrUnknownInstance = cerrors.ErrUnknownInstance
	// ErrNotRunning reports an operation on a terminated instance.
	ErrNotRunning = cerrors.ErrNotRunning
	// ErrTimeout reports that a wait deadline elapsed first.
	ErrTimeout = cerrors.ErrTimeout
	// ErrClosed reports an operation on a closed System.
	ErrClosed = cerrors.ErrClosed
	// ErrInvalidConfig reports a Config or fault plan rejected by Validate.
	ErrInvalidConfig = cerrors.ErrInvalidConfig
)

// Value constructors.
var (
	// Num builds a numeric value.
	Num = expr.Num
	// Str builds a string value.
	Str = expr.Str
	// Bool builds a boolean value.
	Bool = expr.Bool
	// Null builds the null value.
	Null = expr.Null
)

// Schema-building helpers.
var (
	// NewSchema starts a schema builder.
	NewSchema = model.NewSchema
	// NewLibrary creates an empty library.
	NewLibrary = model.NewLibrary
	// WithAgents sets a step's eligible agents.
	WithAgents = model.WithAgents
	// WithCompensation sets a step's compensation program.
	WithCompensation = model.WithCompensation
	// WithInputs declares a step's consumed data items (full names).
	WithInputs = model.WithInputs
	// WithOutputs declares a step's produced data items (short names).
	WithOutputs = model.WithOutputs
	// WithUpdate marks a step as updating shared resources.
	WithUpdate = model.WithUpdate
	// WithJoin sets a confluence step's join policy.
	WithJoin = model.WithJoin
	// WithReexecCond sets a step's OCR re-execution condition.
	WithReexecCond = model.WithReexecCond
	// WithIncremental marks a step as supporting incremental re-execution.
	WithIncremental = model.WithIncremental
	// WithName sets a human-readable step label.
	WithName = model.WithName
)

// Program helpers.
var (
	// NewRegistry creates an empty program registry.
	NewRegistry = model.NewRegistry
	// NopProgram succeeds producing null outputs.
	NopProgram = model.NopProgram
	// ConstProgram produces fixed outputs.
	ConstProgram = model.ConstProgram
	// FailNTimes fails the first n executions, then delegates.
	FailNTimes = model.FailNTimes
	// Fail builds a logical step-failure error.
	Fail = model.Fail
	// NewCollector creates a metrics collector.
	NewCollector = metrics.NewCollector
	// DefaultParams returns the paper's average-case Table 3 parameters.
	DefaultParams = analysis.Default
	// NewMemoryDB creates an in-memory workflow database.
	NewMemoryDB = wfdb.NewMemory
	// NewChaosPlan derives a deterministic crash/recovery schedule from a
	// seed: crashes crashes spread over targets, the i-th at message
	// firstAt+i*spacing, recovering downtime messages later.
	NewChaosPlan = faults.ChaosPlan
)

// CompileLAWS compiles a LAWS specification into a validated library.
func CompileLAWS(src string) (*Library, error) { return laws.Compile(src) }

// MustCompileLAWS is CompileLAWS panicking on error.
func MustCompileLAWS(src string) *Library { return laws.MustCompile(src) }

// NewFrontEnd builds an administrative front end over a running system.
func NewFrontEnd(sys System) *FrontEnd { return frontend.New(sys) }

// Architecture selects the workflow control architecture (paper Figure 6).
type Architecture int

const (
	// Central runs a single workflow engine (paper §2).
	Central Architecture = iota
	// Parallel runs several engines sharing the load (paper §6).
	Parallel
	// Distributed lets the step-executing agents schedule and coordinate
	// the workflows themselves (paper §4-5).
	Distributed
)

// String names the architecture.
func (a Architecture) String() string {
	switch a {
	case Central:
		return "central"
	case Parallel:
		return "parallel"
	case Distributed:
		return "distributed"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// TransportConfig selects the wire backend that carries messages between the
// deployment's nodes. The zero value is the in-process backend: each node
// drains its own mailbox, no serialization, the default and fastest path. The
// socket backends route every message through a real kernel socket as a
// length-prefixed binary frame — same delivery semantics (FIFO, park/replay
// on crash, identical message counts), genuine serialization cost.
type TransportConfig struct {
	// Backend is "" or "inproc" (in process), "unix" (unix-domain sockets) or
	// "tcp" (loopback TCP).
	Backend string
	// Addr optionally pins the socket address: a socket path for "unix", a
	// host:port for "tcp". Empty picks a fresh temp path or loopback port.
	// Must be empty for the in-process backend.
	Addr string
}

// Config assembles a deployment.
type Config struct {
	// Library holds the workflow definitions; required.
	Library *Library
	// Programs resolves step programs; required.
	Programs *Registry
	// Architecture defaults to Central.
	Architecture Architecture
	// Agents names the agent nodes; defaults derive from the library's
	// eligible-agent declarations.
	Agents []string
	// Engines is the parallel architecture's engine count (default 2). The
	// central architecture is the same deployment with one engine, whatever
	// this says; one engine's node is named "engine", e engines' are
	// "engine0" to "engine{e-1}".
	Engines int
	// Collector receives metrics; one is created if nil.
	Collector *Collector
	// DisableOCR forces Saga-style recovery (the OCR ablation).
	DisableOCR bool
	// DB persists instance state for a deployment of one engine, enabling
	// crash recovery (see NewMemoryDB): the central architecture, or the
	// parallel one with Engines: 1 and no DBs. It is shorthand for a DBs of
	// that one database; deployments of several nodes ignore it.
	DB *DB
	// DBs gives each scheduling node its own database: per engine in the
	// parallel architecture, per agent in the distributed one. Length must
	// match the node count. The central architecture takes DB instead.
	DBs []*DB
	// Transport selects the wire backend between nodes; the zero value is
	// the in-process default.
	Transport TransportConfig
	// Logf receives diagnostics; defaults to the standard logger.
	Logf func(format string, args ...any)
}

// Validate checks the configuration without building anything. NewSystem
// calls it first, so a deployment can pre-flight a Config (e.g. one decoded
// from user input) and get the same errors without side effects.
func (cfg *Config) Validate() error {
	if cfg.Library == nil {
		return fmt.Errorf("crew: %w: Config.Library is required", ErrInvalidConfig)
	}
	if cfg.Programs == nil {
		return fmt.Errorf("crew: %w: Config.Programs is required", ErrInvalidConfig)
	}
	switch cfg.Architecture {
	case Central, Parallel, Distributed:
	default:
		return fmt.Errorf("crew: %w: unknown architecture %v", ErrInvalidConfig, cfg.Architecture)
	}
	if cfg.Engines < 0 {
		return fmt.Errorf("crew: %w: Config.Engines must not be negative", ErrInvalidConfig)
	}
	if cfg.Architecture == Central && len(cfg.DBs) > 0 {
		return fmt.Errorf("crew: %w: the central architecture takes Config.DB, not DBs", ErrInvalidConfig)
	}
	switch cfg.Transport.Backend {
	case "", "inproc":
		if cfg.Transport.Addr != "" {
			return fmt.Errorf("crew: %w: Transport.Addr is meaningless for the in-process backend", ErrInvalidConfig)
		}
	case "unix", "tcp":
	default:
		return fmt.Errorf("crew: %w: unknown transport backend %q (want inproc, unix or tcp)", ErrInvalidConfig, cfg.Transport.Backend)
	}
	if err := cfg.Library.Validate(); err != nil {
		return fmt.Errorf("crew: %w: %w", ErrInvalidConfig, err)
	}
	return nil
}

// System is a running workflow management system. All three architectures
// implement it identically. The context-aware calls fail fast with ErrClosed
// after Close and report expired wait deadlines as ErrTimeout; the
// duration-based calls are thin wrappers over them.
type System interface {
	// Start launches an instance and returns its ID.
	Start(workflow string, inputs map[string]Value) (int, error)
	// StartCtx launches an instance; ctx gates only the request's admission,
	// a started instance keeps running after ctx is cancelled.
	StartCtx(ctx context.Context, workflow string, inputs map[string]Value) (int, error)
	// Run starts an instance and waits for its terminal status.
	Run(workflow string, inputs map[string]Value, timeout time.Duration) (int, Status, error)
	// RunCtx starts an instance and waits for its terminal status under ctx.
	RunCtx(ctx context.Context, workflow string, inputs map[string]Value) (int, Status, error)
	// Wait blocks until the instance terminates.
	Wait(workflow string, id int, timeout time.Duration) (Status, error)
	// WaitCtx blocks until the instance terminates or ctx ends; a deadline
	// expiry is reported as ErrTimeout.
	WaitCtx(ctx context.Context, workflow string, id int) (Status, error)
	// Abort requests a user-initiated abort.
	Abort(workflow string, id int) error
	// ChangeInputs applies user-initiated workflow input changes.
	ChangeInputs(workflow string, id int, inputs map[string]Value) error
	// Status reports an instance's status.
	Status(workflow string, id int) (Status, bool)
	// Snapshot returns the instance state. The returned instance is the
	// caller's: nothing in the deployment references it.
	Snapshot(workflow string, id int) (*Instance, bool)
	// Collector exposes the deployment's metrics.
	Collector() *Collector
	// Close shuts the deployment down.
	Close()
}

var _ System = deploy.System(nil)

// Option customizes a deployment built by NewSystem beyond its Config.
type Option func(*options)

type options struct {
	faults *FaultPlan
}

// WithFaults arms a deterministic fault-injection plan on the deployment:
// scheduled node crashes and recoveries (driving the engines' halt/rebuild
// recovery), per-link message drops and delays, and seeded transient step
// failures. The same seed and plan reproduce the same fault schedule. The
// plan is validated by NewSystem.
func WithFaults(plan FaultPlan) Option {
	p := plan
	return func(o *options) { o.faults = &p }
}

// faultedSystem stops the injector when the deployment closes.
type faultedSystem struct {
	deploy.System
	inj *faults.Injector
}

func (f *faultedSystem) Close() {
	f.inj.Stop()
	f.System.Close()
}

// NewSystem builds and starts a deployment of the configured architecture.
func NewSystem(cfg Config, opts ...Option) (System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector()
	}
	programs := cfg.Programs
	if o.faults != nil {
		if err := o.faults.Validate(); err != nil {
			return nil, fmt.Errorf("crew: fault plan: %w: %v", ErrInvalidConfig, err)
		}
		programs = faults.WrapFlaky(programs, o.faults.Seed, o.faults.StepFailRate)
	}
	arch := analysis.Architecture(cfg.Architecture)
	dc := deploy.Config{
		Library:    cfg.Library,
		Programs:   programs,
		Collector:  cfg.Collector,
		Agents:     cfg.Agents,
		Engines:    cfg.Engines,
		DBs:        cfg.DBs,
		DisableOCR: cfg.DisableOCR,
		Backend:    cfg.Transport.Backend,
		Addr:       cfg.Transport.Addr,
		Logf:       cfg.Logf,
	}
	if dc.Engines <= 0 {
		dc.Engines = 2
	}
	if cfg.DB != nil && len(cfg.DBs) == 0 && deploy.Engines(arch, dc.Engines) == 1 {
		dc.DBs = []*DB{cfg.DB}
	}
	sys, err := deploy.New(arch, dc)
	if err != nil {
		return nil, err
	}
	if o.faults == nil {
		return sys, nil
	}
	inj, err := faults.NewInjector(*o.faults, cfg.Collector)
	if err != nil {
		sys.Close()
		return nil, fmt.Errorf("crew: fault plan: %w: %v", ErrInvalidConfig, err)
	}
	inj.SetHooks(sys)
	inj.Attach(sys.Network())
	return &faultedSystem{System: sys, inj: inj}, nil
}
