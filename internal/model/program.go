package model

import (
	"fmt"
	"sync"

	"crew/internal/binenc"
	"crew/internal/expr"
)

// ExecMode tells a program in which capacity it is being invoked, supporting
// the four OCR actions: complete re-execution, incremental re-execution,
// complete compensation and partial compensation.
type ExecMode int

const (
	// ModeExecute is a normal (first or complete re-) execution.
	ModeExecute ExecMode = iota
	// ModeIncremental is an incremental re-execution that builds on the
	// previous results.
	ModeIncremental
	// ModeCompensate is a complete compensation of the previous execution.
	ModeCompensate
	// ModePartialComp is a partial compensation preceding an incremental
	// re-execution.
	ModePartialComp
)

// String names the mode.
func (m ExecMode) String() string {
	switch m {
	case ModeExecute:
		return "execute"
	case ModeIncremental:
		return "incremental"
	case ModeCompensate:
		return "compensate"
	case ModePartialComp:
		return "partial-compensate"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// Walk is the mode's wire and row form, an integer.
func (m *ExecMode) Walk(w *binenc.Walker) { w.Int((*int)(m)) }

// PrevExecution captures what the agent recorded about a step's previous
// execution; OCR conditions and incremental re-executions consult it.
type PrevExecution struct {
	Inputs  map[string]expr.Value // keyed by full item name
	Outputs map[string]expr.Value // keyed by output short name
}

// Walk is the record's wire form: the two maps.
func (p *PrevExecution) Walk(w *binenc.Walker) {
	expr.WalkValues(w, &p.Inputs)
	expr.WalkValues(w, &p.Outputs)
}

// ProgramContext is the information handed to a black-box program.
type ProgramContext struct {
	Workflow string
	Instance int
	Step     StepID
	Mode     ExecMode
	// Attempt counts executions of this step within the instance (1-based).
	Attempt int
	// Inputs holds the step's resolved input values, keyed by full name.
	Inputs map[string]expr.Value
	// Prev is non-nil on re-executions and compensations.
	Prev *PrevExecution
}

// InputEnv exposes the inputs as an expression environment.
func (c *ProgramContext) InputEnv() expr.Env { return expr.MapEnv(c.Inputs) }

// Program is a black-box step program. Returning an error signals a logical
// step failure (step.fail); outputs are keyed by short output names.
//
// In process, ctx.Inputs and ctx.Prev may be the instance's own maps, and the
// returned map becomes the step's recorded outputs, which a Snapshot may hand
// to its caller. A program therefore only reads ctx, returns a map of its own
// each time, and keeps none of these maps after it returns.
type Program func(ctx *ProgramContext) (map[string]expr.Value, error)

// StepFailure is the error type programs return for logical failures that
// the workflow's failure-handling specification should handle (as opposed to
// programming errors, which also surface as step.fail but are logged).
type StepFailure struct {
	Reason string
}

// Error implements error.
func (f *StepFailure) Error() string { return "step failure: " + f.Reason }

// Fail returns a StepFailure with the given reason.
func Fail(reason string) error { return &StepFailure{Reason: reason} }

// Registry maps program names to implementations. It is safe for concurrent
// use: agents on many goroutines resolve programs from one shared registry.
type Registry struct {
	mu       sync.RWMutex
	programs map[string]Program
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry {
	return &Registry{programs: make(map[string]Program)}
}

// Register binds a program name; it panics on duplicate registration, which
// is always a configuration bug.
func (r *Registry) Register(name string, p Program) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.programs[name]; dup {
		panic(fmt.Sprintf("model: duplicate program %q", name))
	}
	r.programs[name] = p
}

// Replace binds a program name, overwriting any existing binding. Tests use
// it to substitute failure-injecting variants.
func (r *Registry) Replace(name string, p Program) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.programs[name] = p
}

// Lookup resolves a program name.
func (r *Registry) Lookup(name string) (Program, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.programs[name]
	return p, ok
}

// Names returns the registered program names (unsorted).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.programs))
	for n := range r.programs {
		out = append(out, n)
	}
	return out
}

// NopProgram succeeds and produces the step's declared outputs as nulls; the
// default when examples or tests don't care about data.
func NopProgram(outputs ...string) Program {
	return func(*ProgramContext) (map[string]expr.Value, error) {
		out := make(map[string]expr.Value, len(outputs))
		for _, o := range outputs {
			out[o] = expr.Null()
		}
		return out, nil
	}
}

// ConstProgram produces fixed outputs.
func ConstProgram(outputs map[string]expr.Value) Program {
	return func(*ProgramContext) (map[string]expr.Value, error) {
		out := make(map[string]expr.Value, len(outputs))
		for k, v := range outputs {
			out[k] = v
		}
		return out, nil
	}
}

// FailNTimes fails the first n invocations in ModeExecute/ModeIncremental,
// then delegates to inner. Used to script deterministic failure scenarios.
func FailNTimes(n int, inner Program) Program {
	var mu sync.Mutex
	remaining := n
	return func(ctx *ProgramContext) (map[string]expr.Value, error) {
		if ctx.Mode == ModeExecute || ctx.Mode == ModeIncremental {
			mu.Lock()
			fail := remaining > 0
			if fail {
				remaining--
			}
			mu.Unlock()
			if fail {
				return nil, Fail("injected failure")
			}
		}
		return inner(ctx)
	}
}
