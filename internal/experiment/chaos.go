package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"crew/internal/analysis"
	"crew/internal/deploy"
	"crew/internal/expr"
	"crew/internal/faults"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// ChaosOptions configures a fault-injected run: the Table 3 workload driven
// while a deterministic faults.Plan crashes and recovers scheduling nodes.
type ChaosOptions struct {
	Arch analysis.Architecture
	// Params is the workload parameter point. RunChaos forces pa = pi = 0:
	// user aborts and input changes race against commit, which would make the
	// per-instance outcome depend on goroutine scheduling and break the
	// determinism contract the chaos digest asserts.
	Params    analysis.Parameters
	Instances int
	Seed      int64
	Timeout   time.Duration
	// Crashes is the number of crash/recover cycles injected into the
	// architecture's scheduling nodes (the engine, the e engines, or the z
	// agents). FirstAt, Spacing and Downtime place the cycles on the
	// network's logical clock; zero values get defaults that land inside the
	// active phase of a small run.
	Crashes  int
	FirstAt  int64
	Spacing  int64
	Downtime int64
	// StepFailRate layers seeded transient step failures (faults.WrapFlaky)
	// on top of the workload's own pf failures.
	StepFailRate float64
	// DropEvery, if > 0, adds a wildcard link fault dropping every k-th
	// message (each drop charged as one retransmission).
	DropEvery  int
	DisableOCR bool
	// Backend selects the wire backend ("" or "inproc" = in-process
	// channels; "unix"/"tcp" run the crash/recover plan across real
	// sockets).
	Backend string
	// Logf receives system diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// ChaosMeasured is the outcome of one fault-injected run.
type ChaosMeasured struct {
	Arch      analysis.Architecture
	Plan      faults.Plan
	Instances int
	Committed int
	Aborted   int
	// NonTerminal lists instances that failed to reach a terminal status
	// (empty on a healthy run — the driver waits for every instance).
	NonTerminal []string
	// CrashesApplied / RecoveriesApplied count fault events actually applied
	// (a plan's tail may never trigger if traffic ends first, but every
	// applied crash is always paired with a recovery).
	CrashesApplied    int
	RecoveriesApplied int
	ForcedRecoveries  int
	Survived          int64
	Retransmits       int64
	RecoveryTicks     int64
	// MutexViolations / OrderViolations are coordination-invariant breaches
	// observed by the program-level checker (empty on a correct run).
	MutexViolations []string
	OrderViolations []string
	Elapsed         time.Duration
}

// PlanDigest is the canonical fault-schedule digest: a pure function of the
// seed and shape parameters, identical across same-seed runs.
func (m *ChaosMeasured) PlanDigest() string { return m.Plan.String() }

// OutcomeDigest summarizes the run's observable outcome for determinism
// checks: the per-instance terminal statuses plus the multiset of applied
// fault events. Application sequence numbers, forced-recovery flags and
// retransmission counts are excluded — they depend on message interleaving,
// not on what the run computed.
func (m *ChaosMeasured) OutcomeDigest(statuses map[string]wfdb.Status) string {
	keys := make([]string, 0, len(statuses))
	for k := range statuses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "plan{%s}", m.Plan.String())
	for _, k := range keys {
		fmt.Fprintf(&b, ";%s=%s", k, statuses[k])
	}
	fmt.Fprintf(&b, ";crashes=%d;recoveries=%d", m.CrashesApplied, m.RecoveriesApplied)
	return b.String()
}

// RunChaos drives the workload while applying a deterministic crash/recover
// plan, and verifies the coordinated-execution invariants survive recovery.
// The returned ChaosMeasured carries the per-instance statuses via Statuses.
func RunChaos(opt ChaosOptions) (*ChaosMeasured, map[string]wfdb.Status, error) {
	if opt.Instances <= 0 {
		opt.Instances = 3
	}
	if opt.Timeout == 0 {
		opt.Timeout = 2 * time.Minute
	}
	if opt.FirstAt == 0 {
		opt.FirstAt = 40
	}
	if opt.Spacing == 0 {
		opt.Spacing = 80
	}
	if opt.Downtime == 0 {
		opt.Downtime = 30
	}
	p := opt.Params
	p.PA, p.PI = 0, 0

	w, err := workload.Generate(p, opt.Seed)
	if err != nil {
		return nil, nil, err
	}
	chk := newChaosChecker(w.Library)
	programs := chk.Wrap(w.Programs)
	if opt.StepFailRate > 0 {
		programs = faults.WrapFlaky(programs, opt.Seed, opt.StepFailRate)
	}

	col := metrics.NewCollector()
	quiet := opt.Logf
	if quiet == nil {
		quiet = func(string, ...any) {}
	}

	// An engine that is crashed rebuilds from its database; agents keep theirs
	// in memory, a crash only parks their queues.
	var dbs []*wfdb.DB
	for i := 0; i < deploy.Engines(opt.Arch, p.E); i++ {
		dbs = append(dbs, wfdb.NewMemory())
	}
	sys, err := deploy.New(opt.Arch, deploy.Config{
		Library:    w.Library,
		Programs:   programs,
		Collector:  col,
		Agents:     w.Agents,
		Engines:    p.E,
		DBs:        dbs,
		DisableOCR: opt.DisableOCR,
		Backend:    opt.Backend,
		Logf:       quiet,
	})
	if err != nil {
		return nil, nil, err
	}
	defer sys.Close()

	plan := faults.ChaosPlan(opt.Seed, sys.SchedulingNodes(), opt.Crashes, opt.FirstAt, opt.Spacing, opt.Downtime)
	if opt.DropEvery > 0 {
		plan.Links = append(plan.Links, faults.LinkFault{DropEvery: opt.DropEvery, Retransmits: 1})
	}
	plan.StepFailRate = opt.StepFailRate
	inj, err := faults.NewInjector(plan, col)
	if err != nil {
		return nil, nil, err
	}
	inj.SetHooks(sys)
	inj.Attach(sys.Network())
	defer inj.Stop()

	res, err := workload.Drive(sys, w, opt.Instances, opt.Timeout)
	if err != nil {
		return nil, nil, fmt.Errorf("experiment: chaos drive (%v): %w", opt.Arch, err)
	}
	qctx, cancel := context.WithTimeout(context.Background(), opt.Timeout)
	qerr := sys.Quiesce(qctx)
	cancel()
	if qerr != nil {
		return nil, nil, fmt.Errorf("experiment: chaos quiesce (%v): %w", opt.Arch, qerr)
	}

	m := &ChaosMeasured{
		Arch:          opt.Arch,
		Plan:          inj.Plan(),
		Instances:     res.Instances,
		Committed:     res.Committed,
		Aborted:       res.Aborted,
		Survived:      col.Survived(),
		Retransmits:   col.Retransmits(),
		RecoveryTicks: col.RecoveryTicks(),
		Elapsed:       res.Elapsed,
	}
	for _, ae := range inj.Applied() {
		switch ae.Action {
		case faults.Crash:
			m.CrashesApplied++
		case faults.Recover:
			m.RecoveriesApplied++
			if ae.Forced {
				m.ForcedRecoveries++
			}
		}
	}

	statuses := make(map[string]wfdb.Status, res.Instances)
	for _, wf := range w.Library.Names() {
		for i := 1; i <= opt.Instances; i++ {
			key := fmt.Sprintf("%s.%d", wf, i)
			st, ok := sys.Status(wf, i)
			statuses[key] = st
			if !ok || (st != wfdb.Committed && st != wfdb.Aborted) {
				m.NonTerminal = append(m.NonTerminal, key)
			}
		}
	}
	sort.Strings(m.NonTerminal)
	m.MutexViolations = chk.MutexViolations()
	m.OrderViolations = chk.OrderViolations()
	return m, statuses, nil
}

// FormatChaos renders one chaos point as a report line.
func FormatChaos(m *ChaosMeasured) string {
	invariants := "ok"
	if n := len(m.MutexViolations) + len(m.OrderViolations) + len(m.NonTerminal); n > 0 {
		invariants = fmt.Sprintf("VIOLATED(%d)", n)
	}
	return fmt.Sprintf(
		"%-12v crashes=%d/%d forced=%d survived=%-3d committed=%-3d aborted=%-3d retrans=%-4d downtime=%-5d invariants=%s",
		m.Arch, m.CrashesApplied, m.RecoveriesApplied, m.ForcedRecoveries, m.Survived,
		m.Committed, m.Aborted, m.Retransmits, m.RecoveryTicks, invariants)
}

// ---------------------------------------------------------------------------
// Coordination-invariant checker

// chaosChecker observes actual step-program executions (by wrapping the
// program registry) and verifies the library's coordination invariants from
// the outside, independently of the machinery that enforces them:
//
//   - Mutex: no two instances ever execute steps of the same mutex spec
//     concurrently.
//   - Relative order: for every relative-order spec, the order in which
//     instances first complete their pair-k steps is the same for every
//     enforced pair (k >= 1). First completions are compared — a rollback
//     re-execution does not reorder a pair retroactively — and pair 0 is
//     exempt because it *establishes* the order rather than obeying one.
type chaosChecker struct {
	specs []model.CoordSpec

	mu    sync.Mutex
	clock int64
	// active tracks, per mutex spec index, the instances currently inside a
	// step of the spec.
	active map[int]map[string]bool
	// firstDone records, per relative-order spec index and pair index, the
	// logical time each instance first completed its pair member.
	firstDone  map[int]map[int]map[string]int64
	mutexViols []string
}

func newChaosChecker(lib *model.Library) *chaosChecker {
	c := &chaosChecker{
		specs:     append([]model.CoordSpec(nil), lib.Coord...),
		active:    make(map[int]map[string]bool),
		firstDone: make(map[int]map[int]map[string]int64),
	}
	for i, spec := range c.specs {
		switch spec.Kind {
		case model.Mutex:
			c.active[i] = make(map[string]bool)
		case model.RelativeOrder:
			c.firstDone[i] = make(map[int]map[string]int64)
		}
	}
	return c
}

// Wrap returns a registry in which every program additionally reports its
// execution window and completion to the checker.
func (c *chaosChecker) Wrap(reg *model.Registry) *model.Registry {
	out := model.NewRegistry()
	for _, name := range reg.Names() {
		p, _ := reg.Lookup(name)
		out.Register(name, c.observe(p))
	}
	return out
}

func (c *chaosChecker) observe(inner model.Program) model.Program {
	return func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
		exec := ctx.Mode == model.ModeExecute || ctx.Mode == model.ModeIncremental
		ref := model.StepRef{Workflow: ctx.Workflow, Step: ctx.Step}
		inst := fmt.Sprintf("%s.%d", ctx.Workflow, ctx.Instance)
		if exec {
			c.enter(ref, inst)
		}
		out, err := inner(ctx)
		if exec {
			c.exit(ref, inst, err == nil)
		}
		return out, err
	}
}

func (c *chaosChecker) enter(ref model.StepRef, inst string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, spec := range c.specs {
		if spec.Kind != model.Mutex || !c.mentionsMutex(i, ref) {
			continue
		}
		for other := range c.active[i] {
			if other != inst {
				c.mutexViols = append(c.mutexViols, fmt.Sprintf(
					"mutex %s: %s entered %s while %s inside", spec.Name, inst, ref, other))
			}
		}
		c.active[i][inst] = true
	}
}

func (c *chaosChecker) exit(ref model.StepRef, inst string, completed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, spec := range c.specs {
		if spec.Kind == model.Mutex && c.mentionsMutex(i, ref) {
			delete(c.active[i], inst)
		}
		if spec.Kind == model.RelativeOrder && completed {
			for k, pair := range spec.Pairs {
				if pair.A != ref && pair.B != ref {
					continue
				}
				c.clock++
				if c.firstDone[i][k] == nil {
					c.firstDone[i][k] = make(map[string]int64)
				}
				if _, seen := c.firstDone[i][k][inst]; !seen {
					c.firstDone[i][k][inst] = c.clock
				}
			}
		}
	}
}

func (c *chaosChecker) mentionsMutex(i int, ref model.StepRef) bool {
	for _, r := range c.specs[i].MutexSteps {
		if r == ref {
			return true
		}
	}
	return false
}

// MutexViolations returns the observed mutual-exclusion breaches.
func (c *chaosChecker) MutexViolations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.mutexViols...)
}

// OrderViolations cross-checks first-completion orders between every pair of
// enforced conflict pairs of every relative-order spec.
func (c *chaosChecker) OrderViolations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var viols []string
	for i, spec := range c.specs {
		if spec.Kind != model.RelativeOrder {
			continue
		}
		for k := 1; k < len(spec.Pairs); k++ {
			for l := k + 1; l < len(spec.Pairs); l++ {
				tk, tl := c.firstDone[i][k], c.firstDone[i][l]
				insts := make([]string, 0, len(tk))
				for inst := range tk {
					if _, ok := tl[inst]; ok {
						insts = append(insts, inst)
					}
				}
				sort.Strings(insts)
				for a := 0; a < len(insts); a++ {
					for b := a + 1; b < len(insts); b++ {
						x, y := insts[a], insts[b]
						if (tk[x] < tk[y]) != (tl[x] < tl[y]) {
							viols = append(viols, fmt.Sprintf(
								"order %s: %s and %s completed pair %d and pair %d in opposite orders",
								spec.Name, x, y, k, l))
						}
					}
				}
			}
		}
	}
	return viols
}
