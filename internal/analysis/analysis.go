// Package analysis reproduces the paper's analytical performance model
// (§6): the parameter space of Table 3, the closed-form load and
// physical-message expressions of Tables 4 (centralized), 5 (parallel) and
// 6 (distributed), and the architecture recommendation of Table 7. The
// crewsim harness prints these analytic rows next to measured values from
// real runs of the three architectures.
package analysis

import (
	"fmt"
	"sort"
)

// Parameters is the paper's Table 3. Probabilities are per instance (pf, pr
// per step where the paper applies them to the rolled-back region).
type Parameters struct {
	S  int     // steps per workflow (5-25)
	C  int     // workflow schemas (20)
	I  int     // concurrent instances per schema (10-1000)
	E  int     // engines (1-8)
	Z  int     // agents (10-100)
	A  int     // eligible agents per step (1-4)
	D  int     // conflicting definitions per step (0-2)
	R  int     // steps rolled back on a failure (1-10)
	V  int     // steps invalidated on a step failure (0-8)
	F  int     // final steps in a workflow (1-4)
	W  int     // steps compensated on a workflow abort (0-4)
	ME int     // steps/WF needing mutual exclusion (0-4)
	RO int     // steps/WF needing relative ordering (0-4)
	RD int     // steps/WF having rollback dependency (0-2)
	L  float64 // navigation and other load per step (instructions)
	PF float64 // probability of logical step failure (0.0-0.2)
	PI float64 // probability of workflow input change (0.0-0.05)
	PA float64 // probability of workflow abort (0.0-0.05)
	PR float64 // probability of step re-execution (0.0-0.5)
}

// Default returns the average-case parameter values that produce the
// normalized numbers printed in the paper's Tables 4-6 (s=15, e=4, z=50,
// a=2, d=1, r=5, v=4, f=2, w=2, me=2, ro=2, rd=1, pf=0.1, pi=0.025,
// pa=0.025, pr=0.25; loads are reported as multiples of l).
func Default() Parameters {
	return Parameters{
		S: 15, C: 20, I: 100, E: 4, Z: 50, A: 2, D: 1,
		R: 5, V: 4, F: 2, W: 2, ME: 2, RO: 2, RD: 1,
		L: 1, PF: 0.1, PI: 0.025, PA: 0.025, PR: 0.25,
	}
}

// Range describes one Table 3 row.
type Range struct {
	Name   string
	Symbol string
	Lo, Hi float64
}

// Table3 returns the parameter ranges exactly as the paper lists them.
func Table3() []Range {
	return []Range{
		{"Number of Steps per Workflow", "s", 5, 25},
		{"Number of Workflow Schemas", "c", 20, 20},
		{"Number of Concurrent Instances per Schema", "i", 10, 1000},
		{"Number of Engines", "e", 1, 8},
		{"Number of Agents", "z", 10, 100},
		{"Number of Eligible Agents per Step", "a", 1, 4},
		{"Number of Conflicting Definitions per Step", "d", 0, 2},
		{"Number of Steps Rolled Back on a Failure", "r", 1, 10},
		{"Number of Steps to be Invalidated on a Step Failure", "v", 0, 8},
		{"Number of Final Steps in a Workflow", "f", 1, 4},
		{"Number of Steps to be Compensated on a Workflow Abort", "w", 0, 4},
		{"Number of Steps/WF needing Mutual Exclusion", "me", 0, 4},
		{"Number of Steps/WF needing Relative Ordering", "ro", 0, 4},
		{"Number of Steps/WF having Rollback Dependency", "rd", 0, 2},
		{"Probability of Logical Step Failure", "pf", 0, 0.2},
		{"Probability of Workflow Input Change", "pi", 0, 0.05},
		{"Probability of Workflow Abort", "pa", 0, 0.05},
		{"Probability of Step Re-execution", "pr", 0, 0.5},
	}
}

// Mechanism rows of Tables 4-6, in the paper's order.
const (
	RowNormal      = "Normal Execution"
	RowInputChange = "Workflow Input Change"
	RowAbort       = "Workflow Abort"
	RowFailure     = "Failure Handling"
	RowCoord       = "Coordinated Execution"
)

// Rows lists the mechanism rows in presentation order.
var Rows = []string{RowNormal, RowInputChange, RowAbort, RowFailure, RowCoord}

// Architecture identifies a control architecture.
type Architecture int

const (
	// Central is the centralized control architecture (Table 4).
	Central Architecture = iota
	// Parallel is the parallel control architecture (Table 5).
	Parallel
	// Distributed is the distributed control architecture (Table 6).
	Distributed
)

// String names the architecture.
func (a Architecture) String() string {
	switch a {
	case Central:
		return "Central"
	case Parallel:
		return "Parallel"
	case Distributed:
		return "Distributed"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Architectures lists all three in table order.
var Architectures = []Architecture{Central, Parallel, Distributed}

// Entry is one analytic cell: the expression text and its value under given
// parameters. Loads are in multiples of l.
type Entry struct {
	Row        string
	Expression string
	Value      float64
}

// LoadPerInstance returns the per-instance scheduling-node load expressions
// (Tables 4-6, "Load at Engine" sections), in multiples of l.
func LoadPerInstance(arch Architecture, p Parameters) []Entry {
	s, e, z := float64(p.S), float64(p.E), float64(p.Z)
	a, d := float64(p.A), float64(p.D)
	r, w := float64(p.R), float64(p.W)
	coordSteps := float64(p.ME + p.RO + p.RD)
	switch arch {
	case Central:
		return []Entry{
			{RowNormal, "l·s", s},
			{RowInputChange, "l·r·pi", r * p.PI},
			{RowAbort, "l·w·pa", w * p.PA},
			{RowFailure, "l·r·pf", r * p.PF},
			{RowCoord, "l·(me+ro+rd)·s", coordSteps * s},
		}
	case Parallel:
		return []Entry{
			{RowNormal, "l·s/e", s / e},
			{RowInputChange, "(l·r·pi)/e", r * p.PI / e},
			{RowAbort, "(l·w·pa)/e", w * p.PA / e},
			{RowFailure, "(l·r·pf)/e", r * p.PF / e},
			{RowCoord, "l·(me+ro+rd)·s", coordSteps * s},
		}
	default: // Distributed
		return []Entry{
			{RowNormal, "l·s/z", s / z},
			{RowInputChange, "(l·r·pi)/z", r * p.PI / z},
			{RowAbort, "(l·w·pa)/z", w * p.PA / z},
			{RowFailure, "(l·r·pf)/z", r * p.PF / z},
			{RowCoord, "(l·(me+ro+rd)·a·d·s)/z", coordSteps * a * d * s / z},
		}
	}
}

// MessagesPerInstance returns the per-instance physical-message expressions
// (Tables 4-6, "Physical Messages Exchanged" sections).
func MessagesPerInstance(arch Architecture, p Parameters) []Entry {
	s, e := float64(p.S), float64(p.E)
	a, d := float64(p.A), float64(p.D)
	r, v, f, w := float64(p.R), float64(p.V), float64(p.F), float64(p.W)
	coordSteps := float64(p.ME + p.RO + p.RD)
	switch arch {
	case Central:
		return []Entry{
			{RowNormal, "2·s·a", 2 * s * a},
			{RowInputChange, "2·r·pi·pr·a", 2 * r * p.PI * p.PR * a},
			{RowAbort, "2·w·pa·a", 2 * w * p.PA * a},
			{RowFailure, "2·r·pf·pr·a", 2 * r * p.PF * p.PR * a},
			{RowCoord, "0", 0},
		}
	case Parallel:
		return []Entry{
			{RowNormal, "2·s·a", 2 * s * a},
			{RowInputChange, "2·r·pi·pr·a", 2 * r * p.PI * p.PR * a},
			{RowAbort, "2·w·pa·a", 2 * w * p.PA * a},
			{RowFailure, "2·r·pf·pr·a", 2 * r * p.PF * p.PR * a},
			{RowCoord, "(me+ro+rd)·e·s", coordSteps * e * s},
		}
	default: // Distributed
		return []Entry{
			{RowNormal, "s·a + f", s*a + f},
			{RowInputChange, "(r+v)·pi·a", (r + v) * p.PI * a},
			{RowAbort, "2·w·pa·a", 2 * w * p.PA * a},
			{RowFailure, "(r+v)·pf·a", (r + v) * p.PF * a},
			{RowCoord, "(me+ro+rd)·a·d·s", coordSteps * a * d * s},
		}
	}
}

// entryValue finds a row's value.
func entryValue(entries []Entry, row string) float64 {
	for _, e := range entries {
		if e.Row == row {
			return e.Value
		}
	}
	return 0
}

// Criterion is a Table 7 column.
type Criterion int

const (
	// NormalOnly considers normal execution only.
	NormalOnly Criterion = iota
	// NormalPlusFailures adds input changes, aborts and failure handling.
	NormalPlusFailures
	// NormalPlusCoordinated adds coordinated execution.
	NormalPlusCoordinated
)

// String names the criterion as in Table 7.
func (c Criterion) String() string {
	switch c {
	case NormalOnly:
		return "Normal"
	case NormalPlusFailures:
		return "Normal + Failures"
	case NormalPlusCoordinated:
		return "Normal + Coordinated"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Criteria lists Table 7's columns.
var Criteria = []Criterion{NormalOnly, NormalPlusFailures, NormalPlusCoordinated}

func criterionTotal(entries []Entry, c Criterion) float64 {
	total := entryValue(entries, RowNormal)
	switch c {
	case NormalPlusFailures:
		total += entryValue(entries, RowInputChange) +
			entryValue(entries, RowAbort) +
			entryValue(entries, RowFailure)
	case NormalPlusCoordinated:
		total += entryValue(entries, RowCoord)
	}
	return total
}

// Ranking is an ordered list of architectures (best first); ties share a
// rank when their values are within 1%.
type Ranking struct {
	Order []Architecture
	Rank  map[Architecture]int
}

func rank(values map[Architecture]float64) Ranking {
	order := append([]Architecture(nil), Architectures...)
	sort.SliceStable(order, func(i, j int) bool {
		return values[order[i]] < values[order[j]]
	})
	rk := map[Architecture]int{order[0]: 1}
	for i := 1; i < len(order); i++ {
		prev, cur := values[order[i-1]], values[order[i]]
		if cur <= prev*1.01+1e-9 {
			rk[order[i]] = rk[order[i-1]]
		} else {
			rk[order[i]] = i + 1
		}
	}
	return Ranking{Order: order, Rank: rk}
}

// RecommendLoad ranks the architectures by scheduling-node load for a
// criterion (Table 7's "Load at Engine" rows).
func RecommendLoad(p Parameters, c Criterion) Ranking {
	values := make(map[Architecture]float64, 3)
	for _, arch := range Architectures {
		values[arch] = criterionTotal(LoadPerInstance(arch, p), c)
	}
	return rank(values)
}

// RecommendMessages ranks the architectures by physical messages for a
// criterion (Table 7's "Physical Messages" rows).
func RecommendMessages(p Parameters, c Criterion) Ranking {
	values := make(map[Architecture]float64, 3)
	for _, arch := range Architectures {
		values[arch] = criterionTotal(MessagesPerInstance(arch, p), c)
	}
	return rank(values)
}

// CoordinationCrossover reports the paper's §6 observation for coordination
// messages: distributed control uses fewer messages than parallel control
// iff a·d < e.
func CoordinationCrossover(p Parameters) (distributedWins bool) {
	return p.A*p.D < p.E
}
