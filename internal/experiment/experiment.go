// Package experiment runs measured reproductions of the paper's evaluation:
// it deploys a Table 3-parameterized workload on the centralized, parallel
// or distributed architecture, drives i instances of every schema through
// it (with deterministic failures, aborts and input changes), and reduces
// the metrics counters to the per-instance load and message rows of Tables
// 4-6, ready to print next to the analytic values.
package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"crew/internal/analysis"
	"crew/internal/deploy"
	"crew/internal/metrics"
	"crew/internal/workload"
)

// Options configures a measured run.
type Options struct {
	Arch analysis.Architecture
	// Params is the Table 3 parameter point.
	Params analysis.Parameters
	// Instances is the number of instances per schema driven through the
	// system (the paper's i, kept small for wall-clock reasons).
	Instances int
	Seed      int64
	Timeout   time.Duration
	// DisableOCR runs the Saga-style ablation (supported by central and
	// distributed).
	DisableOCR bool
	// ExplicitElection uses the StateInformation successor election in
	// distributed control (ablation).
	ExplicitElection bool
	// Backend selects the wire backend ("" or "inproc" = in-process
	// channels; "unix"/"tcp" carry every message across real sockets).
	// A socket changes delivery interleavings, and the protocol's
	// reactions to them change the message counts: a socket run's columns
	// are neither the in-process ones nor repeatable (Table 6's Normal
	// Execution row read 17.25-17.45 msgs/inst over ten unix runs at the
	// default parameters).
	Backend string
}

// Measured is the outcome of one run.
type Measured struct {
	Arch      analysis.Architecture
	Params    analysis.Parameters
	Instances int // total instances driven (c·i)
	Committed int
	Aborted   int
	Elapsed   time.Duration
	// MsgsPerInstance maps mechanism rows to measured messages/instance.
	MsgsPerInstance map[string]float64
	// LoadPerInstance maps mechanism rows to measured load units per
	// instance at the (average) scheduling node — the paper's "load at
	// engine" in units of l.
	LoadPerInstance map[string]float64
	// SchedulingNodes is the number of scheduling nodes (1, e, or z).
	SchedulingNodes int
}

var rowOf = map[metrics.Mechanism]string{
	metrics.Normal:       analysis.RowNormal,
	metrics.InputChange:  analysis.RowInputChange,
	metrics.Abort:        analysis.RowAbort,
	metrics.Failure:      analysis.RowFailure,
	metrics.Coordination: analysis.RowCoord,
}

// Run executes one measured experiment.
func Run(opt Options) (*Measured, error) {
	if opt.Instances <= 0 {
		opt.Instances = 5
	}
	if opt.Timeout == 0 {
		opt.Timeout = 60 * time.Second
	}
	w, err := workload.Generate(opt.Params, opt.Seed)
	if err != nil {
		return nil, err
	}
	col := metrics.NewCollector()
	sys, err := deploy.New(opt.Arch, deploy.Config{
		Library:          w.Library,
		Programs:         w.Programs,
		Collector:        col,
		Agents:           w.Agents,
		Engines:          opt.Params.E,
		DisableOCR:       opt.DisableOCR,
		ExplicitElection: opt.ExplicitElection,
		Backend:          opt.Backend,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	schedNodes := sys.SchedulingNodes()

	res, err := workload.Drive(sys, w, opt.Instances, opt.Timeout)
	if err != nil {
		return nil, err
	}
	// Let trailing probe/ack messages land before reading counters: block
	// until the transport reports no message queued, undelivered or still
	// being handled, instead of sleeping a fixed grace period.
	qctx, cancel := context.WithTimeout(context.Background(), opt.Timeout)
	qerr := sys.Quiesce(qctx)
	cancel()
	if qerr != nil {
		return nil, fmt.Errorf("experiment: quiesce: %w", qerr)
	}

	m := &Measured{
		Arch:            opt.Arch,
		Params:          opt.Params,
		Instances:       res.Instances,
		Committed:       res.Committed,
		Aborted:         res.Aborted,
		Elapsed:         res.Elapsed,
		MsgsPerInstance: make(map[string]float64, len(rowOf)),
		LoadPerInstance: make(map[string]float64, len(rowOf)),
		SchedulingNodes: len(schedNodes),
	}
	for mech, row := range rowOf {
		m.MsgsPerInstance[row] = metrics.PerInstance(col.Messages(mech), res.Instances)
		var load int64
		for _, n := range schedNodes {
			load += col.NodeLoad(n, mech)
		}
		perNode := float64(load) / float64(len(schedNodes))
		m.LoadPerInstance[row] = perNode / float64(res.Instances)
	}
	return m, nil
}

// CompareRow pairs an analytic expression with its measured counterpart.
type CompareRow struct {
	Row        string
	Expression string
	Analytic   float64
	Measured   float64
}

// Compare builds the measured-vs-analytic rows for one architecture.
func Compare(m *Measured) (loads, msgs []CompareRow) {
	for _, e := range analysis.LoadPerInstance(m.Arch, m.Params) {
		loads = append(loads, CompareRow{
			Row:        e.Row,
			Expression: e.Expression,
			Analytic:   e.Value,
			Measured:   m.LoadPerInstance[e.Row],
		})
	}
	for _, e := range analysis.MessagesPerInstance(m.Arch, m.Params) {
		msgs = append(msgs, CompareRow{
			Row:        e.Row,
			Expression: e.Expression,
			Analytic:   e.Value,
			Measured:   m.MsgsPerInstance[e.Row],
		})
	}
	return loads, msgs
}

// FormatComparison renders a paper-style table with analytic and measured
// columns.
func FormatComparison(title string, m *Measured) string {
	loads, msgs := Compare(m)
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (instances=%d committed=%d aborted=%d nodes=%d elapsed=%s)\n",
		title, m.Instances, m.Committed, m.Aborted, m.SchedulingNodes, m.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  %-24s %-24s %12s %12s\n", "Load at Node (·l)", "Expression", "Analytic", "Measured")
	for _, r := range loads {
		fmt.Fprintf(&b, "  %-24s %-24s %12.4f %12.4f\n", r.Row, r.Expression, r.Analytic, r.Measured)
	}
	fmt.Fprintf(&b, "  %-24s %-24s %12s %12s\n", "Physical Messages", "Expression", "Analytic", "Measured")
	for _, r := range msgs {
		fmt.Fprintf(&b, "  %-24s %-24s %12.4f %12.4f\n", r.Row, r.Expression, r.Analytic, r.Measured)
	}
	return b.String()
}

// MeasuredRanking ranks architectures by a measured quantity (for the
// measured Table 7).
type MeasuredRanking struct {
	Criterion analysis.Criterion
	Order     []analysis.Architecture
	Values    map[analysis.Architecture]float64
}

func criterionRows(c analysis.Criterion) []string {
	switch c {
	case analysis.NormalPlusFailures:
		return []string{analysis.RowNormal, analysis.RowInputChange, analysis.RowAbort, analysis.RowFailure}
	case analysis.NormalPlusCoordinated:
		return []string{analysis.RowNormal, analysis.RowCoord}
	default:
		return []string{analysis.RowNormal}
	}
}

// RankMeasured orders architectures by measured load or messages under a
// criterion.
func RankMeasured(results map[analysis.Architecture]*Measured, c analysis.Criterion, byLoad bool) MeasuredRanking {
	values := make(map[analysis.Architecture]float64, len(results))
	for arch, m := range results {
		var total float64
		for _, row := range criterionRows(c) {
			if byLoad {
				total += m.LoadPerInstance[row]
			} else {
				total += m.MsgsPerInstance[row]
			}
		}
		values[arch] = total
	}
	order := make([]analysis.Architecture, 0, len(results))
	for arch := range results {
		order = append(order, arch)
	}
	sort.Slice(order, func(i, j int) bool {
		if values[order[i]] != values[order[j]] {
			return values[order[i]] < values[order[j]]
		}
		return order[i] < order[j]
	})
	return MeasuredRanking{Criterion: c, Order: order, Values: values}
}
