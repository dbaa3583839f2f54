// Package metrics provides the measurement substrate for the CREW
// reproduction: per-node load units and system-wide physical message counts,
// broken down by the five mechanism classes the paper's evaluation compares
// (normal execution, workflow input change, workflow abort, failure handling,
// and coordinated execution).
//
// The paper measures "load at engine" in units of l, the navigation and other
// load per step (number of instructions). Here one load unit corresponds to
// one navigation action (rule evaluation, table update, packet pack/unpack,
// or scheduling decision), which preserves the ratios that Tables 4-6 report.
//
// The counters are the hottest write path in the system: every agent and
// engine goroutine reports into one Collector per experiment run. All
// counters are therefore plain atomics — message counts are a fixed array of
// atomic.Int64, and per-node load is recorded through pre-registered
// NodeRecorder handles bound at system construction, so the steady state does
// zero map lookups and takes zero locks.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"crew/internal/binenc"
)

// Mechanism classifies load and messages according to the paper's five
// mechanism rows in Tables 4, 5 and 6.
type Mechanism int

const (
	// Normal is ordinary forward execution: scheduling, navigation, step
	// dispatch, commit processing.
	Normal Mechanism = iota
	// InputChange covers work caused by user-initiated workflow input
	// changes (WorkflowChangeInputs / InputsChanged).
	InputChange
	// Abort covers user-initiated workflow aborts and the compensations
	// they trigger.
	Abort
	// Failure covers logical step-failure handling: rollback, thread
	// halting, event invalidation, compensation and re-execution.
	Failure
	// Coordination covers coordinated-execution requirements: mutual
	// exclusion, relative ordering and rollback dependencies across
	// concurrent workflows.
	Coordination

	numMechanisms = int(Coordination) + 1
)

// Mechanisms lists all mechanism classes in presentation order.
var Mechanisms = [...]Mechanism{Normal, InputChange, Abort, Failure, Coordination}

// String returns the mechanism name as used in the paper's tables.
func (m Mechanism) String() string {
	switch m {
	case Normal:
		return "Normal Execution"
	case InputChange:
		return "Workflow Input Change"
	case Abort:
		return "Workflow Abort"
	case Failure:
		return "Failure Handling"
	case Coordination:
		return "Coordinated Execution"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Walk is the mechanism's one-byte wire form. A value outside the five
// classes (which would index past the counters) fails the walker.
func (m *Mechanism) Walk(w *binenc.Walker) {
	b := byte(*m)
	w.Byte(&b)
	if !w.Decoding() {
		return
	}
	if int(b) >= numMechanisms {
		w.Fail()
		b = byte(Normal)
	}
	*m = Mechanism(b)
}

type nodeCounters struct {
	load [numMechanisms]atomic.Int64
}

// NodeRecorder is a pre-registered, lock-free handle for recording load at
// one node. Handles are handed to engines and agents at system construction
// (via Collector.Node) so the per-step accounting in the hot path is a single
// atomic add — no map lookup, no lock. The zero NodeRecorder is valid and
// discards all adds, which is how deployments without a Collector run.
type NodeRecorder struct {
	c *nodeCounters
}

// Add records units of load for mechanism m at the recorder's node.
func (r NodeRecorder) Add(m Mechanism, units int64) {
	if r.c == nil || units == 0 {
		return
	}
	r.c.load[m].Add(units)
}

// Collector accumulates load units per node and message counts per mechanism.
// It is safe for concurrent use; every agent, engine and transport in the
// repository reports into one Collector per experiment run.
type Collector struct {
	msgs [numMechanisms]atomic.Int64

	// Recovery counters, fed by the fault injector and the transport when a
	// fault plan is active: physical retransmissions charged by drop faults,
	// node crashes and recoveries applied, total recovery time in
	// delivered-message ticks, and instances that were running at some crash
	// and still reached a terminal status.
	retransmits   atomic.Int64
	crashes       atomic.Int64
	recoveries    atomic.Int64
	recoveryTicks atomic.Int64
	survived      atomic.Int64

	// mu guards the nodes map only. Registration happens once per node at
	// system construction; steady-state writes go through NodeRecorder
	// handles and never touch the map.
	mu    sync.RWMutex
	nodes map[string]*nodeCounters
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{nodes: make(map[string]*nodeCounters)}
}

// Node registers (or finds) a node and returns its lock-free recorder handle.
// Calling Node on a nil Collector returns the discarding zero handle.
func (c *Collector) Node(name string) NodeRecorder {
	if c == nil {
		return NodeRecorder{}
	}
	c.mu.RLock()
	nc := c.nodes[name]
	c.mu.RUnlock()
	if nc == nil {
		c.mu.Lock()
		nc = c.nodes[name]
		if nc == nil {
			nc = &nodeCounters{}
			c.nodes[name] = nc
		}
		c.mu.Unlock()
	}
	return NodeRecorder{c: nc}
}

// AddLoad records units of load at node for mechanism m.
func (c *Collector) AddLoad(node string, m Mechanism, units int64) {
	if units == 0 {
		return
	}
	c.Node(node).Add(m, units)
}

// AddMessages records n physical messages of mechanism class m.
func (c *Collector) AddMessages(m Mechanism, n int64) {
	if n == 0 {
		return
	}
	c.msgs[m].Add(n)
}

// Messages returns the total number of physical messages recorded for m.
func (c *Collector) Messages(m Mechanism) int64 {
	return c.msgs[m].Load()
}

// AddRetransmits records n physical retransmissions charged by drop faults.
func (c *Collector) AddRetransmits(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.retransmits.Add(n)
}

// Retransmits returns the number of fault-injected retransmissions.
func (c *Collector) Retransmits() int64 { return c.retransmits.Load() }

// AddCrash records one applied node crash.
func (c *Collector) AddCrash() {
	if c == nil {
		return
	}
	c.crashes.Add(1)
}

// Crashes returns the number of node crashes applied.
func (c *Collector) Crashes() int64 { return c.crashes.Load() }

// AddRecovery records one node recovery that took ticks delivered-message
// ticks (the network's logical clock) from crash to recovery.
func (c *Collector) AddRecovery(ticks int64) {
	if c == nil {
		return
	}
	c.recoveries.Add(1)
	c.recoveryTicks.Add(ticks)
}

// Recoveries returns the number of node recoveries applied.
func (c *Collector) Recoveries() int64 { return c.recoveries.Load() }

// RecoveryTicks returns the total recovery time across all recoveries, in
// delivered-message ticks.
func (c *Collector) RecoveryTicks() int64 { return c.recoveryTicks.Load() }

// AddSurvived records n instances that were running when a node crashed and
// still reached a terminal status.
func (c *Collector) AddSurvived(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.survived.Add(n)
}

// Survived returns the number of instances that survived a crash.
func (c *Collector) Survived() int64 { return c.survived.Load() }

// TotalMessages returns the number of messages across all mechanisms.
func (c *Collector) TotalMessages() int64 {
	var t int64
	for i := range c.msgs {
		t += c.msgs[i].Load()
	}
	return t
}

// NodeLoad returns the load recorded at node for mechanism m.
func (c *Collector) NodeLoad(node string, m Mechanism) int64 {
	c.mu.RLock()
	nc := c.nodes[node]
	c.mu.RUnlock()
	if nc != nil {
		return nc.load[m].Load()
	}
	return 0
}

// TotalLoad returns the load summed over all nodes for mechanism m.
func (c *Collector) TotalLoad(m Mechanism) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var t int64
	for _, nc := range c.nodes {
		t += nc.load[m].Load()
	}
	return t
}

// Nodes returns the sorted names of all nodes that registered with the
// Collector (via AddLoad or Node).
func (c *Collector) Nodes() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// MaxNodeLoad returns the highest per-node load for mechanism m and the node
// that carries it. The paper's "load at engine" for a scalability comparison
// is the load at the most loaded scheduling node.
func (c *Collector) MaxNodeLoad(m Mechanism) (node string, load int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for n, nc := range c.nodes {
		l := nc.load[m].Load()
		if l > load || (l == load && (node == "" || n < node)) {
			node, load = n, l
		}
	}
	return node, load
}

// MeanNodeLoad returns the average per-node load for mechanism m over nodes
// registered with the Collector.
func (c *Collector) MeanNodeLoad(m Mechanism) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.nodes) == 0 {
		return 0
	}
	var t int64
	for _, nc := range c.nodes {
		t += nc.load[m].Load()
	}
	return float64(t) / float64(len(c.nodes))
}

// Snapshot is an immutable copy of a Collector's counters.
type Snapshot struct {
	NodeLoad map[string][numMechanisms]int64
	Messages [numMechanisms]int64
}

// Snapshot copies the current counters. The copy is not an atomic cut across
// nodes: counters written concurrently with the snapshot land on either side.
func (c *Collector) Snapshot() Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := Snapshot{NodeLoad: make(map[string][numMechanisms]int64, len(c.nodes))}
	for n, nc := range c.nodes {
		var load [numMechanisms]int64
		for i := range nc.load {
			load[i] = nc.load[i].Load()
		}
		s.NodeLoad[n] = load
	}
	for i := range c.msgs {
		s.Messages[i] = c.msgs[i].Load()
	}
	return s
}

// MessagesOf returns the message count for m in the snapshot.
func (s Snapshot) MessagesOf(m Mechanism) int64 { return s.Messages[m] }

// Reset clears all counters and forgets all nodes. NodeRecorder handles
// obtained before the Reset stay valid but write to detached counters; systems
// are expected to re-register after a Reset (in practice each experiment run
// builds a fresh Collector).
func (c *Collector) Reset() {
	c.mu.Lock()
	c.nodes = make(map[string]*nodeCounters)
	c.mu.Unlock()
	for i := range c.msgs {
		c.msgs[i].Store(0)
	}
	c.retransmits.Store(0)
	c.crashes.Store(0)
	c.recoveries.Store(0)
	c.recoveryTicks.Store(0)
	c.survived.Store(0)
}

// String renders a compact human-readable report, one line per mechanism.
func (c *Collector) String() string {
	var b strings.Builder
	for _, m := range Mechanisms {
		node, load := c.MaxNodeLoad(m)
		fmt.Fprintf(&b, "%-22s msgs=%-8d totalLoad=%-8d maxNode=%s(%d)\n",
			m, c.Messages(m), c.TotalLoad(m), node, load)
	}
	return b.String()
}

// PerInstance scales a raw count by the number of instances, as the paper
// reports everything per workflow instance.
func PerInstance(total int64, instances int) float64 {
	if instances <= 0 {
		return 0
	}
	return float64(total) / float64(instances)
}
