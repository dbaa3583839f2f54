package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"crew"
	"crew/internal/analysis"
	"crew/internal/metrics"
	"crew/internal/mproc"
	"crew/internal/store"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// schemaSeed fixes the generated schema library (which agents are eligible
// for which step, which steps re-execute on rollback). The run's -seed drives
// everything that varies per instance: the workflow inputs, the injected step
// failures and the abort/input-change plan. A schema library regenerated per
// seed places steps on different agents, so two seeds would measure two
// differently balanced deployments rather than the same one twice.
const schemaSeed = 1

// opTimeout bounds every wait on the system under test. It is hundreds of times
// the slowest workload's p99; an instance that needs it counts as failed, and
// a run can afford a few such waits within the three minutes it may take.
const opTimeout = 20 * time.Second

// saturationClients is the closed loop's client count: enough instances in
// flight that coordination specs between concurrent instances really block.
const saturationClients = 8

// nominalSeconds is the -seconds value the instance counts below are sized
// for: on the 2-core sandbox a run then takes 20-22 s at full speed and up to
// 30 s in its slow mode.
const nominalSeconds = 25

// segmentsPerPhase is how many equal segments each measured phase is cut in;
// every per-segment figure is reduced to the median over them. The two phases
// alternate, so a segment is short (0.1-0.3 s): a disturbance of a few
// seconds then hits a few segments of either phase, not one phase as a whole.
const segmentsPerPhase = 45

// spec describes one workload. Counts are instances at nominalSeconds.
type spec struct {
	Name string
	Why  string
	Arch crew.Architecture
	// Procs runs the distributed architecture as one OS process per agent.
	Procs bool
	// Mixed turns on failures, aborts, input changes and coordination specs.
	Mixed bool
	// Durable gives the engine a file-backed WFDB with a spilled archive.
	Durable bool
	// Engines is the parallel architecture's engine count.
	Engines int
	Warm    int // warm-up instances per set-up
	SatSeg  int // instances per saturation segment
	SerSeg  int // instances per serial segment
	// PinMsgs and PinLoad are the exact per-instance message and load counts
	// of a deterministic workload on this tree; zero leaves them unpinned.
	PinMsgs, PinLoad float64
}

var workloads = []spec{
	{
		Name: "central-normal",
		Why:  "centralized, no DB, failure-free: navigation, rules, event table and in-process transport; no file is touched (the in-memory archive still encodes each instance)",
		Arch: crew.Central, Warm: 3000, SatSeg: 1400, SerSeg: 300,
		PinMsgs: 40, PinLoad: 23,
	},
	{
		Name: "central-durable",
		Why:  "same inputs plus a file-backed WFDB with spilled archive: the gap to central-normal is the price of wfdb/store persistence",
		Arch: crew.Central, Durable: true, Warm: 700, SatSeg: 360, SerSeg: 100,
		PinMsgs: 40, PinLoad: 23,
	},
	{
		Name: "dist-mixed",
		Why:  "distributed, 10 agents in process, failures/aborts/coordination on: rollback, compensation, OCR, packets and elections do the work",
		Arch: crew.Distributed, Mixed: true, Warm: 1500, SatSeg: 600, SerSeg: 150,
	},
	{
		Name: "dist-procs",
		Why:  "one OS process per agent over unix sockets, failure-free: frame codec, hub protocol and kernel do the work; rules and navigation do little",
		Arch: crew.Distributed, Procs: true, Warm: 250, SatSeg: 130, SerSeg: 36,
	},
}

// Ungated legs the traced run adds so the parallel architecture and
// centralized failure handling have a recorded baseline.
var (
	legCentralMixed  = spec{Name: "central-mixed", Arch: crew.Central, Mixed: true, Warm: 500}
	legParallelMixed = spec{Name: "parallel-mixed", Arch: crew.Parallel, Mixed: true, Engines: 4, Warm: 500}
)

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// params is the repository's benchParams() point (bench_test.go): c=4, s=10,
// f=2, z=10, a=2, e=4, r=3, w=2. The normal variant switches every failure
// and coordination mechanism off.
func (sp *spec) params() analysis.Parameters {
	p := analysis.Default()
	p.C, p.S, p.E, p.Z, p.A, p.F, p.R, p.W = 4, 10, 4, 10, 2, 2, 3, 2
	if sp.Mixed {
		p.ME, p.RO, p.RD = 1, 2, 1
		p.PF, p.PI, p.PA, p.PR = 0.1, 0.025, 0.025, 0.25
	} else {
		p.ME, p.RO, p.RD = 0, 0, 0
		p.PF, p.PI, p.PA = 0, 0, 0
	}
	return p
}

// scaleFor turns a -seconds budget into the factor applied to every instance
// count. The floor keeps a serial segment of the slowest workload at a dozen
// instances or so; with fewer, the pooled percentiles run out of samples.
func scaleFor(seconds int) float64 {
	scale := float64(seconds) / nominalSeconds
	if scale < 0.4 {
		scale = 0.4
	}
	return scale
}

func (sp *spec) counts(scale float64) (warm, sat, ser int) {
	n := func(base int) int { return int(float64(base)*scale + 0.5) }
	return n(sp.Warm), n(sp.SatSeg), n(sp.SerSeg)
}

// target is what the load generator needs from a deployment. crew.System and
// mproc.Cluster both provide it.
type target interface {
	workload.Target
	Status(workflow string, id int) (wfdb.Status, bool)
}

// snapshotter is the result fetch of in-process deployments. A multi-process
// cluster has no hub-side instance state, so its result is the Status.
type snapshotter interface {
	Snapshot(workflow string, id int) (*wfdb.Instance, bool)
}

// deployment is one freshly built system under test with its own work
// directory.
type deployment struct {
	sp    *spec
	w     *workload.Workload
	sys   target
	col   *metrics.Collector
	sched []string // scheduling nodes whose load the paper's tables report
	dir   string
	seq   int // instances started so far; numbers the generated inputs
	// nudges counts the instances started to release a stalled one
	// (deployment.wait), nudgeFailed those among them that came out wrong.
	nudges, nudgeFailed atomic.Int64

	closed bool

	quiesce  func(context.Context) error
	closeSys func()
	st       *store.Store
	kids     *childCPU // the agent processes of a multi-process deployment

	spawn time.Duration // spawning and connecting the agent processes
}

var quiet = func(string, ...any) {}

// deploy builds a fresh deployment under dir (which must not exist yet: a
// reused WFDB answers "instance already terminated" for recycled ids).
func deploy(sp *spec, seed int64, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w, err := workload.Generate(sp.params(), schemaSeed)
	if err != nil {
		return nil, err
	}
	w.Seed = seed
	d := &deployment{sp: sp, w: w, col: metrics.NewCollector(), dir: dir, kids: newChildCPU(nil)}
	if sp.Procs {
		err = d.startCluster()
	} else {
		err = d.startSystem()
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("deploy %s: %w", sp.Name, err)
	}
	return d, nil
}

func (d *deployment) startSystem() error {
	sp := d.sp
	cfg := crew.Config{
		Library:      d.w.Library,
		Programs:     d.w.Programs,
		Architecture: sp.Arch,
		Agents:       d.w.Agents,
		Engines:      sp.Engines,
		Collector:    d.col,
		Logf:         quiet,
	}
	if sp.Durable {
		st, err := store.Open(filepath.Join(d.dir, "central.db"))
		if err != nil {
			return err
		}
		d.st = st
		cfg.DB = wfdb.New(st)
		if err := cfg.DB.SpillArchive(); err != nil {
			return err
		}
	}
	sys, err := crew.NewSystem(cfg)
	if err != nil {
		return err
	}
	d.sys, d.closeSys = sys, sys.Close
	q, ok := sys.(interface{ Quiesce(context.Context) error })
	if !ok {
		sys.Close()
		return fmt.Errorf("%T has no Quiesce", sys)
	}
	d.quiesce = q.Quiesce
	switch sp.Arch {
	case crew.Central:
		d.sched = []string{"engine"}
	case crew.Parallel:
		for i := 0; i < sp.Engines; i++ {
			d.sched = append(d.sched, "engine"+strconv.Itoa(i))
		}
	case crew.Distributed:
		d.sched = d.w.Agents
	}
	return nil
}

// startCluster is the deployment `crewrun -procs` builds: a hub in this
// process and this binary re-executed once per agent.
func (d *deployment) startCluster() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	p := d.sp.params()
	var children []*exec.Cmd
	t0 := time.Now()
	cl, err := mproc.NewCluster(mproc.ClusterConfig{
		Network:   "unix",
		Addr:      filepath.Join(d.dir, "hub.sock"),
		Library:   d.w.Library,
		Agents:    d.w.Agents,
		Collector: d.col,
		Command: func(string) *exec.Cmd {
			cmd := exec.Command(self)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			children = append(children, cmd)
			return cmd
		},
		Child: mproc.ChildParams{PurgeOnCommit: true, Workload: &p, Seed: schemaSeed},
		Logf:  quiet,
	})
	if err != nil {
		return err
	}
	d.sys, d.closeSys, d.quiesce = cl, cl.Close, cl.Quiesce
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		return fmt.Errorf("agent processes never connected: %w", err)
	}
	d.spawn = time.Since(t0)
	d.sched = d.w.Agents
	pids := make([]int, len(children))
	for i, c := range children {
		pids[i] = c.Process.Pid // started: the agent connected
	}
	d.kids = newChildCPU(pids)
	return nil
}

// settle waits until no message is queued, undelivered or being handled, so
// the collector's counters are final.
func (d *deployment) settle() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return d.quiesce(ctx)
}

// close stops the deployment (reaping agent processes) and deletes its work
// directory.
func (d *deployment) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.closeSys != nil {
		d.closeSys()
	}
	if d.st != nil {
		d.st.Close()
	}
	os.RemoveAll(d.dir)
}

// counters is the part of the collector the metrics read: messages per
// mechanism and, per scheduling node, load summed over mechanisms.
type counters struct {
	msgs [len(metrics.Mechanisms)]int64
	load []int64
}

func (d *deployment) counters() counters {
	c := counters{load: make([]int64, len(d.sched))}
	for i, m := range metrics.Mechanisms {
		c.msgs[i] = d.col.Messages(m)
	}
	for i, n := range d.sched {
		for _, m := range metrics.Mechanisms {
			c.load[i] += d.col.NodeLoad(n, m)
		}
	}
	return c
}

// since returns the counts accumulated after base was taken.
func (c counters) since(base counters) counters {
	out := counters{load: make([]int64, len(c.load))}
	for i := range c.msgs {
		out.msgs[i] = c.msgs[i] - base.msgs[i]
	}
	for i := range c.load {
		out.load[i] = c.load[i] - base.load[i]
	}
	return out
}

func (c counters) totalMsgs() (t int64) {
	for _, n := range c.msgs {
		t += n
	}
	return t
}

// maxLoad is the load at the busiest scheduling node, meanLoad the average
// over scheduling nodes (the figure the paper's tables print).
func (c counters) maxLoad() (max int64) {
	for _, l := range c.load {
		if l > max {
			max = l
		}
	}
	return max
}

func (c counters) meanLoad() float64 {
	if len(c.load) == 0 {
		return 0
	}
	var t int64
	for _, l := range c.load {
		t += l
	}
	return float64(t) / float64(len(c.load))
}
