package mproc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crew/internal/analysis"
	"crew/internal/cerrors"
	"crew/internal/distributed"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// ClusterConfig parameterizes a multi-process deployment.
type ClusterConfig struct {
	// Network selects the hub wire: "unix" (default) or "tcp". Addr may stay
	// empty (private socket path / loopback port).
	Network string
	Addr    string
	// Library and Agents define the deployment; every child must resolve an
	// identical library (same workload recipe or LAWS source).
	Library *model.Library
	Agents  []string
	// Collector receives the hub network's authoritative message counts
	// (may be nil). Child-local counts are deliberately discarded: every
	// inter-agent message crosses the hub, where it is charged once.
	Collector *metrics.Collector
	// OnExec observes the EXEC events children report (coordination
	// checking); may be nil, and then the children send none.
	OnExec func(transport.ExecEvent)
	// Command builds the (unstarted) child process for an agent — typically
	// the current binary re-executed; the cluster appends EnvChildConfig to
	// its environment. Called again on every RestartNode.
	Command func(name string) *exec.Cmd
	// Child is the per-agent configuration template; Name/Network/Addr/
	// Agents/DBPath are filled in by the cluster. DBDir, when
	// non-empty, gives every agent a persistent WFDB file there — required
	// for crash recovery to survive the process boundary.
	Child ChildParams
	Logf  func(format string, args ...any)
}

// ChildParams is the part of ChildConfig the cluster owner chooses.
type ChildParams struct {
	DBDir      string
	DisableOCR bool
	// PurgeOnCommit does nothing. Every agent process drops its replica of a
	// finished instance from the completions the hub relays; the field stays
	// until its last setter, the benchmark's dist-procs deployment, lets go.
	PurgeOnCommit bool
	// Workload + Seed ship the deterministic workload recipe; LawsPath
	// ships a LAWS source instead.
	Workload *analysis.Parameters
	Seed     int64
	LawsPath string
	FailStep string
}

// Cluster is the hub process's handle on a multi-process deployment. It
// implements workload.Target (Start/Wait/Abort/ChangeInputs address the
// elected coordination agents over the wire) and faults.NodeHooks (HaltNode
// SIGKILLs the agent's process, RestartNode re-executes it).
type Cluster struct {
	cfg  ClusterConfig
	net  *transport.Network
	hub  *transport.RemoteHub
	term *itable.Terminal
	fe   *transport.Endpoint

	mu     sync.Mutex
	nextID map[string]int
	procs  map[string]*childProc

	respawns atomic.Int64
	feDone   chan struct{}
	closed   atomic.Bool
}

type childProc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// NewCluster binds the hub, registers every agent as a remote node and
// spawns the child processes. Call WaitConnected before driving work.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Library == nil || len(cfg.Agents) == 0 || cfg.Command == nil {
		return nil, errors.New("mproc: cluster needs a library, agents and a child command")
	}
	if cfg.Network == "" {
		cfg.Network = "unix"
	}
	c := &Cluster{
		cfg:    cfg,
		net:    transport.NewNetwork(transport.NetworkConfig{Collector: cfg.Collector}),
		term:   new(itable.Terminal),
		nextID: make(map[string]int),
		procs:  make(map[string]*childProc),
		feDone: make(chan struct{}),
	}
	hub, err := transport.NewRemoteHub(c.net, cfg.Network, cfg.Addr, cfg.OnExec)
	if err != nil {
		c.net.Close()
		return nil, err
	}
	c.hub = hub
	hub.UseRegistry(func(key string) (transport.Completion, bool) {
		wf, id, err := wfdb.ParseInstanceKey(key)
		st, ok := c.term.Status(wf, id)
		return transport.Completion{Workflow: wf, ID: id, Status: byte(st)}, err == nil && ok && st != wfdb.Running
	})
	for _, name := range cfg.Agents {
		if err := hub.RegisterRemote(name); err != nil {
			c.net.Close()
			return nil, err
		}
	}
	fe, err := c.net.Register(FrontendNode)
	if err != nil {
		c.net.Close()
		return nil, err
	}
	c.fe = fe
	go c.consumeFrontend()
	for _, name := range cfg.Agents {
		if err := c.spawn(name); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	} else {
		log.Printf("mproc: "+format, args...)
	}
}

// consumeFrontend retires WorkflowDone notifications into the terminal
// registry, waking Wait subscribers, and hands each drain pass's completions
// to the hub, which relays them to every agent process: there they complete
// the agent's private registry, and bystanders drop their replicas as they do
// in one process. It drains the front end's mailbox itself, as an actor
// does: the hub runs no feeder goroutine for it.
func (c *Cluster) consumeFrontend() {
	defer close(c.feDone)
	var done []transport.Completion
	handle := func(m transport.Message) {
		if p, ok := m.Payload.(*distributed.WorkflowDone); ok {
			c.term.Complete(p.Workflow, p.Instance, p.Status)
			done = append(done, transport.Completion{Workflow: p.Workflow, ID: p.Instance, Status: byte(p.Status)})
		}
	}
	sink := func(m transport.Message) error {
		if env, ok := m.Payload.(*transport.Envelope); ok && m.Kind == transport.KindEnvelope {
			for i := range env.Msgs {
				handle(env.Msgs[i])
			}
			env.Release()
			return nil
		}
		handle(m)
		return nil
	}
	for wake := c.fe.Wake(); c.fe.Drain(sink); {
		c.hub.Relay(done)
		done = done[:0]
		<-wake
	}
}

// childConfig builds the JSON configuration for one agent process.
func (c *Cluster) childConfig(name string) *ChildConfig {
	cc := &ChildConfig{
		Name:       name,
		Network:    c.cfg.Network,
		Addr:       c.hub.Addr(),
		Agents:     c.cfg.Agents,
		DisableOCR: c.cfg.Child.DisableOCR,
		ReportExec: c.cfg.OnExec != nil,
		Workload:   c.cfg.Child.Workload,
		Seed:       c.cfg.Child.Seed,
		LawsPath:   c.cfg.Child.LawsPath,
		FailStep:   c.cfg.Child.FailStep,
	}
	if c.cfg.Child.DBDir != "" {
		cc.DBPath = filepath.Join(c.cfg.Child.DBDir, name+".agdb")
	}
	return cc
}

// spawn launches (or relaunches) an agent's process. The child's WFDB path
// is stable across respawns: that file is what recovery rebuilds from.
func (c *Cluster) spawn(name string) error {
	entry, err := c.childConfig(name).Env()
	if err != nil {
		return err
	}
	cmd := c.cfg.Command(name)
	if cmd == nil {
		return fmt.Errorf("mproc: no command for agent %s", name)
	}
	if cmd.Env == nil {
		cmd.Env = os.Environ()
	}
	cmd.Env = append(cmd.Env, entry)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("mproc: start agent %s: %w", name, err)
	}
	p := &childProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	c.mu.Lock()
	c.procs[name] = p
	c.mu.Unlock()
	return nil
}

// WaitConnected blocks until every agent process has claimed its node.
func (c *Cluster) WaitConnected(ctx context.Context) error {
	return c.hub.WaitConnected(ctx, c.cfg.Agents...)
}

// Network exposes the authoritative hub network (fault attachment, Quiesce,
// AwaitStall).
func (c *Cluster) Network() *transport.Network { return c.net }

// Collector returns the hub's metrics collector.
func (c *Cluster) Collector() *metrics.Collector { return c.cfg.Collector }

// Respawns reports how many agent processes were restarted.
func (c *Cluster) Respawns() int64 { return c.respawns.Load() }

// coordinator elects the coordination agent a workflow interface must
// address — the same zero-message election agents and front ends share.
func (c *Cluster) coordinator(workflow string, id int) (string, error) {
	return distributed.CoordinatorFor(c.cfg.Library, c.cfg.Agents, workflow, id, c.net.Alive)
}

// Start launches an instance by sending the WorkflowStart WI to its elected
// coordination agent, subscribing the frontend to its WorkflowDone.
func (c *Cluster) Start(workflow string, inputs map[string]expr.Value) (int, error) {
	c.mu.Lock()
	id := c.nextID[workflow] + 1
	c.nextID[workflow] = id
	c.mu.Unlock()
	to, err := c.coordinator(workflow, id)
	if err != nil {
		return 0, err
	}
	if err := c.net.Send(distributed.StartMessage(FrontendNode, to, workflow, id, inputs, FrontendNode)); err != nil {
		return 0, err
	}
	return id, nil
}

// Wait blocks until the instance terminates (push-based via the terminal
// registry) or the timeout expires.
func (c *Cluster) Wait(workflow string, id int, timeout time.Duration) (wfdb.Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.term.Wait(ctx, workflow, id, nil)
}

// Status reports an instance's terminal status, if it has one.
func (c *Cluster) Status(workflow string, id int) (wfdb.Status, bool) {
	return c.term.Status(workflow, id)
}

// Abort requests a user abort via the instance's coordination agent.
func (c *Cluster) Abort(workflow string, id int) error {
	to, err := c.runningCoordinator(workflow, id)
	if err != nil {
		return err
	}
	return c.net.Send(distributed.AbortMessage(FrontendNode, to, workflow, id))
}

// ChangeInputs requests an input change via the coordination agent.
func (c *Cluster) ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error {
	to, err := c.runningCoordinator(workflow, id)
	if err != nil {
		return err
	}
	return c.net.Send(distributed.ChangeInputsMessage(FrontendNode, to, workflow, id, inputs))
}

// runningCoordinator is the coordination agent a request about a running
// instance goes to; a finished instance is refused before anything is sent.
func (c *Cluster) runningCoordinator(workflow string, id int) (string, error) {
	if st, ok := c.term.Status(workflow, id); ok && st != wfdb.Running {
		return "", fmt.Errorf("mproc: %w: %s.%d is %v", cerrors.ErrNotRunning, workflow, id, st)
	}
	return c.coordinator(workflow, id)
}

// Quiesce waits for the hub network to go idle or stall.
func (c *Cluster) Quiesce(ctx context.Context) error { return c.net.Quiesce(ctx) }

// HaltNode implements faults.NodeHooks with a real crash: the agent's OS
// process is SIGKILLed mid-flight — no flushes, no goodbyes — and the kill is
// announced so surviving children update their election liveness. The
// injector has already applied Network.Crash (parking the node's traffic)
// before calling this.
func (c *Cluster) HaltNode(name string) {
	c.hub.Announce(name, false)
	c.mu.Lock()
	p := c.procs[name]
	c.mu.Unlock()
	if p == nil {
		return
	}
	p.cmd.Process.Kill()
	<-p.done // reap before a respawn may reopen the WFDB file
}

// RestartNode re-executes the agent's process against its surviving WFDB
// file; the fresh process rebuilds replicas from it (RecoverReplicas),
// reclaims its hub node and receives the parked + unacked replay. The
// injector applies Network.Recover after this returns.
func (c *Cluster) RestartNode(name string) {
	if c.closed.Load() {
		return
	}
	if err := c.spawn(name); err != nil {
		c.logf("respawn %s: %v", name, err)
		return
	}
	c.respawns.Add(1)
	c.hub.Announce(name, true)
}

// Close tears the cluster down: children are killed first (they are of no
// use without the hub), then the network closes — taking the hub and its
// connections with it — and the frontend consumer drains out.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	c.mu.Lock()
	procs := make([]*childProc, 0, len(c.procs))
	for _, p := range c.procs {
		procs = append(procs, p)
	}
	c.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Kill()
	}
	for _, p := range procs {
		<-p.done
	}
	c.net.Close()
	<-c.feDone
}
