// Package parallel implements the parallel workflow control architecture
// (paper Figure 6(b) and §6): several centralized engines work side by side
// to share the workflow management load, each instance being controlled by
// exactly one engine. Normal execution behaves like centralized control at
// every engine (the per-instance message count is unchanged), but
// coordinated execution now spans engines: the coordination state for the
// library's specs lives at a home engine, and the other engines reach it
// with physical messages — which is why, unlike Table 4's zero, Table 5
// reports coordination messages that grow with the number of engines.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"crew/internal/actor"
	"crew/internal/binenc"
	"crew/internal/central"
	"crew/internal/coord"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// Coordination protocol payloads (engine <-> home engine).

type coordCheck struct {
	Ref         model.StepRef
	Inst        coord.InstanceRef
	ReplyEngine string
}

type coordResolve struct {
	Inst       coord.InstanceRef
	Step       model.StepID
	WaitEvents []string
}

type coordDone struct {
	Ref  model.StepRef
	Inst coord.InstanceRef
}

type coordFailed struct {
	Ref  model.StepRef
	Inst coord.InstanceRef
}

type coordRollback struct {
	Workflow    string
	Invalidated []model.StepID
}

type coordForget struct {
	Inst coord.InstanceRef
}

type coordInject struct {
	Target coord.InstanceRef
	Event  string
}

type coordOrder struct {
	Order coord.RollbackOrder
}

func init() {
	// Register the coordination payloads with their codecs so wire backends
	// can carry them.
	transport.RegisterPayload(appendCoordCheck, decodeCoordCheck)
	transport.RegisterPayload(appendCoordResolve, decodeCoordResolve)
	transport.RegisterPayload(appendCoordDone, decodeCoordDone)
	transport.RegisterPayload(appendCoordFailed, decodeCoordFailed)
	transport.RegisterPayload(appendCoordRollback, decodeCoordRollback)
	transport.RegisterPayload(appendCoordForget, decodeCoordForget)
	transport.RegisterPayload(appendCoordInject, decodeCoordInject)
	transport.RegisterPayload(appendCoordOrder, decodeCoordOrder)
}

// Wire codecs: the fields in declaration order on the primitives of package
// binenc.

func appendCoordCheck(dst []byte, p coordCheck, _ *[]string) []byte {
	return binenc.AppendString(p.Inst.Append(p.Ref.Append(dst)), p.ReplyEngine)
}

func decodeCoordCheck(r *binenc.Reader) coordCheck {
	return coordCheck{Ref: model.DecodeStepRef(r), Inst: coord.DecodeInstanceRef(r), ReplyEngine: r.Str()}
}

func appendCoordResolve(dst []byte, p coordResolve, _ *[]string) []byte {
	dst = binenc.AppendString(p.Inst.Append(dst), string(p.Step))
	return binenc.AppendStrings(dst, p.WaitEvents)
}

func decodeCoordResolve(r *binenc.Reader) coordResolve {
	return coordResolve{Inst: coord.DecodeInstanceRef(r), Step: model.StepID(r.Str()), WaitEvents: binenc.Strings[string](r)}
}

func appendCoordDone(dst []byte, p coordDone, _ *[]string) []byte {
	return p.Inst.Append(p.Ref.Append(dst))
}

func decodeCoordDone(r *binenc.Reader) coordDone {
	return coordDone{Ref: model.DecodeStepRef(r), Inst: coord.DecodeInstanceRef(r)}
}

func appendCoordFailed(dst []byte, p coordFailed, _ *[]string) []byte {
	return p.Inst.Append(p.Ref.Append(dst))
}

func decodeCoordFailed(r *binenc.Reader) coordFailed {
	return coordFailed{Ref: model.DecodeStepRef(r), Inst: coord.DecodeInstanceRef(r)}
}

func appendCoordRollback(dst []byte, p coordRollback, _ *[]string) []byte {
	return binenc.AppendStrings(binenc.AppendString(dst, p.Workflow), p.Invalidated)
}

func decodeCoordRollback(r *binenc.Reader) coordRollback {
	return coordRollback{Workflow: r.Str(), Invalidated: binenc.Strings[model.StepID](r)}
}

func appendCoordForget(dst []byte, p coordForget, _ *[]string) []byte {
	return p.Inst.Append(dst)
}

func decodeCoordForget(r *binenc.Reader) coordForget {
	return coordForget{Inst: coord.DecodeInstanceRef(r)}
}

func appendCoordInject(dst []byte, p coordInject, _ *[]string) []byte {
	return binenc.AppendString(p.Target.Append(dst), p.Event)
}

func decodeCoordInject(r *binenc.Reader) coordInject {
	return coordInject{Target: coord.DecodeInstanceRef(r), Event: r.Str()}
}

func appendCoordOrder(dst []byte, p coordOrder, _ *[]string) []byte {
	return p.Order.Append(dst)
}

func decodeCoordOrder(r *binenc.Reader) coordOrder {
	return coordOrder{Order: coord.DecodeRollbackOrder(r)}
}

// Message kind labels.
const (
	kindCoordCheck   = "CoordCheck"
	kindCoordResolve = "CoordResolve"
	kindCoordDone    = "CoordDone"
	kindCoordFailed  = "CoordFailed"
	kindCoordRollbk  = "CoordRollback"
	kindCoordForget  = "CoordForget"
	kindCoordInject  = "CoordInject"
	kindCoordOrder   = "CoordOrder"
)

// SystemConfig parameterizes a parallel deployment.
type SystemConfig struct {
	Library   *model.Library
	Programs  *model.Registry
	Collector *metrics.Collector
	// Engines is the paper's e; minimum 1.
	Engines int
	// Agents lists the shared application agents.
	Agents []string
	// DBs optionally gives each engine a database (len must equal Engines).
	DBs        []*wfdb.DB
	DisableOCR bool
	// Wire selects the transport backend (nil = in-process channels).
	Wire transport.Wire
	Logf func(format string, args ...any)
}

// System is a running parallel WFMS deployment. The embedded client supplies
// Start, Run, RunCtx and Wait over the StartCtx and WaitCtx below.
type System struct {
	*actor.Client
	engines []*central.Engine
	net     *transport.Network
	agents  []*central.Agent
	col     *metrics.Collector
	home    *homeCoordinator

	// owner and nextID are fixed-shard tables (hash on workflow+id), so
	// concurrent Start/Wait/routing traffic for different instances does not
	// contend on one system mutex. Owner entries are dropped when the owning
	// engine retires the instance (OnRetired), keeping the table flat.
	owner  itable.Map[int] // instance ref -> engine index
	nextID itable.Map[int] // {workflow, 0} -> last assigned ID
	rr     atomic.Int64

	// term is the terminal-status registry shared by every engine; archive
	// is the shared retirement archive of DB-less deployments, so any engine
	// can answer Snapshot for a retired instance.
	term    *itable.Terminal
	archive *wfdb.DB
}

// NewSystem builds and starts a parallel deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Library == nil || cfg.Programs == nil {
		return nil, errors.New("parallel: system needs a library and programs")
	}
	if err := cfg.Library.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engines < 1 {
		cfg.Engines = 1
	}
	if cfg.Collector == nil {
		cfg.Collector = metrics.NewCollector()
	}
	if cfg.DBs != nil && len(cfg.DBs) != cfg.Engines {
		return nil, errors.New("parallel: DBs length must equal Engines")
	}
	agents := cfg.Agents
	if len(agents) == 0 {
		agents = cfg.Library.SortedAgents()
	}
	if len(agents) == 0 {
		agents = []string{"agent1", "agent2"}
	}

	net := transport.NewNetwork(transport.NetworkConfig{Collector: cfg.Collector, Wire: cfg.Wire})
	sys := &System{
		net:     net,
		col:     cfg.Collector,
		term:    new(itable.Terminal),
		archive: wfdb.NewMemory(),
	}
	sys.Client = actor.NewClient("parallel", cfg.Library, sys)

	for i := 0; i < cfg.Engines; i++ {
		name := fmt.Sprintf("engine%d", i)
		var db *wfdb.DB
		if cfg.DBs != nil {
			db = cfg.DBs[i]
		}
		idx := i
		eng, err := central.NewEngine(central.Config{
			Name:       name,
			Library:    cfg.Library,
			Agents:     agents,
			Programs:   cfg.Programs,
			Collector:  cfg.Collector,
			DB:         db,
			Archive:    sys.archive,
			Terminal:   sys.term,
			DisableOCR: cfg.DisableOCR,
			Logf:       cfg.Logf,
			OnRetired: func(workflow string, id int) {
				sys.owner.Delete(itable.Ref{Workflow: workflow, ID: id})
			},
			OnUnhandled: func(m transport.Message) {
				sys.onCoordMessage(idx, m)
			},
		}, net)
		if err != nil {
			sys.Close()
			return nil, err
		}
		sys.engines = append(sys.engines, eng)
	}

	sys.home = &homeCoordinator{
		sys:     sys,
		tracker: coord.NewTracker(cfg.Library),
		idx:     0,
		rec:     cfg.Collector.Node(sys.engines[0].Name()),
	}
	for i, eng := range sys.engines {
		eng.SetCoordinator(&remoteCoordinator{sys: sys, idx: i})
	}

	for _, name := range agents {
		ag, err := central.NewAgent(name, net, cfg.Programs, cfg.Collector, cfg.Logf)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("parallel: agent %s: %w", name, err)
		}
		sys.agents = append(sys.agents, ag)
	}
	return sys, nil
}

// Engines returns the number of engines.
func (s *System) Engines() int { return len(s.engines) }

// Collector returns the metrics collector.
func (s *System) Collector() *metrics.Collector { return s.col }

// Network exposes the transport.
func (s *System) Network() *transport.Network { return s.net }

// ownerOf returns the engine index owning an instance (defaults to 0).
func (s *System) ownerOf(inst coord.InstanceRef) int {
	idx, _ := s.owner.Get(itable.Ref{Workflow: inst.Workflow, ID: inst.ID})
	return idx
}

// engineFor returns the engine owning an instance.
func (s *System) engineFor(workflow string, id int) *central.Engine {
	idx, _ := s.owner.Get(itable.Ref{Workflow: workflow, ID: id})
	return s.engines[idx]
}

// StartCtx launches an instance on the next engine (round robin). The context
// gates only the admission of the request; a started instance keeps running
// after ctx is cancelled.
func (s *System) StartCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	id := s.nextID.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int { return v + 1 })
	idx := int(s.rr.Add(1)-1) % len(s.engines)
	s.owner.Put(itable.Ref{Workflow: workflow, ID: id}, idx)
	if err := s.engines[idx].StartWithID(workflow, id, inputs); err != nil {
		return 0, err
	}
	return id, nil
}

// StartSeq launches an instance under an externally assigned ID and global
// sequence number. The owning engine is seq modulo the engine count — the
// same placement the round-robin Start produces when instances are started
// one at a time in sequence order — so concurrent drivers reproduce the
// sequential placement exactly regardless of call interleaving. A StartSeq
// racing Close fails with cerrors.ErrClosed instead of panicking on the
// closed transport.
func (s *System) StartSeq(workflow string, id, seq int, inputs map[string]expr.Value) error {
	if err := s.Admit(context.Background(), ""); err != nil {
		return err
	}
	idx := seq % len(s.engines)
	s.nextID.Update(itable.Ref{Workflow: workflow}, func(v int, _ bool) int {
		if id > v {
			return id
		}
		return v
	})
	for {
		cur := s.rr.Load()
		if int64(seq+1) <= cur || s.rr.CompareAndSwap(cur, int64(seq+1)) {
			break
		}
	}
	s.owner.Put(itable.Ref{Workflow: workflow, ID: id}, idx)
	return s.engines[idx].StartWithID(workflow, id, inputs)
}

// Quiesce blocks until no message is queued, undelivered or still being
// processed anywhere in the deployment.
func (s *System) Quiesce(ctx context.Context) error { return s.net.Quiesce(ctx) }

// WaitCtx blocks until the instance terminates or ctx ends (the contract is
// itable.Terminal.Wait's): it subscribes to the shared terminal registry —
// no routing through the owner map, which drops retired instances. An
// instance that finished under a previous engine incarnation exists only as
// a database summary, which its engine's Status reads.
func (s *System) WaitCtx(ctx context.Context, workflow string, id int) (wfdb.Status, error) {
	if err := s.Admit(ctx, workflow); err != nil {
		return 0, err
	}
	return s.term.Wait(ctx, workflow, id, func() (wfdb.Status, bool) {
		return s.engineFor(workflow, id).Status(workflow, id)
	})
}

// Abort requests a user abort.
func (s *System) Abort(workflow string, id int) error {
	return s.engineFor(workflow, id).Abort(workflow, id)
}

// ChangeInputs applies user-initiated input changes.
func (s *System) ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error {
	return s.engineFor(workflow, id).ChangeInputs(workflow, id, inputs)
}

// Status reports an instance's status.
func (s *System) Status(workflow string, id int) (wfdb.Status, bool) {
	return s.engineFor(workflow, id).Status(workflow, id)
}

// Snapshot returns a deep copy of the instance state. Retired instances
// answer from the shared archive via any engine; DB-backed deployments fall
// back to scanning each engine's own archive.
func (s *System) Snapshot(workflow string, id int) (*wfdb.Instance, bool) {
	if ins, ok := s.engineFor(workflow, id).Snapshot(workflow, id); ok {
		return ins, true
	}
	for _, e := range s.engines {
		if ins, ok := e.Snapshot(workflow, id); ok {
			return ins, true
		}
	}
	return nil, false
}

// Close shuts the deployment down. Later context-aware calls fail with
// cerrors.ErrClosed.
func (s *System) Close() {
	if !s.Shut() {
		return
	}
	s.net.Close()
	for _, e := range s.engines {
		e.Stop()
	}
	for _, a := range s.agents {
		a.Stop()
	}
}

// HaltNode simulates a process crash of a named node. A crashed engine
// discards its volatile state (rebuilt from its WFDB by RestartNode); agents
// are stateless, so for them — and unknown names — only the transport queue
// is parked. The home coordination tracker (engine 0) is treated as part of
// the persistent coordination database, matching the paper's assumption that
// scheduler state survives in stable storage.
func (s *System) HaltNode(name string) {
	s.net.Crash(name)
	for _, e := range s.engines {
		if e.Name() == name {
			e.Halt()
		}
	}
}

// RestartNode recovers a node halted by HaltNode: a crashed engine rebuilds
// from its WFDB, then the transport delivers the messages parked while the
// node was down.
func (s *System) RestartNode(name string) {
	for _, e := range s.engines {
		if e.Name() == name {
			e.Restart()
		}
	}
	s.net.Recover(name)
}

// onCoordMessage dispatches coordination protocol messages. It runs on the
// receiving engine's goroutine.
func (s *System) onCoordMessage(engineIdx int, m transport.Message) {
	eng := s.engines[engineIdx]
	switch p := m.Payload.(type) {
	case coordCheck:
		s.home.check(p.Ref, p.Inst, p.ReplyEngine)
	case coordDone:
		s.home.stepDone(p.Ref, p.Inst)
	case coordFailed:
		s.home.stepFailed(p.Ref, p.Inst)
	case coordRollback:
		s.home.rollback(p.Workflow, p.Invalidated)
	case coordForget:
		s.home.forget(p.Inst)
	case coordResolve:
		eng.ResolveCoord(p.Inst.Workflow, p.Inst.ID, p.Step, p.WaitEvents)
	case coordInject:
		eng.InjectEvent(p.Target.Workflow, p.Target.ID, p.Event)
	case coordOrder:
		eng.ApplyRollbackOrder(p.Order)
	}
}

// ---------------------------------------------------------------------------
// Home coordinator: owns the tracker; runs on engine 0's goroutine.

type homeCoordinator struct {
	sys     *System
	tracker *coord.Tracker
	idx     int // home engine index
	rec     metrics.NodeRecorder
}

func (h *homeCoordinator) homeEngine() *central.Engine { return h.sys.engines[h.idx] }

func (h *homeCoordinator) load(units int64) {
	h.rec.Add(metrics.Coordination, units)
}

// send puts a protocol message to another engine into the home engine's
// turn (every homeCoordinator method runs on the home engine's goroutine).
func (h *homeCoordinator) send(to, kind string, payload any) {
	h.homeEngine().Send(to, metrics.Coordination, kind, payload)
}

// deliver routes an injection to the engine owning the target instance.
func (h *homeCoordinator) deliver(inj coord.Injection) {
	ownerIdx := h.sys.ownerOf(inj.Target)
	if ownerIdx == h.idx {
		h.homeEngine().InjectEvent(inj.Target.Workflow, inj.Target.ID, inj.Event)
		return
	}
	h.send(h.sys.engines[ownerIdx].Name(), kindCoordInject,
		coordInject{Target: inj.Target, Event: inj.Event})
}

func (h *homeCoordinator) check(ref model.StepRef, inst coord.InstanceRef, replyEngine string) {
	h.load(1)
	waits := h.tracker.OrderWait(ref, inst)
	grants, mutexWaits := h.tracker.MutexAcquire(ref, inst)
	waits = append(waits, mutexWaits...)
	for _, g := range grants {
		h.deliver(g)
	}
	if replyEngine == h.homeEngine().Name() {
		h.homeEngine().ResolveCoord(inst.Workflow, inst.ID, ref.Step, waits)
		return
	}
	h.send(replyEngine, kindCoordResolve,
		coordResolve{Inst: inst, Step: ref.Step, WaitEvents: waits})
}

func (h *homeCoordinator) stepDone(ref model.StepRef, inst coord.InstanceRef) {
	h.load(1)
	for _, inj := range h.tracker.OrderStepDone(ref, inst) {
		h.deliver(inj)
	}
	for _, inj := range h.tracker.MutexRelease(ref, inst) {
		h.deliver(inj)
	}
}

func (h *homeCoordinator) stepFailed(ref model.StepRef, inst coord.InstanceRef) {
	h.load(1)
	for _, inj := range h.tracker.MutexRelease(ref, inst) {
		h.deliver(inj)
	}
}

func (h *homeCoordinator) rollback(workflow string, invalidated []model.StepID) {
	h.load(1)
	orders := h.tracker.RollbackTriggered(workflow, invalidated)
	if len(orders) == 0 {
		return
	}
	// Every engine may own instances of the dependent class: broadcast.
	for _, ord := range orders {
		for i, eng := range h.sys.engines {
			if i == h.idx {
				eng.ApplyRollbackOrder(ord)
				continue
			}
			h.send(eng.Name(), kindCoordOrder, coordOrder{Order: ord})
		}
	}
}

func (h *homeCoordinator) forget(inst coord.InstanceRef) {
	h.load(1)
	for _, inj := range h.tracker.OrderForget(inst) {
		h.deliver(inj)
	}
	for _, inj := range h.tracker.MutexForget(inst) {
		h.deliver(inj)
	}
}

// ---------------------------------------------------------------------------
// Remote coordinator: what each engine talks to. On the home engine the
// calls go straight to the home coordinator (same goroutine); elsewhere they
// become physical messages.

type remoteCoordinator struct {
	sys *System
	idx int
}

var _ central.Coordinator = (*remoteCoordinator)(nil)

func (r *remoteCoordinator) local() bool { return r.idx == r.sys.home.idx }

func (r *remoteCoordinator) name() string { return r.sys.engines[r.idx].Name() }

// toHome puts a protocol message to the home engine into this engine's turn
// (Coordinator methods are invoked from the engine's goroutine).
func (r *remoteCoordinator) toHome(kind string, payload any) {
	r.sys.engines[r.idx].Send(r.sys.home.homeEngine().Name(), metrics.Coordination, kind, payload)
}

// Check implements central.Coordinator.
func (r *remoteCoordinator) Check(ref model.StepRef, inst coord.InstanceRef) {
	if r.local() {
		r.sys.home.check(ref, inst, r.name())
		return
	}
	r.toHome(kindCoordCheck,
		coordCheck{Ref: ref, Inst: inst, ReplyEngine: r.name()})
}

// StepDone implements central.Coordinator.
func (r *remoteCoordinator) StepDone(ref model.StepRef, inst coord.InstanceRef) {
	if r.local() {
		r.sys.home.stepDone(ref, inst)
		return
	}
	r.toHome(kindCoordDone, coordDone{Ref: ref, Inst: inst})
}

// StepFailed implements central.Coordinator.
func (r *remoteCoordinator) StepFailed(ref model.StepRef, inst coord.InstanceRef) {
	if r.local() {
		r.sys.home.stepFailed(ref, inst)
		return
	}
	r.toHome(kindCoordFailed, coordFailed{Ref: ref, Inst: inst})
}

// Rollback implements central.Coordinator.
func (r *remoteCoordinator) Rollback(workflow string, invalidated []model.StepID) {
	if r.local() {
		r.sys.home.rollback(workflow, invalidated)
		return
	}
	r.toHome(kindCoordRollbk,
		coordRollback{Workflow: workflow, Invalidated: invalidated})
}

// Forget implements central.Coordinator.
func (r *remoteCoordinator) Forget(inst coord.InstanceRef) {
	if r.local() {
		r.sys.home.forget(inst)
		return
	}
	r.toHome(kindCoordForget, coordForget{Inst: inst})
}
