package mproc

import (
	"fmt"

	"crew/internal/distributed"
	"crew/internal/expr"
	"crew/internal/itable"
	"crew/internal/model"
	"crew/internal/store"
	"crew/internal/transport"
	"crew/internal/wfdb"
)

// RunChild is an agent process's main loop: dial the hub, claim the node,
// rebuild replicas from the (surviving) WFDB file, then process deliveries
// until the hub connection dies. The caller resolves the library and
// programs — both sides of the process boundary must derive them from the
// same recipe (cfg.ResolveWorkload for parameter-driven deployments, a
// compiled LAWS source for crewrun).
//
// An agent process keeps only a database something reads back. With
// cfg.DBPath it persists its replicas there, and a respawned process recovers
// from the file. Without one it keeps no database at all: not its replicas,
// which would die with the process they are meant to outlive, nor an archive
// of the instances it coordinated, since the hub answers Status
// and Wait from its own registry and nothing can ask a child for a Snapshot.
//
// A delivery crosses no goroutine boundary between the socket read and the
// socket write. The connection's reader runs the agent's turn itself
// (Agent.Deliver), and the local Network registers every peer, and the notify
// node, as a direct node whose function appends the message to the
// connection as a MSG frame: the turn commits its rows, its flush puts the
// frames in the connection's buffer, Deliver returns, and Serve appends the
// ACK. Serve runs every delivery one read brought in this way and writes the
// buffer once, before it reads again. Commit-before-send, write-before-ACK
// and one-write-per-read hold because those are consecutive statements on one
// goroutine, and the hub's in-flight accounting never observes a gap. A sweep
// tick or a command between reads is a turn on the agent's own goroutine and
// writes its frames when it ends. Local message counts are discarded — the
// hub charges every message once, authoritatively. EXEC frames are sent only
// when cfg.ReportExec asks for them.
//
// The agent's terminal registry is completed from every DONE frame the hub
// relays, so a bystander drops its replica of an instance that finished in
// another process as agents sharing one registry do. The HELLO lists the
// database's instance rows, and the hub answers with those that finished.
func RunChild(cfg *ChildConfig, lib *model.Library, programs *model.Registry) error {
	if cfg == nil {
		return fmt.Errorf("mproc: RunChild needs a config")
	}
	db, err := openDB(cfg)
	if err != nil {
		return err
	}
	var held []string
	if db != nil {
		defer db.Store().Close()
		held = db.InstanceKeys()
	}
	conn, err := transport.DialHub(cfg.Network, cfg.Addr, cfg.Name, held...)
	if err != nil {
		return err
	}
	defer conn.Close()

	net := transport.NewNetwork(transport.NetworkConfig{})
	// Envelopes are flattened on the wire (the hub re-counts each logical
	// message) and released here. SendMessage's error is dropped: a failed
	// write has closed the connection and Serve is returning it.
	toHub := func(m transport.Message) {
		conn.SendMessage(m)
		if env, ok := m.Payload.(*transport.Envelope); ok && m.Kind == transport.KindEnvelope {
			env.Release()
		}
	}
	for _, peer := range append(append([]string(nil), cfg.Agents...), FrontendNode) {
		if peer == cfg.Name {
			continue
		}
		if err := net.RegisterDirect(peer, toHub); err != nil {
			net.Close()
			return err
		}
	}

	if cfg.ReportExec {
		programs = reportExec(conn, programs)
	}
	term := new(itable.Terminal)
	agent, err := newAgent(cfg, db, term, lib, programs, net, conn.Alive)
	if err != nil {
		net.Close()
		return err
	}

	// Rebuild before serving: recovered replicas re-announce terminal
	// summaries and resume from checkpoints, and only then does the hub's
	// replay of unacked deliveries (already queued on the connection) start
	// flowing — redelivered duplicates meet a fully restored state.
	if err := agent.RecoverReplicas(); err != nil {
		net.Close()
		agent.Stop()
		return fmt.Errorf("mproc: recover replicas: %w", err)
	}

	conn.OnLiveness = agent.LivenessChanged
	serveErr := conn.Serve(func(m transport.Message) error {
		agent.Deliver(m)
		return nil
	}, func(d transport.Completion) {
		term.Complete(d.Workflow, d.ID, wfdb.Status(d.Status))
	})
	net.Close()
	agent.Stop()
	return serveErr
}

// openDB opens the agent's AGDB, the file at cfg.DBPath; without a path the
// agent has no database and no archive, and openDB returns nil.
func openDB(cfg *ChildConfig) (*wfdb.DB, error) {
	if cfg.DBPath == "" {
		return nil, nil
	}
	st, err := store.Open(cfg.DBPath)
	if err != nil {
		return nil, fmt.Errorf("mproc: open agent db: %w", err)
	}
	return wfdb.New(st), nil
}

// newAgent builds the agent RunChild serves on net, over db (nil: none) and
// the terminal registry the hub's DONE frames complete.
func newAgent(cfg *ChildConfig, db *wfdb.DB, term *itable.Terminal, lib *model.Library, programs *model.Registry, net *transport.Network, alive func(string) bool) (*distributed.Agent, error) {
	return distributed.NewAgent(distributed.Config{
		Name:       cfg.Name,
		Library:    lib,
		Agents:     cfg.Agents,
		Programs:   programs,
		AGDB:       db,
		DisableOCR: cfg.DisableOCR,
		Terminal:   term,
		Notify:     FrontendNode,
		Alive:      alive,
	}, net)
}

// reportExec wraps every program to report its execution window to the hub
// as EXEC frames, feeding the cross-process coordination checker. The frame
// precedes the program's outcome messages on the same connection, so the
// hub observes enter/exit in a causally consistent order with the
// coordination traffic they race against. Exec's error is not the program's:
// a failed write has closed the connection and Serve is returning it, while
// failing the step here would record a logical failure that never happened.
func reportExec(conn *transport.ChildConn, reg *model.Registry) *model.Registry {
	out := model.NewRegistry()
	for _, name := range reg.Names() {
		inner, _ := reg.Lookup(name)
		out.Register(name, func(ctx *model.ProgramContext) (map[string]expr.Value, error) {
			executing := ctx.Mode == model.ModeExecute || ctx.Mode == model.ModeIncremental
			if executing {
				_ = conn.Exec(transport.ExecEvent{Phase: transport.ExecEnter,
					Workflow: ctx.Workflow, Step: string(ctx.Step), Instance: ctx.Instance})
			}
			outs, err := inner(ctx)
			if executing {
				phase := transport.ExecExitOK
				if err != nil {
					phase = transport.ExecExitFail
				}
				_ = conn.Exec(transport.ExecEvent{Phase: phase,
					Workflow: ctx.Workflow, Step: string(ctx.Step), Instance: ctx.Instance})
			}
			return outs, err
		})
	}
	return out
}
