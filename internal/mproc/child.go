package mproc

import (
	"context"
	"fmt"

	"crew/internal/distributed"
	"crew/internal/expr"
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
// Everything the agent emits goes back through the hub: the local Network
// registers every peer (and the notify node) as a manual-ack forwarding
// proxy whose consumer hands the message to the connection as a MSG frame
// and only then acks it. That write-before-ack order is the quiescence
// contract: when the local network reports idle after a delivery, every
// follow-up frame is in the connection's turn buffer ahead of the delivery's
// ACK, and the buffer leaves in one write, so the hub's in-flight accounting
// never observes a gap. Local message counts are discarded — the hub charges
// every message once, authoritatively.
func RunChild(cfg *ChildConfig, lib *model.Library, programs *model.Registry) error {
	if cfg == nil {
		return fmt.Errorf("mproc: RunChild needs a config")
	}
	conn, err := transport.DialHub(cfg.Network, cfg.Addr, cfg.Name)
	if err != nil {
		return err
	}
	defer conn.Close()

	var db *wfdb.DB
	if cfg.DBPath != "" {
		st, err := store.Open(cfg.DBPath)
		if err != nil {
			return fmt.Errorf("mproc: open agent db: %w", err)
		}
		defer st.Close()
		db = wfdb.New(st)
	} else {
		db = wfdb.NewMemory()
	}

	net := transport.NewNetwork(transport.NetworkConfig{})
	peers := append([]string(nil), cfg.Agents...)
	if cfg.Notify != "" {
		peers = append(peers, cfg.Notify)
	}
	for _, peer := range peers {
		if peer == cfg.Name {
			continue
		}
		ep, err := net.Register(peer)
		if err != nil {
			net.Close()
			return err
		}
		ep.ManualAck()
		go forward(conn, ep)
	}

	agent, err := distributed.NewAgent(distributed.Config{
		Name:          cfg.Name,
		Library:       lib,
		Agents:        cfg.Agents,
		Programs:      reportExec(conn, programs),
		AGDB:          db,
		DisableOCR:    cfg.DisableOCR,
		PurgeOnCommit: cfg.PurgeOnCommit,
		Alive:         conn.Alive,
	}, net)
	if err != nil {
		net.Close()
		return err
	}

	// Rebuild before serving: recovered replicas re-announce terminal
	// summaries and resume from checkpoints, and only then does the hub's
	// replay of unacked deliveries (already queued on the connection) start
	// flowing — redelivered duplicates meet a fully restored state.
	if err := agent.RecoverReplicas(cfg.Notify); err != nil {
		net.Close()
		agent.Stop()
		return fmt.Errorf("mproc: recover replicas: %w", err)
	}

	serveErr := conn.Serve(func(m transport.Message) error {
		//crew:nocharge hub delivery is already charged; this re-injects it locally
		if err := net.Send(m); err != nil {
			return err
		}
		// Idle means the agent finished the turn and every proxy flushed
		// and acked — the automatic ACK that follows is truthful.
		return net.Quiesce(context.Background())
	}, nil)
	net.Close()
	agent.Stop()
	return serveErr
}

// forward drains one proxy endpoint onto the hub connection. Envelopes are
// flattened on the wire (the hub re-counts each logical message) and
// released here; the ack after SendMessage is what keeps local quiescence
// aligned with the connection's FIFO. SendMessage's error is dropped: a dead
// connection still drains and acks — the child is exiting via Serve's error,
// and a wedged proxy would hang the agent's flush instead.
func forward(conn *transport.ChildConn, ep *transport.Endpoint) {
	for m := range ep.Inbox() {
		//crew:nocharge forwards a message the agent already charged; the hub re-counts it
		conn.SendMessage(m)
		if env, ok := m.Payload.(*transport.Envelope); ok && m.Kind == transport.KindEnvelope {
			env.Release()
		}
		ep.Ack()
	}
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
