package actor

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/model"
	"crew/internal/wfdb"
)

// ctxCalls are the two context-aware calls each architecture implements
// itself: where an instance is placed, and whom to ask about one that
// finished under an earlier incarnation.
type ctxCalls interface {
	StartCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, error)
	WaitCtx(ctx context.Context, workflow string, id int) (wfdb.Status, error)
}

// Client is the caller-facing edge of a deployment, embedded by the three
// System facades: the admission checks of the context-aware calls and the
// duration-based wrappers over them.
type Client struct {
	arch   string
	lib    *model.Library
	sys    ctxCalls
	closed atomic.Bool
}

// NewClient builds the client edge of sys; arch prefixes its errors.
func NewClient(arch string, lib *model.Library, sys ctxCalls) *Client {
	return &Client{arch: arch, lib: lib, sys: sys}
}

// Admit performs the pre-flight checks of a context-aware call: the system is
// open, ctx is live and workflow (when non-empty) is a deployed class.
func (c *Client) Admit(ctx context.Context, workflow string) error {
	if c.closed.Load() {
		return fmt.Errorf("%s: %w", c.arch, cerrors.ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workflow != "" && c.lib.Schema(workflow) == nil {
		return fmt.Errorf("%s: %w: %q", c.arch, cerrors.ErrUnknownWorkflow, workflow)
	}
	return nil
}

// Shut marks the system closed — later admissions fail with
// cerrors.ErrClosed — and reports whether this call was the first.
func (c *Client) Shut() bool { return !c.closed.Swap(true) }

// Start launches an instance and returns its ID.
func (c *Client) Start(workflow string, inputs map[string]expr.Value) (int, error) {
	return c.sys.StartCtx(context.Background(), workflow, inputs)
}

// Run starts an instance and waits for its terminal status under a deadline.
func (c *Client) Run(workflow string, inputs map[string]expr.Value, timeout time.Duration) (int, wfdb.Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.RunCtx(ctx, workflow, inputs)
}

// RunCtx starts an instance and waits for its terminal status under ctx.
func (c *Client) RunCtx(ctx context.Context, workflow string, inputs map[string]expr.Value) (int, wfdb.Status, error) {
	id, err := c.sys.StartCtx(ctx, workflow, inputs)
	if err != nil {
		return 0, 0, err
	}
	st, err := c.sys.WaitCtx(ctx, workflow, id)
	return id, st, err
}

// Wait blocks until the instance reaches a terminal status; the deadline
// surfaces as cerrors.ErrTimeout.
func (c *Client) Wait(workflow string, id int, timeout time.Duration) (wfdb.Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.sys.WaitCtx(ctx, workflow, id)
}
