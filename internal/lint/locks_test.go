package lint

import "testing"

func TestLockSend(t *testing.T) {
	runLintTest(t, Locks, "locksend_a")
}

func TestLockSendInterprocedural(t *testing.T) {
	// Blocking derived transitively from summaries rather than a
	// hand-maintained callee table.
	runLintTest(t, Locks, "locksend_b")
}

func TestLockOrder(t *testing.T) {
	runLintTest(t, Locks, "lockorder_a")
}
