package distributed

import (
	"crew/internal/model"
	"crew/internal/nav"
)

// electForTest mirrors the agents' deterministic successor election.
func electForTest(elig []string, wf string, id int, step model.StepID, alive func(string) bool) string {
	return nav.ElectAgent(elig, wf, id, step, alive)
}

// HasReplica reports whether the agent currently holds state for an
// instance.
func (a *Agent) HasReplica(workflow string, id int) bool {
	var ok bool
	a.Do(func() { _, ok = a.replicas[replicaKey(workflow, id)] })
	return ok
}

// ReplicaCount returns the number of live (non-retired) replicas held.
func (a *Agent) ReplicaCount() int {
	var n int
	a.Do(func() { n = len(a.replicas) })
	return n
}

// SweepWakeups returns how often the maintenance timer has fired. An agent
// whose replicas have all retired must stop accruing wakeups.
func (a *Agent) SweepWakeups() int64 { return a.sweepWakeups.Load() }
