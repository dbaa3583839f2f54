package coord

import (
	"fmt"
	"sort"
	"strings"

	"crew/internal/model"
)

// Admission is the gate's verdict on a step whose execution rule fired.
type Admission uint8

const (
	// Open: the home has answered and every wait event is valid; execute.
	Open Admission = iota
	// AskHome: the home's answer is not known and no request is outstanding;
	// the caller sends a Check and holds the step back.
	AskHome
	// Blocked: hold the step back; a Resolve or an injected event retries it.
	Blocked
)

// gateStep is what a Gate knows about one coordinated step.
type gateStep struct {
	asked   bool // a Check is outstanding at the home
	known   bool // the home has answered: waits is its answer
	blocked bool // the rule fired and the step was held back
	// stale counts the answers still in flight to Checks a Reset withdrew;
	// they arrive first, in order, and are dropped.
	stale int
	waits []string
}

// Gate is the waiter's side of coordinated execution for one instance: which
// steps have asked the home, what it answered and which are held back. The
// zero value is ready; an instance that never reaches a coordinated step
// allocates nothing. Rules are never strengthened by coordination: a held
// step is retried directly (Blocked) when an event arrives, so a later
// invalidation cannot wedge the instance.
type Gate struct {
	steps map[model.StepID]gateStep
}

func (g *Gate) set(step model.StepID, s gateStep) {
	if g.steps == nil {
		g.steps = make(map[model.StepID]gateStep)
	}
	g.steps[step] = s
}

// Admit decides whether a coordinated step may execute now; has reports
// whether an event is valid in the instance's event table.
func (g *Gate) Admit(step model.StepID, has interface{ Has(event string) bool }) Admission {
	s := g.steps[step]
	verdict := Open
	switch {
	case s.known:
		for _, ev := range s.waits {
			if !has.Has(ev) {
				verdict = Blocked
				break
			}
		}
	case s.asked:
		verdict = Blocked
	default:
		s.asked, verdict = true, AskHome
	}
	s.blocked = verdict != Open
	g.set(step, s)
	return verdict
}

// Resolved records the home's answer to a Check and reports whether it was
// taken: an answer to a Check that a Reset withdrew is dropped. The home
// sends a grant only after its answer, so every mutex grant the instance
// holds for the step when a taken answer arrives is stale.
func (g *Gate) Resolved(step model.StepID, waits []string) bool {
	s := g.steps[step]
	if s.stale > 0 {
		s.stale--
		g.steps[step] = s
		return false
	}
	s.asked, s.known, s.waits = false, true, waits
	g.set(step, s)
	return true
}

// Release drops the home's answer once the step has completed or its attempt
// has failed: a revisit must re-acquire.
func (g *Gate) Release(step model.StepID) {
	if s, ok := g.steps[step]; ok {
		s.known, s.waits = false, nil
		g.steps[step] = s
	}
}

// Reset forgets steps a rollback or loop iteration reset, so their rules ask
// again, and returns those the home must hear Failed for: the ones that had
// asked or been answered. An outstanding Check's answer is dropped on arrival.
func (g *Gate) Reset(steps []model.StepID) (withdrawn []model.StepID) {
	for _, step := range steps {
		switch s := g.steps[step]; {
		case s.asked:
			g.steps[step] = gateStep{stale: s.stale + 1}
		case s.known:
			delete(g.steps, step)
		default:
			continue
		}
		withdrawn = append(withdrawn, step)
	}
	return withdrawn
}

// Clear forgets every step, keeping the storage: the gate of an instance
// made afresh out of one that finished.
func (g *Gate) Clear() { clear(g.steps) }

// Blocked lists the held-back steps in step-ID order, so that retrying them
// emits the same sequence on every run.
func (g *Gate) Blocked() []model.StepID {
	var out []model.StepID
	for step, s := range g.steps {
		if s.blocked {
			out = append(out, step)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the steps that are waiting, in step-ID order.
func (g *Gate) String() string {
	var steps []model.StepID
	for step, s := range g.steps {
		if s.asked || s.blocked {
			steps = append(steps, step)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	var b strings.Builder
	for _, step := range steps {
		s := g.steps[step]
		fmt.Fprintf(&b, "gate %s asked=%v blocked=%v stale=%d waits=%v\n", step, s.asked, s.blocked, s.stale, s.waits)
	}
	return strings.TrimSuffix(b.String(), "\n")
}
