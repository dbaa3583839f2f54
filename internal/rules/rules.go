// Package rules implements the rule-based run-time system that enacts
// workflows: event-condition-action rules, the general-rule and pending-rule
// tables, and the three implementation-level primitives the paper builds all
// coordinated-execution support on — AddRule(), AddEvent() and
// AddPrecondition() — which dynamically modify the rule sets of workflow
// instances.
//
// A rule fires when every event it requires is valid in the instance's event
// table and its precondition evaluates to true against the instance's data
// table. Fired rules are remembered by the multiset of required-event counts
// at fire time, so a rule fires again only after one of its events has been
// re-posted (which is what happens when a rollback invalidates events and
// re-execution posts them anew).
//
// # Reactive evaluation
//
// An engine Bound to its instance's event table dispatches reactively
// instead of scanning: an event→rules inverted index records which rules
// subscribe to each event, and a per-rule satisfied count is maintained
// incrementally from table mutations (the table notifies its observer on
// every post and invalidation). Rules whose events are all valid and whose
// firing memory does not cover the current event counts sit on the armed
// agenda; Evaluate examines only that agenda, re-checking preconditions of
// armed rules until they fire (data-only changes can make a precondition
// true without any event traffic, exactly as under the scan semantics).
// Firing order is deterministic: the agenda is drained in rule insertion
// order, byte-identical to the scan path (EvaluateScan keeps the original
// implementation as the reference).
package rules

import (
	"fmt"
	"sort"
	"sync/atomic"

	"crew/internal/event"
	"crew/internal/expr"
	"crew/internal/model"
)

// scanOnly forces every Evaluate through the reference scan path. Nothing
// outside this package's tests can set it (see export_test.go): the
// equivalence test flips it to prove the indexed path fires identically.
var scanOnly atomic.Bool

// ActionKind classifies what a fired rule triggers.
type ActionKind int

const (
	// ActExecute schedules a step for execution.
	ActExecute ActionKind = iota
	// ActCompensate schedules a step's compensation.
	ActCompensate
	// ActAbort aborts the workflow instance.
	ActAbort
	// ActNotify runs a custom callback; coordination rules injected via
	// AddRule use it to notify agents of other workflow instances.
	ActNotify
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActExecute:
		return "execute"
	case ActCompensate:
		return "compensate"
	case ActAbort:
		return "abort"
	case ActNotify:
		return "notify"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is the A of an ECA rule.
type Action struct {
	Kind ActionKind
	Step model.StepID
	// Fn runs for ActNotify actions. Coordination rules are regenerated on
	// recovery, so holding a closure here is safe.
	Fn func()
}

// Rule is an event-condition-action rule instance.
type Rule struct {
	// ID is unique within one instance's rule set.
	ID string
	// Events lists event names that must all be valid for the rule to fire.
	Events []string
	// Precond must evaluate true (against the data table) for the rule to
	// fire; nil means unconditional.
	Precond *expr.Expr
	// Action is what firing triggers.
	Action Action

	// firedMark is the sum of required-event counts at the last firing;
	// -1 if never fired.
	firedMark int

	// Engine-maintained incremental state (meaningful only while the owning
	// engine is bound to an event table):
	idx       int  // position in the engine's rule slice (insertion order)
	curMark   int  // current sum of required-event counts
	satisfied int  // required-event occurrences currently valid
	queued    bool // on the armed agenda
}

// cloneShared returns a shallow copy with firing state reset. The Events
// slice is shared copy-on-write: AddPrecondition reallocates before
// extending it. Only safe for immutable template rules (InstallRule).
func (r *Rule) cloneShared() *Rule {
	c := &Rule{ID: r.ID, Events: r.Events, Precond: r.Precond, Action: r.Action}
	c.firedMark = -1
	return c
}

// clone additionally copies the Events slice, insulating the engine from
// callers that reuse or mutate the rule they passed to AddRule.
func (r *Rule) clone() *Rule {
	c := r.cloneShared()
	c.Events = append([]string(nil), r.Events...)
	return c
}

// Engine is the per-instance rule engine holding the general-rule table.
// Rules that have been considered but are not yet satisfiable simply remain
// unfired — the pending-rule table of the paper is the subset of rules with
// missing events, exposed via Waiting.
type Engine struct {
	rules []*Rule
	byID  map[string]*Rule

	// Reactive state (see Bind).
	tab     *event.Table
	byEvent map[string][]*Rule
	armed   []*Rule
}

// NewEngine returns an empty rule engine.
func NewEngine() *Engine {
	return &Engine{byID: make(map[string]*Rule)}
}

// Bind attaches the engine to its instance's event table: the engine
// subscribes to table mutations and maintains per-rule satisfied counts
// incrementally, so Evaluate against the bound table dispatches from the
// armed agenda instead of scanning every rule. A table feeds at most one
// engine (per-instance ownership); rebinding replaces the subscription.
func (e *Engine) Bind(tab *event.Table) {
	e.tab = tab
	e.armed = e.armed[:0]
	tab.SetObserver(e.onEvent)
	for _, r := range e.rules {
		e.recount(r)
	}
}

// Bound returns the event table the engine is bound to, or nil.
func (e *Engine) Bound() *event.Table { return e.tab }

// onEvent is the table observer: it folds one mutation into the subscribed
// rules' counters and arms any rule that became fireable.
func (e *Engine) onEvent(name string, posted, wasValid, nowValid bool) {
	for _, r := range e.byEvent[name] {
		if posted {
			r.curMark++
		}
		if nowValid && !wasValid {
			r.satisfied++
		} else if wasValid && !nowValid {
			r.satisfied--
		}
		e.maybeArm(r)
	}
}

// recount recomputes a rule's counters from the bound table and arms it if
// fireable. Used on Bind and rule installation; steady-state maintenance is
// incremental via onEvent.
func (e *Engine) recount(r *Rule) {
	if e.tab == nil {
		return
	}
	r.curMark, r.satisfied = 0, 0
	for _, ev := range r.Events {
		r.curMark += e.tab.Count(ev)
		if e.tab.Has(ev) {
			r.satisfied++
		}
	}
	e.maybeArm(r)
}

// spent reports whether the rule's firing memory covers the current event
// counts: it must not fire again until an event is re-posted (or Rearm).
func (r *Rule) spent() bool {
	if r.firedMark == -1 {
		return false
	}
	if len(r.Events) == 0 {
		return true // eventless rules fire at most once
	}
	return r.firedMark == r.curMark
}

// maybeArm puts a fireable rule on the agenda. Rules leave the agenda only
// inside Evaluate (when fired or found stale), so a rule whose precondition
// is not yet true stays armed and is re-checked on every round — matching
// the scan semantics for data-only changes.
func (e *Engine) maybeArm(r *Rule) {
	if e.tab == nil || r.queued {
		return
	}
	if r.satisfied != len(r.Events) || r.spent() {
		return
	}
	r.queued = true
	e.armed = append(e.armed, r)
}

// subscribe registers the rule in the inverted index, one entry per
// required-event occurrence.
func (e *Engine) subscribe(r *Rule, events []string) {
	if len(events) == 0 {
		return
	}
	if e.byEvent == nil {
		e.byEvent = make(map[string][]*Rule)
	}
	for _, ev := range events {
		e.byEvent[ev] = append(e.byEvent[ev], r)
	}
}

// unsubscribe removes every index entry of the rule.
func (e *Engine) unsubscribe(r *Rule) {
	for _, ev := range r.Events {
		subs := e.byEvent[ev]
		kept := subs[:0]
		for _, s := range subs {
			if s != r {
				kept = append(kept, s)
			}
		}
		e.byEvent[ev] = kept
	}
}

// AddRule is the AddRule() primitive: it installs a rule into the instance's
// rule set. Adding an ID that already exists replaces the old rule in place
// (the rule set is "dynamically modified"); replacement keeps the old rule's
// firing position. The rule is copied: later caller mutations do not affect
// the engine.
func (e *Engine) AddRule(r *Rule) {
	e.install(r.clone())
}

// InstallRule installs a shared template rule without copying its Events
// slice. The caller must guarantee the template is immutable (the generated
// schema rules are); per-instance strengthening via AddPrecondition copies
// before extending, so clones never write through the shared slice.
func (e *Engine) InstallRule(r *Rule) {
	e.install(r.cloneShared())
}

func (e *Engine) install(nr *Rule) {
	if old, ok := e.byID[nr.ID]; ok {
		nr.idx = old.idx
		e.rules[nr.idx] = nr
		e.unsubscribe(old)
		old.queued = false // identity check drops its stale agenda entry
	} else {
		nr.idx = len(e.rules)
		e.rules = append(e.rules, nr)
	}
	e.byID[nr.ID] = nr
	e.subscribe(nr, nr.Events)
	e.recount(nr)
}

// RemoveRule discards a rule; it reports whether the rule existed.
func (e *Engine) RemoveRule(id string) bool {
	r, ok := e.byID[id]
	if !ok {
		return false
	}
	delete(e.byID, id)
	e.rules = append(e.rules[:r.idx], e.rules[r.idx+1:]...)
	for i := r.idx; i < len(e.rules); i++ {
		e.rules[i].idx = i
	}
	e.unsubscribe(r)
	r.queued = false
	return true
}

// Rule returns the rule with the given ID, or nil.
func (e *Engine) Rule(id string) *Rule { return e.byID[id] }

// Rules returns the rule set in insertion order.
func (e *Engine) Rules() []*Rule { return append([]*Rule(nil), e.rules...) }

// AddPrecondition is the AddPrecondition() primitive: it strengthens an
// existing rule with additional required events and/or an additional
// conjunct. The rule re-arms so the strengthened form is evaluated afresh.
func (e *Engine) AddPrecondition(ruleID string, extraEvents []string, extraCond *expr.Expr) error {
	r, ok := e.byID[ruleID]
	if !ok {
		return fmt.Errorf("rules: AddPrecondition: no rule %q", ruleID)
	}
	var added []string
	for _, ev := range extraEvents {
		found := false
		for _, have := range r.Events {
			if have == ev {
				found = true
				break
			}
		}
		if !found {
			added = append(added, ev)
		}
	}
	if len(added) > 0 {
		// The Events slice may be shared with other clones of the same
		// template: copy before extending.
		r.Events = append(append(make([]string, 0, len(r.Events)+len(added)), r.Events...), added...)
		e.subscribe(r, added)
		if e.tab != nil {
			for _, ev := range added {
				r.curMark += e.tab.Count(ev)
				if e.tab.Has(ev) {
					r.satisfied++
				}
			}
		}
	}
	if extraCond != nil {
		if r.Precond == nil {
			r.Precond = extraCond
		} else {
			combined, err := expr.Compile("(" + r.Precond.Source() + ") && (" + extraCond.Source() + ")")
			if err != nil {
				return fmt.Errorf("rules: AddPrecondition: %w", err)
			}
			r.Precond = combined
		}
	}
	r.firedMark = -1
	e.maybeArm(r)
	return nil
}

// AddEvent is the AddEvent() primitive: it posts an (external) event into the
// instance's event table. It returns whether the table changed. The caller
// follows up with Evaluate to fire newly satisfied rules.
func (e *Engine) AddEvent(tab *event.Table, name string) bool {
	return tab.Post(name)
}

// Rearm clears a rule's firing memory so it may fire again on the current
// event-table state; the navigation layer re-arms rules of steps whose
// events it invalidates (loop bodies, rollback regions).
func (e *Engine) Rearm(id string) {
	if r, ok := e.byID[id]; ok {
		r.firedMark = -1
		e.maybeArm(r)
	}
}

// RearmExecRules re-arms every execution rule of the given step (see
// IsExecRuleFor). Equivalent to RearmWhere with an IsExecRuleFor predicate,
// without the caller paying a closure allocation on the reset hot path.
func (e *Engine) RearmExecRules(step model.StepID) int {
	n := 0
	for _, r := range e.rules {
		if IsExecRuleFor(r.ID, step) {
			r.firedMark = -1
			e.maybeArm(r)
			n++
		}
	}
	return n
}

// RearmWhere re-arms every rule whose ID satisfies pred.
func (e *Engine) RearmWhere(pred func(id string) bool) int {
	n := 0
	for _, r := range e.rules {
		if pred(r.ID) {
			r.firedMark = -1
			e.maybeArm(r)
			n++
		}
	}
	return n
}

func mark(tab *event.Table, events []string) int {
	m := 0
	for _, ev := range events {
		m += tab.Count(ev)
	}
	return m
}

// satisfied reports whether all of the rule's events are valid.
func satisfied(tab *event.Table, r *Rule) bool {
	for _, ev := range r.Events {
		if !tab.Has(ev) {
			return false
		}
	}
	return true
}

// Evaluate considers the rule set against the event table and data
// environment and returns the rules that fire, in insertion order. Each
// returned rule's action has already been marked fired; ActNotify callbacks
// are NOT invoked here — the caller runs them (so it can count load and
// messages first).
//
// Against the bound event table this dispatches from the armed agenda
// (rules whose subscribed events are all valid), touching no other rule;
// any other table falls back to EvaluateScan. Both paths fire the same
// rules in the same order.
//
// The returned error carries the first precondition evaluation failure, but
// evaluation continues past failing rules (a bad condition on one rule must
// not wedge the instance).
func (e *Engine) Evaluate(tab *event.Table, env expr.Env) ([]*Rule, error) {
	if tab != nil && tab == e.tab && !scanOnly.Load() {
		return e.fireArmed(env)
	}
	//crew:allow hotalloc scan fallback serves foreign/unbound tables, never the bound hot path
	return e.EvaluateScan(tab, env)
}

// FireOn posts the named event into the bound table and fires the rules this
// makes fireable: the reactive AddEvent+Evaluate composition. Only rules
// subscribed to the event (plus already-armed rules awaiting data changes)
// are examined.
//
//crew:hotpath
func (e *Engine) FireOn(name string, env expr.Env) ([]*Rule, error) {
	if e.tab == nil {
		//crew:allow hotalloc misconfiguration error, reported once
		return nil, fmt.Errorf("rules: FireOn(%q): engine is not bound to an event table", name)
	}
	e.tab.Post(name)
	return e.Evaluate(e.tab, env)
}

// fireArmed drains the agenda in insertion order. Rules whose precondition
// is false (or errors) stay armed for the next round; fired and stale
// entries leave the agenda.
//
//crew:hotpath
func (e *Engine) fireArmed(env expr.Env) ([]*Rule, error) {
	if len(e.armed) == 0 {
		return nil, nil
	}
	// Insertion sort by rule position: the agenda is nearly always a handful
	// of entries, and sort.Slice would allocate on every round.
	for i := 1; i < len(e.armed); i++ {
		for j := i; j > 0 && e.armed[j].idx < e.armed[j-1].idx; j-- {
			e.armed[j], e.armed[j-1] = e.armed[j-1], e.armed[j]
		}
	}
	var fired []*Rule
	var firstErr error
	kept := e.armed[:0]
	for _, r := range e.armed {
		if e.byID[r.ID] != r || r.satisfied != len(r.Events) || r.spent() {
			r.queued = false // removed, replaced, or stale: drop
			continue
		}
		if r.Precond != nil {
			//crew:allow hotalloc preconditions are rare on the armed agenda; evaluation cost is theirs
			ok, err := r.Precond.EvalBool(env)
			if err != nil {
				if firstErr == nil {
					//crew:allow hotalloc error path, at most once per round
					firstErr = fmt.Errorf("rules: rule %s precondition: %w", r.ID, err)
				}
				kept = append(kept, r)
				continue
			}
			if !ok {
				kept = append(kept, r)
				continue
			}
		}
		if len(r.Events) == 0 {
			r.firedMark = 0
		} else {
			r.firedMark = r.curMark
		}
		r.queued = false
		fired = append(fired, r)
	}
	e.armed = kept
	return fired, firstErr
}

// EvaluateScan is the reference evaluation path: it scans every rule against
// the table. Kept for unbound engines, foreign tables, and as the semantic
// oracle the indexed path is tested against.
func (e *Engine) EvaluateScan(tab *event.Table, env expr.Env) ([]*Rule, error) {
	var fired []*Rule
	var firstErr error
	for _, r := range e.rules {
		if !satisfied(tab, r) {
			continue
		}
		m := mark(tab, r.Events)
		if r.firedMark == m && r.firedMark != -1 {
			continue // already fired for this satisfaction epoch
		}
		if len(r.Events) == 0 && r.firedMark != -1 {
			continue // eventless rules fire at most once
		}
		if r.Precond != nil {
			ok, err := r.Precond.EvalBool(env)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("rules: rule %s precondition: %w", r.ID, err)
				}
				continue
			}
			if !ok {
				continue
			}
		}
		r.firedMark = m
		if len(r.Events) == 0 {
			r.firedMark = 0
		}
		fired = append(fired, r)
	}
	return fired, firstErr
}

// Waiting describes a pending rule: satisfiable in principle but missing
// events. The distributed agent's predecessor-failure detector polls
// StepStatus for rules that wait on exactly one event for too long.
type Waiting struct {
	Rule    *Rule
	Missing []string
}

// WaitingRules returns the rules with at least one missing event, along with
// the missing names (sorted), in insertion order.
func (e *Engine) WaitingRules(tab *event.Table) []Waiting {
	var out []Waiting
	for _, r := range e.rules {
		var missing []string
		for _, ev := range r.Events {
			if !tab.Has(ev) {
				missing = append(missing, ev)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			out = append(out, Waiting{Rule: r, Missing: missing})
		}
	}
	return out
}

// FiredOnce reports whether the rule has fired at least once.
func (r *Rule) FiredOnce() bool { return r.firedMark != -1 }
