// Package rules implements the rule-based run-time system that enacts
// workflows: event-condition-action rules compiled once per schema into an
// immutable Program, and a per-instance Engine that keeps only counters over
// it. The paper's three coordination primitives — AddRule, AddPrecondition
// and AddEvent — are not engine calls here: they travel as internal/coord's
// Check, Resolve and Inject messages, and an instance's rule set is never
// rewritten.
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
// instead of scanning: the program's event→rules index records which rules
// subscribe to each event, and a per-rule satisfied count is maintained
// incrementally from table mutations (the table notifies its observer on
// every post and invalidation). Rules whose events are all valid and whose
// firing memory does not cover the current event counts sit on the armed
// agenda; Evaluate examines only that agenda, re-checking preconditions of
// armed rules until they fire (data-only changes can make a precondition
// true without any event traffic, exactly as under the scan semantics).
// Firing order is deterministic: the agenda is kept in program order, so the
// indexed path fires byte-identically to the scan path (EvaluateScan keeps
// the original implementation as the reference).
package rules

import (
	"fmt"
	"slices"
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

// Rule is an event-condition-action rule. Its action is the execution of
// Step; rules are immutable once compiled into a Program.
type Rule struct {
	// ID is unique within one program.
	ID string
	// Events lists event names that must all be valid for the rule to fire.
	Events []string
	// Precond must evaluate true (against the data table) for the rule to
	// fire; nil means unconditional.
	Precond *expr.Expr
	// Step is the step firing schedules for execution.
	Step model.StepID
}

// Program is a compiled rule set: the rules in firing order, each rule's
// needed-event count, and the event→rules index. It is immutable and shared
// by every engine that loads it; an engine's counters are its only mutable
// rule state.
type Program struct {
	rules   []*Rule
	need    []int32
	byEvent map[string][]int32
}

// Compile builds a program from rules, in the given order. The program owns
// copies: later changes to the caller's rules do not reach it.
func Compile(rs []*Rule) *Program {
	p := &Program{
		rules:   make([]*Rule, len(rs)),
		need:    make([]int32, len(rs)),
		byEvent: make(map[string][]int32),
	}
	for i, r := range rs {
		c := *r
		c.Events = slices.Clone(r.Events)
		p.rules[i] = &c
		p.need[i] = int32(len(c.Events))
		for _, ev := range c.Events {
			p.byEvent[ev] = append(p.byEvent[ev], int32(i))
		}
	}
	return p
}

// Rules returns the program's rules in firing order. The slice and the
// rules are shared: do not modify them.
func (p *Program) Rules() []*Rule { return p.rules }

// noRules is the program of an engine nothing was loaded into.
var noRules Program

// none ends the armed agenda's links.
const none = -1

// ruleState is one rule's counters in one engine.
type ruleState struct {
	// fired is the sum of required-event counts at the last firing; -1 if
	// never fired.
	fired int32
	// Maintained while the engine is bound to an event table: cur is the
	// current sum of required-event counts, satisfied the number of
	// required-event occurrences currently valid.
	cur, satisfied int32
	// queued marks the rule on the armed agenda; next is the following rule
	// there (none at the end).
	next   int32
	queued bool
}

// Engine is the per-instance rule engine: a program and one counter slot per
// rule. Rules that have been considered but are not yet satisfiable simply
// remain unfired — the pending-rule table of the paper is the subset of
// rules with missing events, exposed via WaitingRules.
type Engine struct {
	prog  *Program
	state []ruleState
	tab   *event.Table
	armed int32 // first rule on the agenda, in program order; none if empty
}

// NewEngine returns an engine with no rules.
func NewEngine() *Engine {
	return &Engine{prog: &noRules, armed: none}
}

// Load makes p the engine's rule set, every rule unfired. A bound engine
// recounts against its table.
func (e *Engine) Load(p *Program) {
	e.prog = p
	e.state = make([]ruleState, len(p.rules))
	for i := range e.state {
		e.state[i] = ruleState{fired: -1, next: none}
	}
	e.armed = none
	if e.tab != nil {
		e.recountAll()
	}
}

// Program returns the engine's rule set.
func (e *Engine) Program() *Program { return e.prog }

// Bind attaches the engine to its instance's event table: the engine
// observes table mutations and maintains per-rule satisfied counts
// incrementally, so Evaluate against the bound table dispatches from the
// armed agenda instead of scanning every rule. A table feeds at most one
// engine (per-instance ownership); rebinding detaches the previous table
// and re-arms from the new one.
func (e *Engine) Bind(tab *event.Table) {
	if e.tab != nil && e.tab != tab {
		e.tab.SetObserver(nil)
	}
	e.tab = tab
	tab.SetObserver(e)
	e.recountAll()
}

// Observe implements event.Observer: it folds one mutation of the bound
// table into the subscribed rules' counters and arms any rule that became
// fireable.
func (e *Engine) Observe(name string, posted, wasValid, nowValid bool) {
	for _, i := range e.prog.byEvent[name] {
		s := &e.state[i]
		if posted {
			s.cur++
		}
		if nowValid && !wasValid {
			s.satisfied++
		} else if wasValid && !nowValid {
			s.satisfied--
		}
		e.maybeArm(i)
	}
}

// recountAll empties the agenda and recomputes every rule's counters from
// the bound table, arming the fireable ones. Used on Bind and Load;
// steady-state maintenance is incremental via Observe.
func (e *Engine) recountAll() {
	e.armed = none
	for i, r := range e.prog.rules {
		s := &e.state[i]
		s.cur, s.satisfied, s.queued = 0, 0, false
		for _, ev := range r.Events {
			s.cur += int32(e.tab.Count(ev))
			if e.tab.Has(ev) {
				s.satisfied++
			}
		}
		e.maybeArm(int32(i))
	}
}

// spent reports whether rule i's firing memory covers the current event
// counts: it must not fire again until an event is re-posted (or re-armed).
func (e *Engine) spent(i int32) bool {
	s := &e.state[i]
	if s.fired == -1 {
		return false
	}
	if e.prog.need[i] == 0 {
		return true // eventless rules fire at most once
	}
	return s.fired == s.cur
}

// maybeArm puts a fireable rule on the agenda, in program order. Rules
// leave the agenda only inside Evaluate (when fired or found stale), so a
// rule whose precondition is not yet true stays armed and is re-checked on
// every round — matching the scan semantics for data-only changes.
func (e *Engine) maybeArm(i int32) {
	s := &e.state[i]
	if e.tab == nil || s.queued || s.satisfied != e.prog.need[i] || e.spent(i) {
		return
	}
	s.queued = true
	link := &e.armed
	for *link != none && *link < i {
		link = &e.state[*link].next
	}
	s.next = *link
	*link = i
}

// RearmExecRules re-arms every execution rule of the given step; the
// navigation layer re-arms the rules of steps whose events it invalidates
// (loop bodies, rollback regions). It returns how many rules it re-armed.
func (e *Engine) RearmExecRules(step model.StepID) int {
	return e.RearmWhere(func(s model.StepID) bool { return s == step })
}

// RearmWhere re-arms, in one pass, every rule whose step satisfies pred,
// and returns how many it re-armed.
func (e *Engine) RearmWhere(pred func(step model.StepID) bool) int {
	n := 0
	for i, r := range e.prog.rules {
		if pred(r.Step) {
			e.state[i].fired = -1
			e.maybeArm(int32(i))
			n++
		}
	}
	return n
}

// Evaluate considers the rule set against the event table and data
// environment and returns the rules that fire, in program order. Each
// returned rule has already been marked fired. The slice may share the
// program's backing array: read it, never write to it.
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
// makes fireable: the reactive post-and-evaluate composition. Only rules
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

// fireArmed drains the agenda in program order. Rules whose precondition is
// false (or errors) stay armed for the next round; fired and stale entries
// leave the agenda. Rules that fire as one run of consecutive program rules
// (nearly always: one rule) are returned as a window of the program, so the
// round allocates nothing; only a broken run is copied out.
//
//crew:hotpath
func (e *Engine) fireArmed(env expr.Env) ([]*Rule, error) {
	var fired []*Rule
	lo, hi := int32(0), int32(0) // the run: e.prog.rules[lo:hi], while fired is nil
	var firstErr error
	link := &e.armed
	for *link != none {
		i := *link
		s := &e.state[i]
		if s.satisfied != e.prog.need[i] || e.spent(i) {
			s.queued = false // stale: drop
			*link = s.next
			continue
		}
		r := e.prog.rules[i]
		if r.Precond != nil {
			//crew:allow hotalloc preconditions are rare on the armed agenda; evaluation cost is theirs
			ok, err := r.Precond.EvalBool(env)
			if err != nil && firstErr == nil {
				//crew:allow hotalloc error path, at most once per round
				firstErr = fmt.Errorf("rules: rule %s precondition: %w", r.ID, err)
			}
			if err != nil || !ok {
				link = &s.next // stays armed
				continue
			}
		}
		if e.prog.need[i] == 0 {
			s.fired = 0
		} else {
			s.fired = s.cur
		}
		s.queued = false
		*link = s.next
		switch {
		case fired != nil:
			fired = append(fired, r)
		case lo == hi:
			lo, hi = i, i+1
		case i == hi:
			hi++
		default:
			//crew:allow hotalloc rules of two separate runs fire in one round, a join of branches at most
			fired = append(append(make([]*Rule, 0, hi-lo+1), e.prog.rules[lo:hi]...), r)
		}
	}
	if fired == nil && lo != hi {
		fired = e.prog.rules[lo:hi:hi]
	}
	return fired, firstErr
}

func mark(tab *event.Table, events []string) int32 {
	m := int32(0)
	for _, ev := range events {
		m += int32(tab.Count(ev))
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

// EvaluateScan is the reference evaluation path: it scans every rule against
// the table. Kept for unbound engines, foreign tables, and as the semantic
// oracle the indexed path is tested against.
func (e *Engine) EvaluateScan(tab *event.Table, env expr.Env) ([]*Rule, error) {
	var fired []*Rule
	var firstErr error
	for i, r := range e.prog.rules {
		s := &e.state[i]
		if !satisfied(tab, r) {
			continue
		}
		m := mark(tab, r.Events)
		if s.fired == m && s.fired != -1 {
			continue // already fired for this satisfaction epoch
		}
		if len(r.Events) == 0 && s.fired != -1 {
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
		s.fired = m
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
// the missing names (sorted), in program order.
func (e *Engine) WaitingRules(tab *event.Table) []Waiting {
	var out []Waiting
	for _, r := range e.prog.rules {
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
