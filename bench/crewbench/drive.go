package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

// span is the traced record of one instance: the driver's own API calls, as
// nanoseconds since the run's epoch. The three intervals share the instance.
type span struct {
	Seq      int    `json:"seq"` // input number within the deployment
	Workflow string `json:"wf"`
	ID       int    `json:"id"`
	Client   int    `json:"client"`
	Begin    int64  `json:"begin_ns"`   // Start called
	Started  int64  `json:"started_ns"` // Start (and the planned user action) returned
	Waited   int64  `json:"waited_ns"`  // Wait returned
	Done     int64  `json:"done_ns"`    // result in hand
	Status   string `json:"status"`
	Action   string `json:"action,omitempty"` // planned abort / input change
	OK       bool   `json:"ok"`
}

// segment is one fixed-size slice of a measured phase.
type segment struct {
	n         int // timed instances
	lead      int // untimed instances run first to re-warm the system
	nudges    int // untimed instances started to release a stalled one (see wait)
	wall      time.Duration
	cpu       time.Duration // this process plus live agent processes
	selfCPU   time.Duration // this process alone
	latMs     []float64     // sorted; successful instances only
	committed int
	aborted   int
	failed    int
	spans     []span // traced segments only
	err       error  // the segment's CPU time could not be read
	ref       int    // the reference-kernel slice that followed the segment
}

func (s *segment) instPerSec() float64    { return float64(s.n) / s.wall.Seconds() }
func (s *segment) cpuMsPerInst() float64  { return s.cpu.Seconds() * 1e3 / float64(s.n) }
func (s *segment) latP(p float64) float64 { return percentile(s.latMs, p) }

// minPercentileSamples is the fewest latencies a reported p90 is taken from:
// ten samples beyond the percentile.
const minPercentileSamples = 100

// latencyP reduces a phase's latencies to one percentile. Consecutive
// segments are pooled until a pool holds minPercentileSamples latencies, the
// percentile is taken per pool, and the median over pools is the result.
// Each latency is taken at the machine speed slow gives for its segment's
// reference-kernel slice (see timings).
func latencyP(segs []segment, p float64, slow func(ref int) float64) float64 {
	var perPool, pool []float64
	for i := range segs {
		s := slow(segs[i].ref)
		for _, l := range segs[i].latMs {
			pool = append(pool, l/s)
		}
		if len(pool) >= minPercentileSamples || (i == len(segs)-1 && perPool == nil) {
			sort.Float64s(pool)
			perPool = append(perPool, percentile(pool, p))
			pool = pool[:0]
		}
	}
	return median(perPool)
}

// epoch anchors span timestamps.
var epoch = time.Now()

// inputFor derives the seq-th instance's workflow input from the run seed
// (splitmix64). Values stay far below the programs' 1e6 wrap-around so the
// expected output of a failure-free chain is inputs + chain length.
func inputFor(seed int64, seq int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(seq+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x % 900000)
}

// failureLog prints the first few failures in full and counts the rest, so a
// broken tree does not bury its first error under thousands of copies.
type failureLog struct {
	mu sync.Mutex
	n  int
}

func (l *failureLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if l.n <= 5 {
		fmt.Fprintf(os.Stderr, "crewbench: FAILED "+format+"\n", args...)
	}
}

var failures failureLog

// drive runs n instances through the deployment from `clients` closed-loop
// client goroutines: each starts an instance, applies its planned user
// action, waits for the terminal status, fetches the result and checks it,
// and only then starts its next one.
//
// The segment opens with one instance per client that is checked but not
// timed: after the pause between segments the first instance runs on cold
// caches and sleeping threads (0.62 ms against a median of 0.39 ms on
// central-normal), which a segment of 18 instances would read as its p90.
func (d *deployment) drive(clients, n int, traced bool) segment {
	seg := segment{n: n, lead: clients}
	nudges0, nudgeFailed0 := d.nudges.Load(), d.nudgeFailed.Load()
	lead, _ := d.burst(clients, clients, nil)
	for _, l := range lead {
		if l < 0 {
			seg.failed++
		}
	}
	if traced {
		seg.spans = make([]span, n)
	}
	cpuSelf0 := selfCPU()
	cpuKids0, err0 := d.kids.read()
	t0 := time.Now()
	lat, status := d.burst(clients, n, seg.spans)
	seg.wall = time.Since(t0)
	seg.nudges = int(d.nudges.Load() - nudges0)
	seg.failed += int(d.nudgeFailed.Load() - nudgeFailed0)
	seg.selfCPU = selfCPU() - cpuSelf0
	cpuKids1, err1 := d.kids.read()
	seg.cpu = seg.selfCPU + cpuKids1 - cpuKids0
	if seg.err = err0; seg.err == nil {
		seg.err = err1
	}

	seg.latMs = make([]float64, 0, n)
	for k, l := range lat {
		switch {
		case l < 0:
			seg.failed++
		case status[k] == wfdb.Committed:
			seg.committed++
			seg.latMs = append(seg.latMs, l)
		default:
			seg.aborted++
			seg.latMs = append(seg.latMs, l)
		}
	}
	sort.Float64s(seg.latMs)
	return seg
}

// burst is the closed loop itself. It returns every instance's latency in ms
// (negative for a failed one) and terminal status, and fills spans when given.
func (d *deployment) burst(clients, n int, spans []span) ([]float64, []wfdb.Status) {
	lat := make([]float64, n)
	status := make([]wfdb.Status, n)
	names := d.w.Library.Names()
	base := d.seq
	d.seq += n
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				var sp *span
				if spans != nil {
					sp = &spans[k]
					sp.Client = client
				}
				lat[k], status[k] = d.one(names[(base+k)%len(names)], base+k, false, sp)
			}
		}(c)
	}
	wg.Wait()
	return lat, status
}

// one runs a single instance and returns its latency in ms (negative when it
// failed) and terminal status. A nudge (see wait) has no user action planned
// for it and does not start nudges of its own.
func (d *deployment) one(wf string, seq int, nudge bool, sp *span) (float64, wfdb.Status) {
	in := inputFor(d.w.Seed, seq)
	begin := time.Now()
	id, err := d.sys.Start(wf, map[string]expr.Value{"I1": expr.Num(in)})
	if err != nil {
		failures.add("start %s (input %d): %v", wf, seq, err)
		return -1, 0
	}
	// Abort and ChangeInputs race with the instance's own progress; like
	// workload.Drive, an error from either (already terminated) is a
	// legitimate outcome.
	var plan workload.Plan
	if !nudge {
		plan = d.w.PlanFor(wf, id)
	}
	switch {
	case plan.Abort:
		_ = d.sys.Abort(wf, id)
	case plan.ChangeInputs:
		_ = d.sys.ChangeInputs(wf, id, d.w.ChangedInputs(id))
	}
	started := time.Now()
	var st wfdb.Status
	if nudge {
		st, err = d.sys.Wait(wf, id, opTimeout)
	} else {
		st, err = d.wait(wf, id)
	}
	waited := time.Now()
	if err != nil {
		failures.add("wait %s.%d: %v", wf, id, err)
		return -1, 0
	}
	var snap *wfdb.Instance
	fetched := true
	if s, ok := d.sys.(snapshotter); ok {
		snap, fetched = s.Snapshot(wf, id)
	} else {
		var got wfdb.Status
		got, fetched = d.sys.Status(wf, id)
		fetched = fetched && got == st
	}
	done := time.Now()

	ok := fetched
	if !fetched {
		failures.add("%s.%d: no result after Wait returned %v", wf, id, st)
	} else if err := d.verify(wf, id, plan, in, st, snap); err != nil {
		failures.add("%s.%d: %v", wf, id, err)
		ok = false
	}
	if sp != nil {
		*sp = span{
			Seq: seq, Workflow: wf, ID: id, Client: sp.Client,
			Begin: int64(begin.Sub(epoch)), Started: int64(started.Sub(epoch)),
			Waited: int64(waited.Sub(epoch)), Done: int64(done.Sub(epoch)),
			Status: st.String(), OK: ok,
		}
		switch {
		case plan.Abort:
			sp.Action = "abort"
		case plan.ChangeInputs:
			sp.Action = "change-inputs"
		}
	}
	if !ok {
		return -1, st
	}
	return float64(done.Sub(begin)) / 1e6, st
}

// nudgeAfter is how long an instance may keep a client waiting before the
// client starts further instances to release it: fifty times the slowest
// workload's loaded p99.
const nudgeAfter = time.Second

// wait is Wait with a way out of a stall the mixed workload can run into. An
// instance held back by a coordination spec is released by the traffic of
// later instances, not by the event it waits for; when the stream pauses with
// such an instance in flight (the end of a burst, a cold start, a single
// client) it waits for good. Five of some 170 dist-mixed runs had one; in the
// instrumented ones the instance was still running after five seconds and
// committed as soon as one more instance of each workflow was started
// (bench/README.md, Findings). So a client that has waited nudgeAfter does
// what a deployment's other users would have done meanwhile: it starts one
// instance of each workflow, untimed and without user actions, checks them,
// and goes back to waiting. The stalled instance keeps its full latency.
func (d *deployment) wait(wf string, id int) (wfdb.Status, error) {
	st, err := d.sys.Wait(wf, id, nudgeAfter)
	for waited := nudgeAfter; errors.Is(err, cerrors.ErrTimeout) && waited < opTimeout; waited += nudgeAfter {
		for _, name := range d.w.Library.Names() {
			d.nudges.Add(1)
			if l, _ := d.one(name, 0, true, nil); l < 0 {
				d.nudgeFailed.Add(1)
			}
		}
		st, err = d.sys.Wait(wf, id, nudgeAfter)
	}
	return st, err
}

// verify checks one instance's outcome: a terminal status (Aborted only where
// the plan asked for an abort), an output for each of the f terminal steps of
// a committed instance and, on failure-free workloads, the value a chain of
// s-f steps plus one terminal step computes from the input.
func (d *deployment) verify(wf string, id int, plan workload.Plan, in float64, st wfdb.Status, snap *wfdb.Instance) error {
	switch st {
	case wfdb.Committed:
	case wfdb.Aborted:
		if !plan.Abort {
			return fmt.Errorf("aborted without a planned abort")
		}
		return nil
	default:
		return fmt.Errorf("non-terminal status %v", st)
	}
	if snap == nil {
		return nil // multi-process: the status is the whole result
	}
	if snap.Status != st {
		return fmt.Errorf("snapshot status %v, Wait returned %v", snap.Status, st)
	}
	p := d.w.Params
	for j := 1; j <= p.F; j++ {
		name := "T" + strconv.Itoa(j) + ".O1"
		v, ok := snap.Data[name]
		if !ok {
			return fmt.Errorf("committed without output %s", name)
		}
		if d.sp.Mixed {
			continue // re-executions and input changes move the value
		}
		if got, _ := v.AsNum(); got != in+float64(p.S-p.F)+1 {
			return fmt.Errorf("%s = %v, want %v", name, got, in+float64(p.S-p.F)+1)
		}
	}
	return nil
}
