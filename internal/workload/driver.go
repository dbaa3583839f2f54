package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crew/internal/expr"
	"crew/internal/wfdb"
)

// Target is the architecture-independent face of a running WFMS deployment;
// the central, parallel and distributed System types all satisfy it.
type Target interface {
	Start(workflow string, inputs map[string]expr.Value) (int, error)
	Wait(workflow string, id int, timeout time.Duration) (wfdb.Status, error)
	Abort(workflow string, id int) error
	ChangeInputs(workflow string, id int, inputs map[string]expr.Value) error
}

// SeqStarter is implemented by targets that can launch an instance under an
// externally assigned ID and global sequence number. Placement becomes a pure
// function of (workflow, id, seq), so a concurrent driver reproduces exactly
// the instance IDs and engine assignment a sequential Start loop would have
// produced, regardless of goroutine scheduling.
type SeqStarter interface {
	StartSeq(workflow string, id, seq int, inputs map[string]expr.Value) error
}

// Result summarizes a driver run.
type Result struct {
	Instances  int
	Committed  int
	Aborted    int
	UserAborts int
	InputEdits int
	Elapsed    time.Duration
}

// forEach runs work(i) for every i in [0, n) on a bounded worker pool.
func forEach(n int, work func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}

// Drive runs `instances` instances of every schema in the workload against a
// target, applying the deterministic per-instance plan (aborts and input
// changes per pa/pi). It waits for every instance to terminate.
//
// Targets implementing SeqStarter are driven by a bounded worker pool:
// starts, user actions and waits each fan out concurrently. Instance IDs and
// sequence numbers are precomputed from the sorted schema order, so the
// workload lands on the same nodes as under the sequential legacy path.
func Drive(t Target, w *Workload, instances int, timeout time.Duration) (*Result, error) {
	return DriveRange(t, w, 1, instances, timeout)
}

// DriveRange is Drive over the explicit instance-id window [from, from+
// instances) per schema. Sustained-load harnesses call it once per round with
// increasing bases so successive rounds hit the same deployment with fresh
// ids instead of colliding with (or resurrecting) retired instances.
func DriveRange(t Target, w *Workload, from, instances int, timeout time.Duration) (*Result, error) {
	start := time.Now()
	res := &Result{}
	type ref struct {
		wf   string
		id   int
		plan Plan
	}
	var refs []ref

	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	if ss, ok := t.(SeqStarter); ok {
		for _, wf := range w.Library.Names() {
			for i := 0; i < instances; i++ {
				id := from + i
				refs = append(refs, ref{wf: wf, id: id, plan: w.PlanFor(wf, id)})
			}
		}
		var started atomic.Int64
		forEach(len(refs), func(k int) {
			r := refs[k]
			if err := ss.StartSeq(r.wf, r.id, k, w.Inputs(r.id-1)); err != nil {
				fail(fmt.Errorf("workload: start %s: %w", r.wf, err))
				return
			}
			started.Add(1)
		})
		res.Instances = int(started.Load())
		if firstErr != nil {
			return res, firstErr
		}
	} else {
		for _, wf := range w.Library.Names() {
			for i := 0; i < instances; i++ {
				id, err := t.Start(wf, w.Inputs(from+i-1))
				if err != nil {
					return res, fmt.Errorf("workload: start %s: %w", wf, err)
				}
				res.Instances++
				refs = append(refs, ref{wf: wf, id: id, plan: w.PlanFor(wf, id)})
			}
		}
	}

	// Apply user actions. Aborts may race with commit; both outcomes are
	// legitimate, so errors from Abort/ChangeInputs on finished instances
	// are ignored.
	var userAborts, inputEdits atomic.Int64
	forEach(len(refs), func(k int) {
		r := refs[k]
		switch {
		case r.plan.Abort:
			if err := t.Abort(r.wf, r.id); err == nil {
				userAborts.Add(1)
			}
		case r.plan.ChangeInputs:
			if err := t.ChangeInputs(r.wf, r.id, w.ChangedInputs(r.id)); err == nil {
				inputEdits.Add(1)
			}
		}
	})
	res.UserAborts = int(userAborts.Load())
	res.InputEdits = int(inputEdits.Load())

	var committed, aborted atomic.Int64
	forEach(len(refs), func(k int) {
		r := refs[k]
		st, err := t.Wait(r.wf, r.id, timeout)
		if err != nil {
			fail(fmt.Errorf("workload: wait %s.%d: %w", r.wf, r.id, err))
			return
		}
		switch st {
		case wfdb.Committed:
			committed.Add(1)
		case wfdb.Aborted:
			aborted.Add(1)
		}
	})
	res.Committed = int(committed.Load())
	res.Aborted = int(aborted.Load())
	if firstErr != nil {
		return res, firstErr
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
