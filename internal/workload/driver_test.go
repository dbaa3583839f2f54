package workload

import (
	"sync"
	"testing"
	"time"

	"crew/internal/expr"
	"crew/internal/wfdb"
)

// startOnly is a Target without StartSeq: it numbers each workflow's
// instances 1, 2, ... in start order and keeps the inputs each one got.
type startOnly struct {
	mu     sync.Mutex
	inputs map[string][]map[string]expr.Value
}

func (s *startOnly) Start(wf string, in map[string]expr.Value) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inputs[wf] = append(s.inputs[wf], in)
	return len(s.inputs[wf]), nil
}

func (s *startOnly) Wait(string, int, time.Duration) (wfdb.Status, error) {
	return wfdb.Committed, nil
}

func (s *startOnly) Abort(string, int) error { return nil }

func (s *startOnly) ChangeInputs(string, int, map[string]expr.Value) error { return nil }

// TestDriveRangeStartOnlyInputsFollowIDs: over a target without StartSeq, a
// second DriveRange round gives each instance the inputs of its own id, as
// the StartSeq path does, not round one's again.
func TestDriveRangeStartOnlyInputsFollowIDs(t *testing.T) {
	w, err := Generate(smallParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	target := &startOnly{inputs: map[string][]map[string]expr.Value{}}
	const n = 3
	for round := 0; round < 2; round++ {
		if _, err := DriveRange(target, w, round*n+1, n, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, wf := range w.Library.Names() {
		got := target.inputs[wf]
		if len(got) != 2*n {
			t.Fatalf("%s: %d instances started, want %d", wf, len(got), 2*n)
		}
		for k := 1; k <= len(got); k++ {
			if i1 := got[k-1]["I1"]; !i1.Equal(expr.Num(float64(k - 1))) {
				t.Errorf("%s instance %d got I1 = %v, want %d", wf, k, i1, k-1)
			}
		}
	}
}
