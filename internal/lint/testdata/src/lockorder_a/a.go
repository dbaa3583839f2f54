// Package lockorder_a seeds lockorder violations: in-package acquisition
// cycles, cycles closed through a callee's lock summary, cycles against an
// ordering established in an imported package, and //crew:lockrank
// violations.
package lockorder_a

import (
	"sync"

	"lockorder_dep"
)

type a struct{ mu sync.Mutex }

type b struct{ mu sync.Mutex }

func ab(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock() // want "lock-order cycle"
	y.mu.Unlock()
	x.mu.Unlock()
}

func ba(x *a, y *b) {
	y.mu.Lock()
	x.mu.Lock() // want "lock-order cycle"
	x.mu.Unlock()
	y.mu.Unlock()
}

// --- cycle closed through a callee's lock summary -------------------------

type c struct{ mu sync.Mutex }

type d struct{ mu sync.Mutex }

// lockD's summary carries "acquires d.mu".
func lockD(y *d) {
	y.mu.Lock()
	y.mu.Unlock()
}

func cd(x *c, y *d) {
	x.mu.Lock()
	lockD(y) // want "lock-order cycle"
	x.mu.Unlock()
}

func dc(x *c, y *d) {
	y.mu.Lock()
	x.mu.Lock() // want "lock-order cycle"
	x.mu.Unlock()
	y.mu.Unlock()
}

// --- cycle against an imported package's ordering -------------------------

func crossPackage(f *lockorder_dep.First, s *lockorder_dep.Second) {
	s.Mu.Lock()
	f.Mu.Lock() // want "lock-order cycle"
	f.Mu.Unlock()
	s.Mu.Unlock()
}

// --- declared rank ordering ------------------------------------------------

type ranked struct {
	low  sync.Mutex //crew:lockrank 10
	high sync.Mutex //crew:lockrank 20
}

func rankViolation(r *ranked) {
	r.high.Lock()
	r.low.Lock() // want "lock rank violation"
	r.low.Unlock()
	r.high.Unlock()
}

func rankAllowed(r *ranked) {
	r.high.Lock()
	//crew:allow locks fixture: init-time only, no concurrent holders
	r.low.Lock()
	r.low.Unlock()
	r.high.Unlock()
}

// rankOrdered acquires a different pair in declared order: no report, and
// no reverse edge anywhere, so no cycle either.
type orderedPair struct {
	first  sync.Mutex //crew:lockrank 1
	second sync.Mutex //crew:lockrank 2
}

func rankOrdered(p *orderedPair) {
	p.first.Lock()
	p.second.Lock() // ok: strictly increasing
	p.second.Unlock()
	p.first.Unlock()
}

// --- read-read nesting is shared, not an ordering --------------------------

type shared struct{ rw sync.RWMutex }

func readers(s *shared) {
	s.rw.RLock()
	s.rw.RLock() // ok: read-read nesting of one class
	s.rw.RUnlock()
	s.rw.RUnlock()
}
