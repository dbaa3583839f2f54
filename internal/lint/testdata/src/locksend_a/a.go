// Package locksend_a seeds locksend violations: channel ops and blocking
// calls inside mutex-held regions.
package locksend_a

import (
	"sync"
	"time"

	"crew/internal/transport"
)

type queue struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
}

func (q *queue) sendHeld() {
	q.mu.Lock()
	q.ch <- 1 // want "channel send while q.mu is locked"
	q.mu.Unlock()
}

func (q *queue) sendAfterUnlock() {
	q.mu.Lock()
	v := 1
	q.mu.Unlock()
	q.ch <- v // ok: lock released
}

func (q *queue) recvDeferred() {
	q.mu.Lock()
	defer q.mu.Unlock()
	<-q.ch // want "channel receive while q.mu is locked"
}

func (q *queue) readLocked() {
	q.rw.RLock()
	defer q.rw.RUnlock()
	for range q.ch { // want "range over channel while q.rw is locked"
	}
}

func (q *queue) nonBlockingSelect() {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case q.ch <- 1: // ok: select has a default, never parks
	default:
	}
}

func (q *queue) blockingSelect() {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want "select without default while q.mu is locked"
	case q.ch <- 1:
	case <-q.ch:
	}
}

func (q *queue) blockingCalls(wg *sync.WaitGroup, net *transport.Network) {
	q.mu.Lock()
	wg.Wait()                   // want "WaitGroup.Wait while q.mu is locked"
	net.Quiesce()               // want "Network.Quiesce while q.mu is locked"
	time.Sleep(time.Nanosecond) // want "Sleep while q.mu is locked"
	q.mu.Unlock()
	net.AwaitStall() // ok: lock released
}

func (q *queue) wireCalls(c *transport.ChildConn, hub *transport.RemoteHub, l transport.Link) {
	q.mu.Lock()
	c.Serve(nil)                   // want "ChildConn.Serve while q.mu is locked"
	hub.WaitConnected()            // want "RemoteHub.WaitConnected while q.mu is locked"
	l.Deliver(transport.Message{}) // want "Link.Deliver while q.mu is locked"
	q.mu.Unlock()
	l.Deliver(transport.Message{}) // ok: lock released
}

func (q *queue) goroutineBody() {
	q.mu.Lock()
	defer q.mu.Unlock()
	go func() {
		q.ch <- 1 // ok: separate goroutine, lock not held there
	}()
}

func (q *queue) allowed() {
	q.mu.Lock()
	defer q.mu.Unlock()
	//crew:allow locks diagnostics channel is buffered and never full
	q.ch <- 1
}
