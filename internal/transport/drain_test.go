package transport

import (
	"fmt"
	"reflect"
	"testing"
)

// The drain pass has three sinks and one implementation; these tests run one
// table of its rules against each sink. A pass is driven by hand on the test's
// goroutine over a registered node nothing else consumes, so what a pass
// delivered and left behind is exact.

// passRig is a node "rx" with one drainer and one sink over its mailbox.
type passRig struct {
	net *Network
	ep  *Endpoint
	d   *drainer
	// sink records the payload of every message it takes in got, then calls
	// hook (if set) with the number taken so far.
	sink Sink
	got  []int
	hook func(taken int)
}

func (r *passRig) record(m Message) {
	r.got = append(r.got, m.Payload.(int))
	if r.hook != nil {
		r.hook(len(r.got))
	}
}

// passSinks lists the three sinks. retires says whether a pass into the sink
// takes a non-manual-ack message out of the in-flight count: the consumer's
// passes do, the pump's does not (the child's ACK does).
var passSinks = []struct {
	name    string
	retires bool
	wire    func(r *passRig)
}{
	{"inline", true, func(r *passRig) {
		r.d = &r.ep.d
		r.sink = func(m Message) error { r.record(m); return nil }
	}},
	{"inbox", true, func(r *passRig) {
		// The feeder's own sink, with the channel's other end read on the
		// spot: room for one message, so offer never waits.
		r.ep.ch = make(chan Message, 1)
		r.d = &r.ep.d
		r.sink = func(m Message) error {
			if err := r.ep.offer(m); err != nil {
				return err
			}
			r.record(<-r.ep.ch)
			return nil
		}
	}},
	{"link", false, func(r *passRig) {
		// The pump's drainer (see node.pump), fed by hand; the sink stands
		// in for a hub peer's deliver.
		r.d = &drainer{nd: r.ep.nd, mb: &r.ep.nd.in}
		r.sink = func(m Message) error { r.record(m); return nil }
	}},
}

func newPassRig(t *testing.T, wire func(*passRig), policy FaultPolicy) *passRig {
	t.Helper()
	r := &passRig{net: NewNetwork(NetworkConfig{})}
	t.Cleanup(r.net.Close)
	r.net.SetFaultPolicy(policy)
	r.ep = r.net.MustRegister("rx")
	wire(r)
	return r
}

func (r *passRig) send(t *testing.T, from string, payload int) {
	t.Helper()
	if err := r.net.Send(Message{From: from, To: "rx", Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

func (r *passRig) want(t *testing.T, what string, want ...int) {
	t.Helper()
	if !reflect.DeepEqual(r.got, want) {
		t.Fatalf("%s: delivered %v, want %v", what, r.got, want)
	}
}

func (r *passRig) wantCounts(t *testing.T, what string, queued int, parked, inflight int64) {
	t.Helper()
	if q, p, in := r.net.QueuedFor("rx"), r.net.Parked(), r.net.InFlight(); q != queued || p != parked || in != inflight {
		t.Fatalf("%s: queued=%d parked=%d inflight=%d, want %d %d %d", what, q, p, in, queued, parked, inflight)
	}
}

// delayFirstFrom delays the first message of one sender by a number of passes.
type delayFirstFrom struct {
	from   string
	passes int
	done   bool
}

func (p *delayFirstFrom) OnMessage(m Message, _ int64) Verdict {
	if m.From != p.from || p.done {
		return Verdict{}
	}
	p.done = true
	return Verdict{Delay: p.passes}
}

func TestDrainPass(t *testing.T) {
	for _, s := range passSinks {
		// Delivered-but-unretired messages stay in flight behind a pump.
		unretired := func(taken int) int64 {
			if s.retires {
				return 0
			}
			return int64(taken)
		}

		t.Run(s.name+"/crash mid-batch", func(t *testing.T) {
			r := newPassRig(t, s.wire, nil)
			for i := 0; i < 8; i++ {
				r.send(t, "a", i)
			}
			r.hook = func(taken int) {
				if taken == 3 {
					r.net.Crash("rx")
				}
			}
			if !r.d.pass(r.sink) {
				t.Fatal("pass reported a closed network")
			}
			r.want(t, "cut off after the third message", 0, 1, 2)
			r.wantCounts(t, "remainder parked", 5, 5, 5+unretired(3))
			r.send(t, "a", 8) // a later arrival stays behind the remainder
			r.d.pass(r.sink)
			r.want(t, "node down", 0, 1, 2)
			r.wantCounts(t, "arrival at a down node", 6, 6, 6+unretired(3))
			r.net.Recover("rx")
			r.d.pass(r.sink)
			r.want(t, "replayed in order", 0, 1, 2, 3, 4, 5, 6, 7, 8)
			r.wantCounts(t, "drained", 0, 0, unretired(9))
		})

		t.Run(s.name+"/delay holds one sender", func(t *testing.T) {
			r := newPassRig(t, s.wire, &delayFirstFrom{from: "a", passes: 2})
			r.send(t, "a", 10) // delayed two passes
			r.send(t, "a", 11)
			r.send(t, "b", 20)
			r.send(t, "a", 12)
			r.send(t, "b", 21)
			<-r.d.mb.notify
			r.d.pass(r.sink)
			r.want(t, "first pass: b's messages overtake", 20, 21)
			r.wantCounts(t, "a's messages held", 3, 0, 3+unretired(2))
			select {
			case <-r.d.mb.notify:
			default:
				t.Fatal("nothing re-armed the drainer for the held messages")
			}
			r.d.pass(r.sink)
			r.want(t, "second pass: still held", 20, 21)
			r.d.pass(r.sink)
			r.want(t, "third pass: a's messages in order", 20, 21, 10, 11, 12)
			r.wantCounts(t, "drained", 0, 0, unretired(5))
		})

		t.Run(s.name+"/stop mid-batch", func(t *testing.T) {
			r := newPassRig(t, s.wire, nil)
			for i := 0; i < 8; i++ {
				r.send(t, "a", i)
			}
			r.hook = func(taken int) {
				if taken == 3 {
					r.net.Close()
				}
			}
			if r.d.pass(r.sink) {
				t.Error("pass over a closed network reported it open")
			}
			r.want(t, "nothing delivered after Close", 0, 1, 2)
			if r.d.pass(r.sink) {
				t.Error("second pass reported the network open")
			}
			r.want(t, "nothing delivered by a pass after Close", 0, 1, 2)
		})

		t.Run(s.name+"/retired once per message", func(t *testing.T) {
			r := newPassRig(t, s.wire, nil)
			for i := 0; i < 5; i++ {
				r.send(t, "a", i)
			}
			r.d.pass(r.sink)
			r.wantCounts(t, "non-manual-ack", 0, 0, unretired(5))

			r.ep.ManualAck()
			for i := 0; i < 5; i++ {
				r.send(t, "a", i)
			}
			r.d.pass(r.sink)
			r.wantCounts(t, "manual ack: the pass retires nothing", 0, 0, 5+unretired(5))
			for i := 0; i < 5; i++ {
				r.ep.Ack()
			}
			r.wantCounts(t, "acked", 0, 0, unretired(5))
		})

		t.Run(s.name+"/a drained buffer pins no payload", func(t *testing.T) {
			r := newPassRig(t, s.wire, &delayFirstFrom{from: "b", passes: 1})
			// A long burst and then short ones, so both buffers (they swap
			// at every pass) have slots above what the later passes reach.
			for _, burst := range []int{16, 2, 1, 1} {
				for i := 0; i < burst; i++ {
					r.send(t, "a", i)
				}
				r.send(t, "b", burst)
				r.d.pass(r.sink)
			}
			r.d.pass(r.sink)
			r.wantCounts(t, "drained", 0, 0, unretired(24))
			for name, buf := range map[string][]queued{"batch": r.d.batch, "queue": r.d.mb.queue, "held": r.d.held} {
				for i, q := range buf[:cap(buf)] {
					if q.m.Payload != nil {
						t.Errorf("%s[%d] of %d still holds payload %v after the mailbox drained", name, i, cap(buf), q.m.Payload)
					}
				}
			}
		})

		t.Run(s.name+"/warm pass allocates nothing", func(t *testing.T) {
			r := newPassRig(t, s.wire, nil)
			h, err := r.net.Handle("rx")
			if err != nil {
				t.Fatal(err)
			}
			m := Message{From: "a", To: "rx", Payload: 7}
			burst := func() {
				r.got = r.got[:0]
				for i := 0; i < 64; i++ {
					if err := h.Send(m); err != nil {
						t.Fatal(err)
					}
				}
				r.d.pass(r.sink)
			}
			burst() // grows the queue and batch buffers, which the swaps then reuse
			burst()
			if avg := testing.AllocsPerRun(100, burst); avg != 0 {
				t.Errorf("64 sends and a warm pass allocate %.2f, want 0", avg)
			}
			if len(r.got) != 64 {
				t.Errorf("pass delivered %d of 64", len(r.got))
			}
		})
	}
}

// TestSinkFailureIsACutOff: a sink that fails (a hub peer whose child died) leaves
// the message it failed on, and everything behind it, at the queue front for
// replay, and nothing is parked while the node is up.
func TestSinkFailureIsACutOff(t *testing.T) {
	r := newPassRig(t, passSinks[0].wire, nil)
	for i := 0; i < 4; i++ {
		r.send(t, "a", i)
	}
	taken := r.sink
	fail := true
	r.sink = func(m Message) error {
		if fail && m.Payload.(int) == 2 {
			return fmt.Errorf("peer gone")
		}
		return taken(m)
	}
	r.d.pass(r.sink)
	r.want(t, "stopped at the failed message", 0, 1)
	r.wantCounts(t, "requeued, not parked", 2, 0, 2)
	fail = false
	r.d.pass(r.sink)
	r.want(t, "replayed", 0, 1, 2, 3)
}
