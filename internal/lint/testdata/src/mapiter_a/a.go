// Package mapiter_a seeds mapiter violations: map iterations whose bodies
// reach emission, WAL, or print sinks.
package mapiter_a

import (
	"fmt"
	"sort"

	"crew/internal/actor"
	"crew/internal/store"
	"crew/internal/transport"
)

func emitAll(h *transport.Handle, pending map[int]string) {
	for to := range pending { // want "map iteration feeds Handle.Send"
		h.Send(transport.Message{To: to, Mechanism: 1})
	}
}

func emitSorted(h *transport.Handle, pending map[int]string) {
	ids := make([]int, 0, len(pending))
	for id := range pending { // ok: collects keys, no sink in body
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, to := range ids { // ok: ranges a sorted slice, not a map
		h.Send(transport.Message{To: to, Mechanism: 1})
	}
}

func persist(s *store.Store, state map[string][]byte) {
	for k, v := range state { // want "map iteration feeds Store.Put"
		if err := s.Put(k, v); err != nil {
			return
		}
	}
}

func persistGroups(s *store.Store, state map[string][]byte) {
	for k, v := range state { // want "map iteration feeds Store.Apply"
		if err := s.Apply([]store.Op{{Key: k, Value: v}}); err != nil {
			return
		}
	}
}

func persistOneGroup(s *store.Store, state map[string][]byte) error {
	keys := make([]string, 0, len(state))
	for k := range state { // ok: collects keys, no sink in body
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ops := make([]store.Op, 0, len(keys))
	for _, k := range keys {
		ops = append(ops, store.Op{Key: k, Value: state[k]})
	}
	return s.Apply(ops)
}

func sendOne(h *transport.Handle, to int) {
	h.Send(transport.Message{To: to, Mechanism: 1})
}

func sendVia(h *transport.Handle, to int) {
	sendOne(h, to)
}

func transitive(h *transport.Handle, pending map[int]string) {
	for to := range pending { // want "map iteration feeds sendVia"
		sendVia(h, to)
	}
}

// node sends and marks through the actor it embeds, as engines and agents do.
type node struct {
	*actor.Actor
	peers map[string]int
	rows  map[string]actor.Row
}

func (n *node) broadcast() {
	for to := range n.peers { // want "map iteration feeds Actor.Send"
		n.Send(to, 1, "Purge", nil)
	}
}

func (n *node) markAll() {
	for _, r := range n.rows { // want "map iteration feeds Actor.Mark"
		n.Mark(r)
	}
}

func allowed(counts map[string]int) {
	//crew:allow mapiter debug dump, consumer sorts lines
	for k, v := range counts {
		fmt.Printf("%s=%d\n", k, v)
	}
}
