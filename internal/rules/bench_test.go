package rules

import (
	"fmt"
	"testing"

	"crew/internal/event"
)

// BenchmarkRuleFiring measures one event delivery against a large rule set
// with sparse event traffic — the workload shape of a busy engine hosting
// many instances: hundreds of registered rules, of which a single posted
// event satisfies exactly one. The indexed path touches only the subscribed
// rule; the scan path re-checks every rule on every delivery.
func BenchmarkRuleFiring(b *testing.B) {
	const nRules = 512
	names := make([]string, nRules)
	for i := range names {
		names[i] = fmt.Sprintf("s%d.done", i)
	}
	rs := make([]*Rule, nRules)
	for i := range rs {
		rs[i] = execRule(fmt.Sprintf("r%d", i), names[i])
	}
	build := func() *Engine { return load(rs...) }

	b.Run("indexed", func(b *testing.B) {
		e := build()
		tab := event.NewTable()
		e.Bind(tab)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fired, err := e.FireOn(names[i%nRules], nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(fired) != 1 {
				b.Fatalf("fired %d rules, want 1", len(fired))
			}
		}
	})

	b.Run("scan", func(b *testing.B) {
		e := build()
		tab := event.NewTable() // unbound: Evaluate falls back to the scan path
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tab.Post(names[i%nRules])
			fired, err := e.Evaluate(tab, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(fired) != 1 {
				b.Fatalf("fired %d rules, want 1", len(fired))
			}
		}
	})
}
