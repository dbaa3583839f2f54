package event

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"crew/internal/binenc"
)

func TestNameConstructors(t *testing.T) {
	if got := DoneName("S4"); got != "S4.done" {
		t.Errorf("DoneName = %q", got)
	}
	if got := FailName("S4"); got != "S4.fail" {
		t.Errorf("FailName = %q", got)
	}
	if got := CompensatedName("S4"); got != "S4.compensated" {
		t.Errorf("CompensatedName = %q", got)
	}
	if got := ExternalName("WF1", 3, "S12.done"); got != "ext:WF1.3:S12.done" {
		t.Errorf("ExternalName = %q", got)
	}
	if !IsExternalName("ext:WF1.3:S12.done") || IsExternalName("S12.done") {
		t.Error("IsExternalName misclassifies")
	}
}

func TestStepOfDone(t *testing.T) {
	cases := map[string]string{
		"S4.done":            "S4",
		"S4.fail":            "",
		"WF.done":            "",
		"ext:WF1.3:S12.done": "",
		"Reserve.done":       "Reserve",
		"S4.compensated":     "",
	}
	for name, want := range cases {
		if got := StepOfDone(name); got != want {
			t.Errorf("StepOfDone(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{WorkflowStart, StepDone, StepFail, StepCompensated, WorkflowDone, WorkflowAbort, External} {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("Kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind should render numerically")
	}
}

func TestPostHasInvalidate(t *testing.T) {
	tab := NewTable()
	if tab.Has("S1.done") {
		t.Error("empty table Has = true")
	}
	if !tab.Post("S1.done") {
		t.Error("first Post should report change")
	}
	if !tab.Has("S1.done") {
		t.Error("Has after Post = false")
	}
	if tab.Post("S1.done") {
		t.Error("re-Post of valid event should not report change")
	}
	if tab.Count("S1.done") != 2 {
		t.Errorf("Count = %d, want 2", tab.Count("S1.done"))
	}
	if !tab.Invalidate("S1.done") {
		t.Error("Invalidate of valid event should return true")
	}
	if tab.Has("S1.done") {
		t.Error("Has after Invalidate = true")
	}
	if tab.Invalidate("S1.done") {
		t.Error("double Invalidate should return false")
	}
	if tab.Invalidate("missing") {
		t.Error("Invalidate of absent event should return false")
	}
	// Re-post revalidates.
	if !tab.Post("S1.done") {
		t.Error("Post after Invalidate should report change")
	}
	if !tab.Has("S1.done") || tab.Count("S1.done") != 3 {
		t.Error("re-validation failed")
	}
}

func TestInvalidateWhere(t *testing.T) {
	tab := NewTable()
	for _, n := range []string{"S1.done", "S2.done", "S3.done", "WF.start"} {
		tab.Post(n)
	}
	n := tab.InvalidateWhere(func(name string) bool {
		return name == "S2.done" || name == "S3.done"
	})
	if n != 2 {
		t.Errorf("InvalidateWhere = %d, want 2", n)
	}
	if !tab.Has("S1.done") || tab.Has("S2.done") || tab.Has("S3.done") || !tab.Has("WF.start") {
		t.Error("wrong events invalidated")
	}
	if again := tab.InvalidateWhere(func(string) bool { return true }); again != 2 {
		t.Errorf("second InvalidateWhere = %d, want 2 (S1, WF.start)", again)
	}
}

func TestValidNamesSortedAndLen(t *testing.T) {
	tab := NewTable()
	tab.Post("b")
	tab.Post("a")
	tab.Post("c")
	tab.Invalidate("b")
	got := tab.ValidNames()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("ValidNames = %v, want [a c]", got)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	if s := tab.String(); s != "a c" {
		t.Errorf("String = %q, want \"a c\"", s)
	}
}

func TestSeqChangesOnMutation(t *testing.T) {
	tab := NewTable()
	s0 := tab.Seq()
	tab.Post("a")
	s1 := tab.Seq()
	if s1 == s0 {
		t.Error("Seq unchanged after Post")
	}
	tab.Invalidate("a")
	if tab.Seq() == s1 {
		t.Error("Seq unchanged after Invalidate")
	}
	s2 := tab.Seq()
	tab.InvalidateWhere(func(string) bool { return false })
	if tab.Seq() != s2 {
		t.Error("Seq changed by no-op InvalidateWhere")
	}
}

func TestClone(t *testing.T) {
	tab := NewTable()
	tab.Post("a")
	tab.Post("b")
	tab.Invalidate("b")
	c := tab.Clone()
	tab.Post("c")
	tab.Invalidate("a")
	if !c.Has("a") || c.Has("b") || c.Has("c") {
		t.Error("Clone not isolated from original")
	}
	if c.Count("b") != 1 {
		t.Errorf("Clone lost counts: %d", c.Count("b"))
	}
}

// Property: after any sequence of posts and invalidations, ValidNames
// contains exactly the names whose last operation was a post.
func TestPropertyTableConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		tab := NewTable()
		last := make(map[string]bool)
		names := []string{"a", "b", "c", "d"}
		for _, op := range ops {
			name := names[int(op)%len(names)]
			if op%2 == 0 {
				tab.Post(name)
				last[name] = true
			} else {
				tab.Invalidate(name)
				last[name] = false
			}
		}
		for _, n := range names {
			if tab.Has(n) != last[n] {
				return false
			}
		}
		valid := 0
		for _, v := range last {
			if v {
				valid++
			}
		}
		return tab.Len() == valid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tab := NewTable()
	tab.Post("S2.done")
	tab.Post("S1.done")
	tab.Post("S1.done")
	tab.Post("S1.fail")
	tab.Invalidate("S1.fail")
	var w binenc.Walker
	buf := append([]byte(nil), w.Append(nil, tab)...)
	w.Decode(append(append([]byte(nil), buf...), 0xEE))
	got := new(Table)
	got.Walk(&w)
	if w.Reader().Byte() != 0xEE || w.Done() != nil {
		t.Fatal("the decode walk did not stop at the end of the table")
	}
	if !reflect.DeepEqual(got.Export(), tab.Export()) {
		t.Errorf("round trip = %v, want %v", got.Export(), tab.Export())
	}
	if got.Has("S1.fail") || got.Count("S1.fail") != 1 || got.Count("S1.done") != 2 {
		t.Error("invalidated entry or counts lost")
	}
	// Equal tables encode to equal bytes whatever the insertion order.
	other := NewTable()
	other.Post("S1.fail")
	other.Invalidate("S1.fail")
	other.Post("S1.done")
	other.Post("S1.done")
	other.Post("S2.done")
	if !bytes.Equal(w.Append(nil, other), buf) {
		t.Error("encoding depends on insertion order")
	}
	empty := new(Table)
	if err := w.Read(w.Append(nil, NewTable()), empty); err != nil || empty.Len() != 0 {
		t.Error("empty table round trip")
	}
	// Truncations and a count the input cannot hold fail cleanly.
	for cut := 0; cut < len(buf); cut++ {
		if w.Read(buf[:cut], new(Table)) == nil {
			t.Fatalf("table cut at %d decoded", cut)
		}
	}
	if w.Read([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a', 2, 1}, new(Table)) == nil {
		t.Error("oversized count decoded")
	}
}
