package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func tempStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestPutGetDelete(t *testing.T) {
	s := OpenMemory()
	if _, ok := s.Get("t", "k"); ok {
		t.Error("Get on empty store succeeded")
	}
	if err := s.Put("t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("t", "k")
	if !ok || string(v) != "v1" {
		t.Errorf("Get = (%q, %v)", v, ok)
	}
	if err := s.Put("t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("t", "k"); string(v) != "v2" {
		t.Errorf("overwrite failed: %q", v)
	}
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("t", "k"); ok {
		t.Error("Get after Delete succeeded")
	}
	// Deleting an absent key is fine.
	if err := s.Delete("t", "absent"); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := OpenMemory()
	s.Put("t", "k", []byte("abc"))
	v, _ := s.Get("t", "k")
	v[0] = 'X'
	v2, _ := s.Get("t", "k")
	if string(v2) != "abc" {
		t.Error("Get exposed internal buffer")
	}
	// Put must copy too.
	buf := []byte("mno")
	s.Put("t", "k2", buf)
	buf[0] = 'X'
	v3, _ := s.Get("t", "k2")
	if string(v3) != "mno" {
		t.Error("Put aliased caller buffer")
	}
}

func TestKeysScanLen(t *testing.T) {
	s := OpenMemory()
	for _, k := range []string{"b", "a", "c"} {
		s.Put("t", k, []byte(k))
	}
	keys := s.Keys("t")
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("Keys = %v", keys)
	}
	if s.Len("t") != 3 || s.Len("other") != 0 {
		t.Error("Len wrong")
	}
	var seen []string
	s.Scan("t", func(k string, v []byte) bool {
		seen = append(seen, k)
		return k != "b" // stop after b
	})
	if len(seen) != 2 || seen[1] != "b" {
		t.Errorf("Scan early-stop = %v", seen)
	}
	s.Scan("missing", func(string, []byte) bool {
		t.Error("Scan of missing table called fn")
		return true
	})
}

func TestPersistenceAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("inst", "WF1.1", []byte("state1"))
	s.Put("inst", "WF1.2", []byte("state2"))
	s.Delete("inst", "WF1.1")
	s.Put("class", "WF1", []byte("schema"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get("inst", "WF1.1"); ok {
		t.Error("deleted key resurrected after reopen")
	}
	if v, ok := r.Get("inst", "WF1.2"); !ok || string(v) != "state2" {
		t.Errorf("lost key after reopen: (%q, %v)", v, ok)
	}
	if v, ok := r.Get("class", "WF1"); !ok || string(v) != "schema" {
		t.Error("lost class table after reopen")
	}
	// Appends after reopen persist too.
	r.Put("inst", "WF1.3", []byte("state3"))
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Get("inst", "WF1.3"); !ok {
		t.Error("append after reopen lost")
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("t", "good", []byte("v"))
	s.Close()

	// Simulate a crash mid-append: garbage tail bytes.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2, 3}) // claims 9 bytes, provides 3 garbage
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer r.Close()
	if _, ok := r.Get("t", "good"); !ok {
		t.Error("valid prefix lost")
	}
	// Store remains usable and durable after truncation.
	r.Put("t", "more", []byte("x"))
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Get("t", "more"); !ok {
		t.Error("write after truncation lost")
	}
}

func TestCorruptChecksumStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.db")
	s, _ := Open(path)
	s.Put("t", "k1", []byte("v1"))
	s.Put("t", "k2", []byte("v2"))
	s.Close()

	// Flip one byte in the middle of the second record's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Get("t", "k1"); !ok {
		t.Error("first record should survive")
	}
	if _, ok := r.Get("t", "k2"); ok {
		t.Error("corrupt record should be dropped")
	}
}

func TestCompact(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 50; i++ {
		s.Put("t", "k", []byte{byte(i)})
	}
	s.Put("t", "other", []byte("keep"))
	s.Delete("t", "other")
	s.Put("t", "other", []byte("final"))
	before, _ := os.Stat(path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("Compact did not shrink log: %d -> %d", before.Size(), after.Size())
	}
	// State preserved, and still durable.
	if v, ok := s.Get("t", "k"); !ok || v[0] != 49 {
		t.Error("Compact lost live state")
	}
	s.Put("t", "post", []byte("p"))
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok := r.Get("t", "other"); !ok || string(v) != "final" {
		t.Error("Compacted state wrong after reopen")
	}
	if _, ok := r.Get("t", "post"); !ok {
		t.Error("post-compaction append lost")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := OpenMemory()
	s.Close()
	if err := s.Put("t", "k", nil); err != ErrClosed {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if err := s.Delete("t", "k"); err != ErrClosed {
		t.Errorf("Delete after Close = %v, want ErrClosed", err)
	}
}

func TestWritesCounter(t *testing.T) {
	s := OpenMemory()
	s.Put("t", "a", nil)
	s.Put("t", "b", nil)
	s.Delete("t", "a")
	if got := s.Writes(); got != 3 {
		t.Errorf("Writes = %d, want 3", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := tempStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := string(rune('a' + id))
			for i := 0; i < 200; i++ {
				if err := s.Put("t", key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get("t", key); !ok {
					t.Error("lost own write")
					return
				}
				s.Keys("t")
			}
		}(w)
	}
	wg.Wait()
	if s.Len("t") != 4 {
		t.Errorf("Len = %d, want 4", s.Len("t"))
	}
}

// TestConcurrentSpilledAccess: on a spilled table of a memory and of a file
// store, writers that read back their own values, a reader of the keys and
// a Compact running beside them, under -race.
func TestConcurrentSpilledAccess(t *testing.T) {
	file, _ := tempStore(t)
	for name, s := range map[string]*Store{"memory": OpenMemory(), "file": file} {
		t.Run(name, func(t *testing.T) {
			if err := s.Spill("t"); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					key := string(rune('a' + id))
					for i := 0; i < 200; i++ {
						want := bytes.Repeat([]byte{byte(i)}, id+i%3)
						if err := s.Put("t", key, want); err != nil {
							t.Error(err)
							return
						}
						if got, ok, err := s.Load("t", key); !ok || err != nil || !bytes.Equal(got, want) {
							t.Errorf("%s: read back (%v, %v, %v), want %v", key, got, ok, err, want)
							return
						}
						s.Keys("t")
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := s.Compact(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			if s.Len("t") != 4 {
				t.Errorf("Len = %d, want 4", s.Len("t"))
			}
		})
	}
}

// Property: one sequence of puts and deletes, run against four stores, leaves
// each equal to the map model: a memory store, a memory store whose table is
// spilled a third of the way in and compacted half way, a file store spilled
// and compacted at the same points, and that file store reopened, before and
// after a Spill. Values run from empty to a few bytes long.
func TestPropertyReplayMatchesModel(t *testing.T) {
	f := func(ops []uint8, vals []uint8) bool {
		dir, err := os.MkdirTemp("", "storeprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "wal.db")
		file, err := Open(path)
		if err != nil {
			return false
		}
		defer file.Close()
		plain, spilled := OpenMemory(), OpenMemory()
		stores := []*Store{plain, spilled, file}
		model := make(map[string]string)
		agree := func(what string, s *Store) bool {
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := s.Keys("t"); s.Len("t") != len(model) || !slices.Equal(got, keys) {
				t.Logf("%s: keys %q (Len %d), the model %q", what, got, s.Len("t"), keys)
				return false
			}
			for k, want := range model {
				if got, ok, err := s.Load("t", k); !ok || err != nil || string(got) != want {
					t.Logf("%s: %s = (%q, %v, %v), the model %q", what, k, got, ok, err, want)
					return false
				}
			}
			return true
		}
		for i, op := range ops {
			switch i {
			case len(ops) / 3:
				for _, s := range stores[1:] {
					if err := s.Spill("t"); err != nil {
						t.Log(err)
						return false
					}
				}
			case len(ops) / 2:
				for _, s := range stores[1:] {
					if err := s.Compact(); err != nil {
						t.Log(err)
						return false
					}
				}
			}
			key := string(rune('a' + op%5))
			var val byte
			if i < len(vals) {
				val = vals[i]
			}
			for _, s := range stores {
				if op%3 == 0 {
					err = s.Delete("t", key)
				} else {
					err = s.Put("t", key, bytes.Repeat([]byte{val}, int(val%4)))
				}
				if err != nil {
					t.Log(err)
					return false
				}
			}
			if op%3 == 0 {
				delete(model, key)
			} else {
				model[key] = string(bytes.Repeat([]byte{val}, int(val%4)))
			}
		}
		for i, what := range []string{"memory", "spilled memory", "spilled file"} {
			if !agree(what, stores[i]) {
				return false
			}
		}
		file.Close()
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		if !agree("reopened file", r) {
			return false
		}
		if err := r.Spill("t"); err != nil {
			t.Log(err)
			return false
		}
		return agree("reopened and spilled file", r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSpillRoundTrip(t *testing.T) {
	s, path := tempStore(t)
	for i := 0; i < 20; i++ {
		s.Put("arch", "k"+string(rune('a'+i)), []byte{byte(i), byte(i + 1)})
	}
	if err := s.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	// Existing values are references into the log now, and read back unchanged.
	for i := 0; i < 20; i++ {
		v, ok := s.Get("arch", "k"+string(rune('a'+i)))
		if !ok || len(v) != 2 || v[0] != byte(i) {
			t.Fatalf("spilled value %d = %v,%v", i, v, ok)
		}
	}
	// Writes after the spill keep references too.
	s.Put("arch", "late", []byte("late-value"))
	if v, ok := s.Get("arch", "late"); !ok || string(v) != "late-value" {
		t.Fatalf("post-spill Put round-trip = %q,%v", v, ok)
	}
	if _, err := os.Stat(path + ".spill"); !os.IsNotExist(err) {
		t.Fatalf("a side file next to the log: %v", err)
	}
	// Other tables stay resident.
	s.Put("live", "k", []byte("v"))
	if v, ok := s.Get("live", "k"); !ok || string(v) != "v" {
		t.Fatal("unspilled table affected")
	}
	// Spill is idempotent.
	if err := s.Spill("arch"); err != nil {
		t.Fatal(err)
	}
}

func TestSpillSurvivesCompactAndReopen(t *testing.T) {
	s, path := tempStore(t)
	s.Put("arch", "k1", []byte("v1"))
	if err := s.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	s.Put("arch", "k2", []byte("v2"))
	// Compact must write real values (not references) to the log.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"k1": "v1", "k2": "v2"} {
		if v, ok := s.Get("arch", k); !ok || string(v) != want {
			t.Fatalf("after Compact %s = %q,%v", k, v, ok)
		}
	}
	s.Close()
	// The log is the one copy: values read correctly before the next Spill
	// and after it.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, ok := r.Get("arch", "k1"); !ok || string(v) != "v1" {
		t.Fatalf("after reopen k1 = %q,%v", v, ok)
	}
	if err := r.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Get("arch", "k2"); !ok || string(v) != "v2" {
		t.Fatalf("after reopen+Spill k2 = %q,%v", v, ok)
	}
}

// countingWriter counts the writes that reach the log.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n++
	return c.w.Write(b)
}

// TestSpilledValuesLiveInTheLog: a put to a spilled table is one write, of
// its group record, and no side file exists; the table keeps references into
// the log. Every value reads back after Compact, which reclaims rewritten and
// deleted ones, and again after a reopen and Spill, which write no byte.
func TestSpilledValuesLiveInTheLog(t *testing.T) {
	s, path := tempStore(t)
	want := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := s.Put("arch", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	put("before", "resident until the spill")
	if err := s.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	w := &countingWriter{w: s.log}
	s.log = w
	for i := range 20 {
		put(fmt.Sprintf("k%02d", i), strings.Repeat(string(rune('a'+i)), 50+i))
		if w.n != i+1 {
			t.Fatalf("%d puts to a spilled table made %d writes", i+1, w.n)
		}
	}
	put("k00", "rewritten")
	put("empty", "")
	if err := s.Delete("arch", "k01"); err != nil {
		t.Fatal(err)
	}
	delete(want, "k01")
	if w.n != 23 || fileSize(t, path) != s.end {
		t.Fatalf("23 groups made %d writes; the log is %d bytes, its groups end at %d", w.n, fileSize(t, path), s.end)
	}
	check := func(when string, s *Store) {
		t.Helper()
		if s.Len("arch") != len(want) {
			t.Fatalf("%s: %d keys, want %d", when, s.Len("arch"), len(want))
		}
		for k, v := range want {
			got, ok, err := s.Load("arch", k)
			if !ok || err != nil || string(got) != v {
				t.Fatalf("%s: %s = (%q, %v, %v), want %q", when, k, got, ok, err, v)
			}
			checkRef(t, when, s, k, v)
		}
		if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
			t.Fatalf("%s: %d files next to the log, want the log alone", when, len(entries))
		}
	}
	check("after the puts", s)
	before := fileSize(t, path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := fileSize(t, path); after >= before {
		t.Errorf("Compact left the log at %d bytes, from %d: the rewritten and deleted values stayed", after, before)
	}
	check("after Compact", s)
	put("late", "after Compact")
	check("after a put behind Compact", s)
	s.Close()

	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	check("after a reopen and Spill", r)
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, log) {
		t.Fatalf("the reopen and Spill changed the log (%d -> %d bytes, %v)", len(log), len(again), err)
	}
}

// checkRef fails unless key k of table arch is held as one word, naming a
// value of v's length, and as nothing else.
func checkRef(t *testing.T, when string, s *Store, k, v string) {
	t.Helper()
	ref, ok := s.refs["arch"][k]
	if _, n := unpackRef(ref); !ok || n != len(v) || s.tables["arch"] != nil {
		t.Fatalf("%s: %s is not one word naming %d bytes (ok %v, ref %#x, resident table %v)", when, k, len(v), ok, ref, s.tables["arch"] != nil)
	}
}

// size is the number of bytes the log holds, live or not.
func (l *memLog) size() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// TestSpilledValuesLiveInTheMemoryLog is TestSpilledValuesLiveInTheLog on a
// memory store: Spill moves the table's values into the memory log, a put
// appends its value there, and the table keeps one word per key. Every
// value, an empty one and one longer than a chunk among them, reads back as
// a copy, and Compact shrinks the log to the live values. Sync has nothing
// to flush.
func TestSpilledValuesLiveInTheMemoryLog(t *testing.T) {
	s := OpenMemory()
	want := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := s.Put("arch", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	put("before", "resident until the spill")
	if err := s.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	for i := range 20 {
		put(fmt.Sprintf("k%02d", i), strings.Repeat(string(rune('a'+i)), 50+i))
	}
	put("k00", "rewritten")
	put("empty", "")
	put("big", strings.Repeat("b", memChunk+1))
	put("after big", "lands in a chunk of its own")
	if err := s.Delete("arch", "k01"); err != nil {
		t.Fatal(err)
	}
	delete(want, "k01")
	live := 0
	for _, v := range want {
		live += len(v)
	}
	check := func(when string) {
		t.Helper()
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := s.Keys("arch"); s.Len("arch") != len(want) || !slices.Equal(got, keys) {
			t.Fatalf("%s: keys %q (Len %d), want %q", when, got, s.Len("arch"), keys)
		}
		for k, v := range want {
			got, ok, err := s.Load("arch", k)
			if !ok || err != nil || string(got) != v {
				t.Fatalf("%s: %s = (%.20q, %v, %v), want %.20q", when, k, got, ok, err, v)
			}
			checkRef(t, when, s, k, v)
			if len(got) > 0 {
				got[0] ^= 0xff
				if again, _ := s.Get("arch", k); string(again) != v {
					t.Fatalf("%s: changing what Load returned for %s changed the log", when, k)
				}
			}
		}
	}
	check("after the puts")
	before := s.mem.size()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := s.mem.size(); after >= before || after != live {
		t.Errorf("Compact left the memory log at %d bytes, from %d; the live values are %d", after, before, live)
	}
	check("after Compact")
	put("late", "after Compact")
	check("after a put behind Compact")
	if err := s.Sync(); err != nil {
		t.Errorf("Sync of a memory store: %v", err)
	}
}

// TestFailedCompactKeepsEveryReference: a Compact that cannot create its new
// log fails and moves no reference, so every spilled value still loads, a
// later put lands, and the log still reopens to every value.
func TestFailedCompactKeepsEveryReference(t *testing.T) {
	s, path := tempStore(t)
	want := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := s.Put("arch", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	put("before", "in the log before the spill")
	if err := s.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		put(fmt.Sprintf("k%d", i), strings.Repeat(string(rune('a'+i)), 30+i))
	}
	put("k0", "rewritten")
	if err := s.Delete("arch", "k1"); err != nil {
		t.Fatal(err)
	}
	delete(want, "k1")
	if err := os.Mkdir(path+".compact", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact over a directory at its new log's path succeeded")
	}
	check := func(when string, s *Store) {
		t.Helper()
		if s.Len("arch") != len(want) {
			t.Fatalf("%s: %d keys, want %d", when, s.Len("arch"), len(want))
		}
		for k, v := range want {
			if got, ok, err := s.Load("arch", k); !ok || err != nil || string(got) != v {
				t.Fatalf("%s: %s = (%q, %v, %v), want %q", when, k, got, ok, err, v)
			}
		}
	}
	check("after the failed Compact", s)
	put("late", "after the failed Compact")
	check("after a put behind the failed Compact", s)
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	check("after a reopen and Spill", r)
}

// TestUnreferenceablePutWritesNothing: a group with a put to a spilled table
// whose value would lie past the 36-bit offset a reference holds fails as a
// whole, and leaves the log and the tables as they were: on a file store
// whose log reads as 64 GiB long, and on a memory store whose log has used
// every chunk index.
func TestUnreferenceablePutWritesNothing(t *testing.T) {
	file, path := tempStore(t)
	mem := OpenMemory()
	for _, s := range []*Store{file, mem} {
		if err := s.Put("arch", "near", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Spill("arch"); err != nil {
			t.Fatal(err)
		}
	}
	group := []Op{
		{Table: "t", Key: "resident", Value: []byte("r")},
		{Table: "arch", Key: "far", Value: []byte("x")},
	}
	check := func(what string, s *Store, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: a put past a reference's reach succeeded", what)
		}
		for _, k := range []string{"t/resident", "arch/far"} {
			table, key, _ := strings.Cut(k, "/")
			if _, ok := s.Get(table, key); ok {
				t.Errorf("%s: the failed group left %s", what, k)
			}
		}
		if v, ok := s.Get("arch", "near"); !ok || string(v) != "v" {
			t.Errorf("%s: arch/near = %q, %v after the failed group", what, v, ok)
		}
	}

	size, end := fileSize(t, path), file.end
	file.end = maxRefOff
	err := file.Apply(group)
	file.end = end
	check("file", file, err)
	if got := fileSize(t, path); got != size {
		t.Errorf("file: the failed group wrote %d bytes", got-size)
	}

	chunks := len(mem.mem.chunks)
	full := make([][]byte, 1<<(64-refLenBits-memChunkBits))
	copy(full, mem.mem.chunks)
	mem.mem.chunks = full
	check("memory", mem, mem.Apply(group))
	if len(mem.mem.chunks) != len(full) {
		t.Errorf("memory: the failed group left %d chunks, want %d", len(mem.mem.chunks), len(full))
	}
	mem.mem.chunks = mem.mem.chunks[:chunks]
	for _, s := range []*Store{file, mem} {
		if err := s.Apply(group); err != nil {
			t.Fatalf("a group within reach after a failed one: %v", err)
		}
	}
}
