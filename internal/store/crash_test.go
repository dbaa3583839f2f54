package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crew/internal/cerrors"
)

// dump returns the store's full state, spilled tables included.
func dump(s *Store, tables ...string) map[string]map[string]string {
	out := make(map[string]map[string]string)
	for _, t := range tables {
		for _, k := range s.Keys(t) {
			v, ok := s.Get(t, k)
			if !ok {
				continue
			}
			if out[t] == nil {
				out[t] = make(map[string]string)
			}
			out[t][k] = string(v)
		}
	}
	return out
}

// mark is the log size and the expected state after one complete group.
type mark struct {
	size  int64
	state map[string]map[string]string
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// groupEnds walks the framing only (header, then length-prefixed groups) and
// returns every group's end offset; it knows nothing of what a group holds.
func groupEnds(data []byte) []int64 {
	var ends []int64
	off := int64(headerLen)
	for off+groupHeaderLen <= int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if off+groupHeaderLen+n > int64(len(data)) {
			break
		}
		off += groupHeaderLen + n
		ends = append(ends, off)
	}
	return ends
}

var crashTables = []string{"inst", "arch", "sum"}

// writeCrashLog writes a multi-group log — one-op puts and deletes, multi-op
// groups, a spilled table, optionally a Compact followed by more groups —
// and returns the marks of every group written after the last Compact.
func writeCrashLog(t *testing.T, path string, compact bool) []mark {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	marks := []mark{{size: fileSize(t, path), state: dump(s, crashTables...)}}
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		marks = append(marks, mark{size: fileSize(t, path), state: dump(s, crashTables...)})
	}
	step(s.Put("inst", "WF.1", []byte("running-1")))
	step(s.Apply([]Op{
		{Table: "sum", Key: "WF.2", Value: []byte{1, 0}},
		{Table: "inst", Key: "WF.2", Value: bytes.Repeat([]byte("x"), 300)},
		{Table: "inst", Key: "WF.1", Value: []byte("running-2")},
	}))
	if err := s.Spill("arch"); err != nil {
		t.Fatal(err)
	}
	step(s.Apply([]Op{ // retirement: summary, archive row, instance delete
		{Table: "sum", Key: "WF.1", Value: []byte{1, 2}},
		{Table: "arch", Key: "WF.1", Value: []byte("final-1")},
		{Table: "inst", Key: "WF.1", Delete: true},
	}))
	step(s.Delete("inst", "absent"))
	step(s.Put("arch", "WF.0", nil))
	if compact {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		marks = []mark{{size: fileSize(t, path), state: dump(s, crashTables...)}}
		step(s.Apply([]Op{
			{Table: "arch", Key: "WF.2", Value: []byte("final-2")},
			{Table: "inst", Key: "WF.2", Delete: true},
		}))
		step(s.Put("inst", "WF.3", []byte("running-3")))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return marks
}

// TestCrashAtEveryByte cuts the log at every byte offset and reopens it: the
// state must be the one after the last complete group, the torn tail must be
// gone from the file, and the reopened store must take an append that a
// further reopen still finds.
func TestCrashAtEveryByte(t *testing.T) {
	for _, compact := range []bool{false, true} {
		dir := t.TempDir()
		full := filepath.Join(dir, "full.db")
		marks := writeCrashLog(t, full, compact)
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		if got := marks[len(marks)-1].size; got != int64(len(data)) {
			t.Fatalf("last mark at %d, file has %d bytes", got, len(data))
		}
		ends := groupEnds(data)

		for cut := 0; cut <= len(data); cut++ {
			path := filepath.Join(dir, "cut.db")
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err != nil {
				t.Fatalf("compact=%v cut=%d: Open: %v", compact, cut, err)
			}
			// The last complete group at or before the cut.
			wantSize := int64(headerLen)
			for _, e := range ends {
				if e <= int64(cut) {
					wantSize = e
				}
			}
			if got := fileSize(t, path); got != wantSize {
				t.Fatalf("compact=%v cut=%d: file is %d bytes after Open, want %d (torn tail truncated)", compact, cut, got, wantSize)
			}
			if err := s.Spill("arch"); err != nil {
				t.Fatal(err)
			}
			got := dump(s, crashTables...)
			if wantSize >= marks[0].size {
				// At or past the first mark every group end is a mark.
				var want map[string]map[string]string
				for _, m := range marks {
					if m.size == wantSize {
						want = m.state
					}
				}
				if want == nil {
					t.Fatalf("compact=%v cut=%d: group end %d is not a recorded mark", compact, cut, wantSize)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("compact=%v cut=%d: state %v, want %v", compact, cut, got, want)
				}
			} else {
				// Inside the compacted snapshot (one group per key): every
				// recovered key carries its snapshot value.
				snapshot := marks[0].state
				for tbl, kv := range got {
					for k, v := range kv {
						if snapshot[tbl][k] != v {
							t.Fatalf("compact=%v cut=%d: %s/%s = %q, snapshot has %q", compact, cut, tbl, k, v, snapshot[tbl][k])
						}
					}
				}
			}
			// The truncated log is appendable and the append is durable.
			if err := s.Apply([]Op{{Table: "inst", Key: "after", Value: []byte("crash")}, {Table: "sum", Key: "after", Value: []byte{1}}}); err != nil {
				t.Fatal(err)
			}
			s.Close()
			r, err := Open(path)
			if err != nil {
				t.Fatalf("compact=%v cut=%d: reopen: %v", compact, cut, err)
			}
			if v, ok := r.Get("inst", "after"); !ok || string(v) != "crash" {
				t.Fatalf("compact=%v cut=%d: append after truncation lost", compact, cut)
			}
			if _, ok := r.Get("sum", "after"); !ok {
				t.Fatalf("compact=%v cut=%d: group after truncation applied in part", compact, cut)
			}
			r.Close()
		}
	}
}

// dumpFile opens the log at path and returns the state of the given tables.
func dumpFile(t *testing.T, path string, tables ...string) map[string]map[string]string {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return dump(s, tables...)
}

// TestFlippedByteDropsGroupAndTail flips one byte inside each group in turn:
// the CRC must reject that group whole, and replay stops there.
func TestFlippedByteDropsGroupAndTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.db")
	marks := writeCrashLog(t, full, false)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	ends := groupEnds(data)
	if len(ends) != len(marks)-1 {
		t.Fatalf("%d groups in the file, %d written", len(ends), len(marks)-1)
	}
	start := int64(headerLen)
	for i, end := range ends {
		// One flip in the length/CRC frame, one in the body.
		for _, at := range []int64{start + 5, start + groupHeaderLen + (end-start-groupHeaderLen)/2} {
			bad := append([]byte(nil), data...)
			bad[at] ^= 0x40
			path := filepath.Join(dir, "bad.db")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := dumpFile(t, path, crashTables...); !reflect.DeepEqual(got, marks[i].state) {
				t.Fatalf("group %d, flip at %d: state %v, want the state before the group %v", i, at, got, marks[i].state)
			}
		}
		start = end
	}
}

// parentRecord is the WAL record of the JSON log format this build replaced.
type parentRecord struct {
	Table  string `json:"t"`
	Key    string `json:"k"`
	Value  []byte `json:"v,omitempty"`
	Delete bool   `json:"d,omitempty"`
}

func appendParentRecord(dst []byte, rec parentRecord) []byte {
	buf, _ := json.Marshal(rec)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(buf)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(buf))
	return append(dst, buf...)
}

// TestOpenRejectsOtherFormats: a log of the JSON format, a file of another
// program, and a log with a newer format byte all fail with CodeStoreFormat,
// and Open leaves their bytes alone (it used to take a foreign file for a
// torn tail and truncate it to nothing).
func TestOpenRejectsOtherFormats(t *testing.T) {
	old := appendParentRecord(nil, parentRecord{Table: "instance", Key: "WF.1", Value: []byte(`{"workflow":"WF"}`)})
	old = appendParentRecord(old, parentRecord{Table: "instance", Key: "WF.1", Delete: true})
	cases := map[string][]byte{
		"parent JSON log":    old,
		"short foreign file": []byte("hi"),
		"newer format byte":  append([]byte(fileMagic), fileFormat+1, 0, 0, 0, 0),
	}
	for name, content := range cases {
		path := filepath.Join(t.TempDir(), "other.db")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			s.Close()
			t.Fatalf("%s: Open succeeded", name)
		}
		if code := cerrors.CodeOf(err); code != cerrors.CodeStoreFormat {
			t.Errorf("%s: CodeOf = %q, want %q (%v)", name, code, cerrors.CodeStoreFormat, err)
		}
		if cerrors.PhaseOf(err) != cerrors.PhaseOpen || !errors.Is(err, cerrors.ErrStore) {
			t.Errorf("%s: error %v lacks phase open / class ErrStore", name, err)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil || !bytes.Equal(after, content) {
			t.Errorf("%s: Open changed the file (%d -> %d bytes)", name, len(content), len(after))
		}
	}
}

// TestTornHeaderIsRewritten: a crash during the very first write leaves a
// prefix of the header; that is a new store, not a foreign file.
func TestTornHeaderIsRewritten(t *testing.T) {
	for cut := 0; cut < headerLen; cut++ {
		path := filepath.Join(t.TempDir(), "new.db")
		if err := os.WriteFile(path, []byte(fileHeader[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		s.Put("t", "k", []byte("v"))
		s.Close()
		if got := dumpFile(t, path, "t"); got["t"]["k"] != "v" {
			t.Fatalf("cut=%d: write after header repair lost", cut)
		}
	}
}

// TestPutAllocBudget guards Apply, Put and appendGroup: a steady-state one-op
// Put on a file store rewrites the key's resident buffer and allocates
// nothing; a put of a key not resident allocates its copy and nothing else;
// a rewrite of a spilled key on a file or memory store allocates nothing.
func TestPutAllocBudget(t *testing.T) {
	s, _ := tempStore(t)
	value := bytes.Repeat([]byte("v"), 700)
	s.Put("t", "k", value)
	if n := testing.AllocsPerRun(200, func() { s.Put("t", "k", value) }); n != 0 {
		t.Errorf("rewriting a key on a file store allocates %.0f times per call, budget 0", n)
	}
	ops := []Op{
		{Table: "t", Key: "a", Value: value},
		{Table: "t", Key: "b", Value: value},
		{Table: "t", Key: "a", Delete: true},
	}
	s.Apply(ops)
	if n := testing.AllocsPerRun(200, func() { s.Apply(ops) }); n > 1 {
		t.Errorf("Apply of a new key, a rewrite and a delete allocates %.0f times per call, budget 1 (the new key's copy)", n)
	}
	// A spilled table keeps a reference per key: a rewrite moves the key's
	// reference to the new group record and allocates nothing.
	s.Put("spilled", "k", value)
	if err := s.Spill("spilled"); err != nil {
		t.Fatal(err)
	}
	spilled := []Op{{Table: "spilled", Key: "k", Value: value}}
	if n := testing.AllocsPerRun(200, func() { s.Apply(spilled) }); n != 0 {
		t.Errorf("rewriting a spilled key allocates %.0f times per call, budget 0", n)
	}
	// On a memory store the rewrite copies the value into the memory log's
	// current chunk: a 64 KiB chunk per 93 puts of this value, which
	// AllocsPerRun's whole-number average does not count.
	m := OpenMemory()
	m.Put("spilled", "k", value)
	if err := m.Spill("spilled"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { m.Apply(spilled) }); n != 0 {
		t.Errorf("rewriting a spilled key on a memory store allocates %.0f times per call, budget 0", n)
	}
}

// TestRewriteReusesResidentBuffer: a rewritten key's value lands in the
// buffer it already had, shorter or longer, and Get still returns copies.
func TestRewriteReusesResidentBuffer(t *testing.T) {
	s, path := tempStore(t)
	long, short := bytes.Repeat([]byte("l"), 300), []byte("short")
	s.Put("t", "k", long)
	first := &s.tables["t"]["k"][0]
	got, _ := s.Get("t", "k")
	s.Put("t", "k", short)
	if &s.tables["t"]["k"][0] != first {
		t.Error("a shorter rewrite did not reuse the key's buffer")
	}
	if !bytes.Equal(got, long) {
		t.Error("a value Get returned changed under a rewrite")
	}
	s.Put("t", "k", append(long, long...))
	s.Put("t", "k", short)
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, _ := r.Get("t", "k"); !bytes.Equal(v, short) {
		t.Errorf("after rewrites and reopen the value is %q, want %q", v, short)
	}
}

// tornWriter writes half of the first group it is given, runs then, and
// fails the write, as a full disk or an I/O error does part way through;
// later writes go through.
type tornWriter struct {
	w    io.Writer
	then func()
	done bool
}

func (t *tornWriter) Write(b []byte) (int, error) {
	if t.done {
		return t.w.Write(b)
	}
	t.done = true
	n, _ := t.w.Write(b[:len(b)/2])
	if t.then != nil {
		t.then()
	}
	return n, errors.New("device full")
}

// TestFailedWriteKeepsLaterGroups: a group write that fails part way is cut
// back off the log, so every group acknowledged after it replays at the next
// Open. Left in place, the torn bytes end the replay, and every later group
// behind them is dropped.
func TestFailedWriteKeepsLaterGroups(t *testing.T) {
	s, path := tempStore(t)
	s.Put("t", "before", []byte("1"))
	s.log = &tornWriter{w: s.log}
	if err := s.Put("t", "torn", []byte("2")); err == nil {
		t.Fatal("a torn group write reported no error")
	}
	for _, k := range []string{"after1", "after2"} {
		if err := s.Put("t", k, []byte("3")); err != nil {
			t.Fatalf("put %s after a failed write: %v", k, err)
		}
	}
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Keys("t"), []string{"after1", "after2", "before"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after reopen the keys are %q, want %q: an acknowledged group was lost", got, want)
	}
}

// TestUncutFailedWriteFailsLaterApplies: when the torn bytes cannot be cut
// back, the store acknowledges no later group, since the next Open would
// drop it; the log still reopens to the groups before the failure.
func TestUncutFailedWriteFailsLaterApplies(t *testing.T) {
	s, path := tempStore(t)
	s.Put("t", "before", []byte("1"))
	s.log = &tornWriter{w: s.log, then: func() { s.f.Close() }}
	if err := s.Put("t", "torn", []byte("2")); err == nil {
		t.Fatal("a torn group write reported no error")
	}
	for i := 0; i < 2; i++ {
		if err := s.Put("t", "after", []byte("3")); err == nil {
			t.Fatal("a put after an uncut failed write was acknowledged")
		}
	}
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.Keys("t"), []string{"before"}; !reflect.DeepEqual(got, want) {
		t.Errorf("after reopen the keys are %q, want %q", got, want)
	}
}
