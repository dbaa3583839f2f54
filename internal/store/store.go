// Package store implements the small embedded database underlying the
// workflow database (WFDB) of the centralized architecture and the per-agent
// databases (AGDB) of the distributed architecture.
//
// It is a write-ahead log of table mutations with an in-memory view: every
// group of mutations is appended to the log as one length-framed, checksummed
// record — one write — before the in-memory tables are updated, so a
// reopened store recovers to exactly the state whose groups were durably
// appended — the forward recovery the paper relies on for engine and agent
// failures. A group is replayed whole or not at all: a torn tail (partial
// write at crash) is detected by length and checksum and truncated. Values
// are opaque bytes; DESIGN.md "Durable format" gives the file layout.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"sync"

	"crew/internal/binenc"
	"crew/internal/cerrors"
)

// The log file starts with fileHeader: a magic and one format byte. A build
// reads exactly one format: Open rejects any other non-empty file (an older
// JSON log included) with CodeStoreFormat and leaves its bytes untouched,
// rather than mistaking it for a torn tail and truncating it to nothing.
const (
	fileMagic  = "CREWWAL"
	fileFormat = 1
	fileHeader = fileMagic + string(rune(fileFormat))
	headerLen  = len(fileHeader)

	// groupHeaderLen frames one group record: a 4-byte little-endian body
	// length and the body's CRC-32 (IEEE). maxGroupBody bounds the length a
	// replay will believe.
	groupHeaderLen = 8
	maxGroupBody   = 1 << 28

	opPut    = 0
	opDelete = 1
)

// Op is one mutation within a group.
type Op struct {
	Table, Key string
	Value      []byte // ignored for a delete
	Delete     bool
}

// Store is a table/key/value store with WAL durability. All methods are safe
// for concurrent use.
type Store struct {
	mu     sync.RWMutex
	path   string                       // empty for memory-only stores
	f      *os.File                     // nil for memory-only stores
	tables map[string]map[string][]byte // the resident tables
	writes int64
	wbuf   []byte // group-record encode buffer, reused under mu

	// log is what Apply writes group records to: f, or a test's writer in
	// front of it. end is the offset just past the last complete group.
	// broken, once a failed write could not be cut back to end, fails every
	// later Apply.
	log    io.Writer
	end    int64
	broken error
	voffs  []int // where each op's value lies in wbuf, reused under mu

	// A spilled table keeps, per key, one word: where its value lies in the
	// log and its length (packRef). A file store's log is its file; a memory
	// store's is mem. placed is Apply's scratch, one entry per op (place).
	refs   map[string]map[string]uint64
	mem    memLog
	placed []placement
}

// placement is where an op of a group goes: for a spilled table, the
// table's references and, for a put, the value's new one.
type placement struct {
	refs map[string]uint64 // nil for a resident table
	ref  uint64
}

// OpenMemory returns a store without a backing file; Put/Delete apply only to
// the in-memory view. Used by experiments where durability is irrelevant to
// the measured quantities.
func OpenMemory() *Store {
	return &Store{tables: make(map[string]map[string][]byte)}
}

// Open opens (creating if needed) a file-backed store and replays its log.
// A non-empty file that does not start with this build's header fails with
// CodeStoreFormat and is not modified.
func Open(path string) (*Store, error) {
	s := &Store{path: path, tables: make(map[string]map[string][]byte)}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	valid, err := s.replay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Truncate any torn tail so appends continue from the last valid group.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncate %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek %s: %w", path, err)
	}
	if valid == 0 {
		if err := writeHeader(f); err != nil {
			f.Close()
			return nil, err
		}
		valid = int64(headerLen)
	}
	s.f, s.log, s.end = f, f, valid
	return s, nil
}

func writeHeader(f *os.File) error {
	if _, err := f.WriteString(fileHeader); err != nil {
		return fmt.Errorf("store: write header: %w", err)
	}
	return nil
}

// checkHeader validates the file header read so far. A strict prefix of the
// header is the torn first write of a new file (valid end 0: Open rewrites
// it); anything else that is not this build's header is another format.
func checkHeader(path string, hdr []byte) error {
	if string(hdr) == fileHeader[:len(hdr)] {
		return nil
	}
	if len(hdr) == headerLen && string(hdr[:len(fileMagic)]) == fileMagic {
		return cerrors.E(cerrors.CodeStoreFormat, cerrors.PhaseOpen, cerrors.ErrStore, nil,
			"%s: log format %d, this build reads format %d", path, hdr[len(fileMagic)], fileFormat)
	}
	return cerrors.E(cerrors.CodeStoreFormat, cerrors.PhaseOpen, cerrors.ErrStore, nil,
		"%s: not a format-%d store log (a log written before the binary format cannot be read)", path, fileFormat)
}

// replay checks the header, then reads groups from f until EOF or
// corruption, applying each complete group to the in-memory view, and
// returns the offset of the last valid group end (0 for an empty file or a
// torn header).
func (s *Store) replay(f *os.File) (validEnd int64, err error) {
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [headerLen]byte
	n, _ := io.ReadFull(r, hdr[:])
	if err := checkHeader(s.path, hdr[:n]); err != nil {
		return 0, err
	}
	if n < headerLen {
		return 0, nil
	}
	return readGroups(r, int64(headerLen), func(ops []Op, _ []int64) {
		for i := range ops {
			s.apply(ops[i].Table, ops[i].Key, append([]byte(nil), ops[i].Value...), ops[i].Delete)
		}
		s.writes += int64(len(ops))
	}), nil
}

// readGroups reads group records from r, which starts at log offset off,
// until EOF or the first torn or corrupt one, and returns the offset just
// past the last complete group. Each complete group's ops go to fn whole,
// with the log offset of each op's value; their values alias a buffer the
// next group reuses.
func readGroups(r io.Reader, off int64, fn func(ops []Op, voffs []int64)) int64 {
	var gh [groupHeaderLen]byte
	var body []byte
	var ops []Op
	var voffs []int64
	for {
		if _, err := io.ReadFull(r, gh[:]); err != nil {
			return off // clean EOF or torn group header: stop here
		}
		n := binary.LittleEndian.Uint32(gh[0:4])
		sum := binary.LittleEndian.Uint32(gh[4:8])
		if n > maxGroupBody {
			return off // implausible length: treat as torn
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return off
		}
		if crc32.ChecksumIEEE(body) != sum {
			return off
		}
		// All or nothing: decode the whole group before applying any of it.
		var err error
		if ops, voffs, err = decodeGroup(ops[:0], voffs[:0], body, off+groupHeaderLen); err != nil {
			return off
		}
		fn(ops, voffs)
		off += int64(groupHeaderLen + len(body))
	}
}

// decodeGroup parses a group body, which starts at log offset off, into ops
// and the log offset of each op's value. Names are copied out of body;
// values alias it.
func decodeGroup(ops []Op, voffs []int64, body []byte, off int64) ([]Op, []int64, error) {
	r := binenc.NewReader(body)
	for n := r.Count(3); n > 0; n-- { // op byte, table length, key length
		kind := r.Byte()
		op := Op{Delete: kind == opDelete, Table: r.Str(), Key: r.Str()}
		switch kind {
		case opPut:
			op.Value = r.Bytes()
		case opDelete:
		default:
			r.Fail()
		}
		ops = append(ops, op)
		voffs = append(voffs, off+int64(len(body)-r.Len()-len(op.Value)))
	}
	return ops, voffs, r.Done()
}

// appendGroup appends one framed group record carrying ops to dst, and to
// voffs where in dst each op's value lies.
func appendGroup(dst []byte, voffs []int, ops []Op) ([]byte, []int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length and CRC, filled in below
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		if op.Delete {
			dst = append(dst, opDelete)
		} else {
			dst = append(dst, opPut)
		}
		dst = binenc.AppendString(dst, op.Table)
		dst = binenc.AppendString(dst, op.Key)
		voff := len(dst)
		if !op.Delete {
			dst = binenc.AppendBytes(dst, op.Value)
			voff = len(dst) - len(op.Value)
		}
		voffs = append(voffs, voff)
	}
	body := dst[start+groupHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst, voffs
}

// apply installs one mutation in the in-memory view; value is stored as is.
func (s *Store) apply(table, key string, value []byte, del bool) {
	tbl := s.tables[table]
	if tbl == nil {
		tbl = make(map[string][]byte)
		s.tables[table] = tbl
	}
	if del {
		delete(tbl, key)
	} else {
		tbl[key] = value
	}
}

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("store: closed")

// A reference packs a spilled value's length into its low refLenBits bits
// and its log offset into the high 36. A value is shorter than maxGroupBody,
// so any length a group record holds fits.
const (
	refLenBits = 28
	maxRefLen  = 1<<refLenBits - 1
	maxRefOff  = 1<<(64-refLenBits) - 1
)

// packRef returns the reference to n bytes at log offset off, and whether
// they fit one.
func packRef(off int64, n int) (uint64, bool) {
	if off < 0 || off > maxRefOff || n < 0 || n > maxRefLen {
		return 0, false
	}
	return uint64(off)<<refLenBits | uint64(n), true
}

func unpackRef(ref uint64) (off int64, n int) {
	return int64(ref >> refLenBits), int(ref & maxRefLen)
}

// Spill leaves in memory only a one-word reference to where each of a
// table's values lies in the log, and keeps the table so: a later put's
// reference points into its own group record, Compact moves the references
// to the values it rewrites, and reads copy the bytes back out. A file
// store's log holds every value already, so Spill writes nothing; on a store
// that holds the table's values, it finds them in one pass over the log. A
// memory store moves the table's values into its memory log (memLog).
//
// Spill keeps the archive's memory to its rows' bytes and a word per key
// when a table grows without bound (the instance archive under a sustained
// workload stream), and a file store's resident memory flat.
func (s *Store) Spill(table string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil {
		return ErrClosed
	}
	if s.refs[table] != nil {
		return nil
	}
	tbl := s.tables[table]
	refs := make(map[string]uint64, len(tbl))
	if s.f == nil {
		mark := s.mem.mark()
		for _, k := range sortedKeys(tbl) {
			var ok bool
			if refs[k], ok = s.mem.add(tbl[k]); !ok {
				s.mem.undo(mark)
				return fmt.Errorf("store: spill %s: %d bytes under %s do not fit the memory log", table, len(tbl[k]), k)
			}
		}
	} else if len(tbl) > 0 {
		// A live value lies where its key's last put wrote it.
		fits := true
		r := bufio.NewReaderSize(io.NewSectionReader(s.f, int64(headerLen), s.end-int64(headerLen)), 1<<16)
		end := readGroups(r, int64(headerLen), func(ops []Op, voffs []int64) {
			for i, op := range ops {
				switch {
				case op.Table != table:
				case op.Delete:
					delete(refs, op.Key)
				default:
					ref, ok := packRef(voffs[i], len(op.Value))
					refs[op.Key], fits = ref, fits && ok
				}
			}
		})
		if end != s.end || len(refs) != len(tbl) || !fits {
			return fmt.Errorf("store: spill %s: the log to %d holds %d live values, the table %d (references fit: %v)", table, end, len(refs), len(tbl), fits)
		}
	}
	delete(s.tables, table)
	if s.refs == nil {
		s.refs = make(map[string]map[string]uint64)
	}
	s.refs[table] = refs
	return nil
}

// read copies a spilled value out of the log. Caller holds s.mu (read or
// write).
func (s *Store) read(ref uint64) ([]byte, error) {
	if s.f == nil {
		return append([]byte(nil), s.mem.at(ref)...), nil
	}
	off, n := unpackRef(ref)
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: %s: read the %d-byte value at %d: %w", s.path, n, off, err)
	}
	return buf, nil
}

// memLog is a memory store's log of spilled values: append-only chunks of
// memChunk bytes, each value whole in one chunk, and a value longer than a
// chunk in a chunk of its own. A value's offset is its chunk's index shifted
// left by memChunkBits, plus where it starts in the chunk. The chunks hold no
// pointers, so the collector never scans them.
type memLog struct {
	chunks [][]byte
}

const (
	memChunkBits = 16
	memChunk     = 1 << memChunkBits
)

// add appends v and returns its reference, and whether v fits one; an
// empty value takes no room. After a false, undo takes v back out.
func (l *memLog) add(v []byte) (uint64, bool) {
	switch {
	case len(v) > maxRefLen:
		return 0, false
	case len(v) == 0:
		return 0, true
	}
	last := len(l.chunks) - 1
	if last < 0 || len(v) > cap(l.chunks[last])-len(l.chunks[last]) {
		l.chunks = append(l.chunks, make([]byte, 0, max(memChunk, len(v))))
		last++
	}
	c := l.chunks[last]
	l.chunks[last] = append(c, v...)
	return packRef(int64(last)<<memChunkBits|int64(len(c)), len(v))
}

// at returns the value ref names, in place.
func (l *memLog) at(ref uint64) []byte {
	off, n := unpackRef(ref)
	if n == 0 {
		return nil
	}
	in := int(off & (memChunk - 1))
	return l.chunks[off>>memChunkBits][in : in+n]
}

// A logMark is where the log ended; undo takes the log back to it.
type logMark struct{ chunks, last int }

func (l *memLog) mark() logMark {
	m := logMark{chunks: len(l.chunks)}
	if m.chunks > 0 {
		m.last = len(l.chunks[m.chunks-1])
	}
	return m
}

func (l *memLog) undo(m logMark) {
	clear(l.chunks[m.chunks:])
	l.chunks = l.chunks[:m.chunks]
	if m.chunks > 0 {
		l.chunks[m.chunks-1] = l.chunks[m.chunks-1][:m.last]
	}
}

// Apply logs ops as one group record — a single write, replayed all or
// nothing — and then applies them in order to the in-memory view. Values are
// copied, or for a spilled table referenced where the log holds them; ops
// and its buffers are not retained. A rewritten key's copy goes into the
// buffer the key already holds, grown with headroom when it is short; a new
// key's copy is exact. Put and Delete are the one-op case.
//
// A failed write is cut back off the log, so the next group follows the last
// complete one; if it cannot be, this and every later Apply fail, since a
// group written behind a torn one would be dropped by the next Open. A group
// with a spilled value whose reference would not fit one word fails before
// anything is written.
func (s *Store) Apply(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil {
		return ErrClosed
	}
	if s.broken != nil {
		return s.broken
	}
	if len(ops) == 0 {
		return nil
	}
	if s.f != nil {
		s.wbuf, s.voffs = appendGroup(s.wbuf[:0], s.voffs[:0], ops)
		if len(s.wbuf)-groupHeaderLen > maxGroupBody {
			return fmt.Errorf("store: group of %d ops exceeds %d bytes", len(ops), maxGroupBody)
		}
	}
	if err := s.place(ops); err != nil {
		return err
	}
	if s.f != nil {
		if _, err := s.log.Write(s.wbuf); err != nil {
			return s.cutBack(err)
		}
		s.end += int64(len(s.wbuf))
	}
	for i := range ops {
		op := &ops[i]
		if p := s.placed[i]; p.refs != nil {
			if op.Delete {
				delete(p.refs, op.Key)
			} else {
				p.refs[op.Key] = p.ref
			}
			continue
		}
		var v []byte
		if !op.Delete {
			old, rewrite := s.tables[op.Table][op.Key]
			if rewrite {
				v = append(old[:0], op.Value...)
			} else {
				v = append([]byte(nil), op.Value...)
			}
		}
		s.apply(op.Table, op.Key, v, op.Delete)
	}
	s.writes += int64(len(ops))
	return nil
}

// place sets s.placed[i] to where ops[i] goes: for a put to a spilled
// table, where the group record about to be written holds the value, on a
// file store, or where the memory log now does. If a reference does not
// fit, it fails and leaves the memory log as it was. Caller holds s.mu and,
// on a file store, has encoded the group.
func (s *Store) place(ops []Op) error {
	s.placed = slices.Grow(s.placed[:0], len(ops))[:len(ops)]
	mark := s.mem.mark()
	for i := range ops {
		op, p := &ops[i], &s.placed[i]
		if p.refs = s.refs[op.Table]; p.refs == nil || op.Delete {
			continue
		}
		var ok bool
		if s.f != nil {
			p.ref, ok = packRef(s.end+int64(s.voffs[i]), len(op.Value))
		} else {
			p.ref, ok = s.mem.add(op.Value)
		}
		if !ok {
			s.mem.undo(mark)
			return fmt.Errorf("store: put %s/%s: %d bytes do not fit a reference into the log", op.Table, op.Key, len(op.Value))
		}
	}
	return nil
}

// cutBack truncates what a failed group write left behind the last complete
// group and returns the write's error; if the log cannot be cut back, it
// marks the store broken.
func (s *Store) cutBack(werr error) error {
	err := s.f.Truncate(s.end)
	if err == nil {
		_, err = s.f.Seek(s.end, io.SeekStart)
	}
	if err != nil {
		s.broken = fmt.Errorf("store: %s: cannot cut back a failed group write (%v): %w", s.path, werr, err)
		return s.broken
	}
	return fmt.Errorf("store: write group: %w", werr)
}

// Put writes value under table/key. The value is copied.
func (s *Store) Put(table, key string, value []byte) error {
	ops := [1]Op{{Table: table, Key: key, Value: value}}
	return s.Apply(ops[:])
}

// Delete removes table/key; deleting an absent key is a no-op that is still
// logged (so replay remains deterministic).
func (s *Store) Delete(table, key string) error {
	ops := [1]Op{{Table: table, Key: key, Delete: true}}
	return s.Apply(ops[:])
}

// Get returns a copy of the value at table/key; a spilled value the log
// cannot give back reads as missing (Load reports it).
func (s *Store) Get(table, key string) ([]byte, bool) {
	v, ok, err := s.Load(table, key)
	return v, ok && err == nil
}

// Load returns a copy of the value at table/key, and whether the key is
// there; a spilled value the log cannot give back is there, with an error.
func (s *Store) Load(table, key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if refs := s.refs[table]; refs != nil {
		ref, ok := refs[key]
		if !ok {
			return nil, false, nil
		}
		v, err := s.read(ref)
		return v, true, err
	}
	v, ok := s.tables[table][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Keys returns the sorted keys of a table.
func (s *Store) Keys(table string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if refs := s.refs[table]; refs != nil {
		return sortedKeys(refs)
	}
	return sortedKeys(s.tables[table])
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Scan calls fn for each key/value of a table in sorted key order, stopping
// early if fn returns false.
func (s *Store) Scan(table string, fn func(key string, value []byte) bool) {
	for _, k := range s.Keys(table) {
		v, ok := s.Get(table, k)
		if !ok {
			continue
		}
		if !fn(k, v) {
			return
		}
	}
}

// Len returns the number of live keys in a table.
func (s *Store) Len(table string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables[table]) + len(s.refs[table])
}

// Writes returns the number of logged mutations (including replayed ones),
// a cheap proxy for persistence I/O in experiments.
func (s *Store) Writes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writes
}

// Compact rewrites the log as a minimal snapshot of the live state: a file
// store's file, or the memory log of a memory store's spilled tables. A
// failed Compact leaves the log and every reference as they were.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil {
		return ErrClosed
	}
	if s.f == nil {
		return s.compactMemory()
	}
	tmp := s.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	var end int64
	var moved map[string]map[string]uint64
	if moved, err = s.writeSnapshot(f); err == nil {
		err = f.Sync()
	}
	if err == nil {
		end, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = os.Rename(tmp, s.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	s.f.Close()
	s.f, s.log, s.end, s.broken = f, f, end, nil
	maps.Copy(s.refs, moved)
	return nil
}

// compactMemory copies the live spilled values into a new memory log and
// moves their references there. Caller holds s.mu.
func (s *Store) compactMemory() error {
	var l memLog
	moved := make(map[string]map[string]uint64, len(s.refs))
	for t, refs := range s.refs {
		m := make(map[string]uint64, len(refs))
		for k, ref := range refs {
			var ok bool
			if m[k], ok = l.add(s.mem.at(ref)); !ok {
				return errors.New("store: compact: the memory log is full")
			}
		}
		moved[t] = m
	}
	s.mem = l
	maps.Copy(s.refs, moved)
	return nil
}

// writeSnapshot writes the header and the live state to f, one group per key
// in sorted table/key order, and returns the spilled tables with references
// into f. Caller holds s.mu.
func (s *Store) writeSnapshot(f *os.File) (map[string]map[string]uint64, error) {
	if err := writeHeader(f); err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	off := int64(headerLen)
	moved := make(map[string]map[string]uint64, len(s.refs))
	tables := append(sortedKeys(s.tables), sortedKeys(s.refs)...)
	sort.Strings(tables)
	for _, t := range tables {
		refs, keys := s.refs[t], sortedKeys(s.tables[t])
		if refs != nil {
			keys = sortedKeys(refs)
			moved[t] = make(map[string]uint64, len(refs))
		}
		for _, k := range keys {
			v := s.tables[t][k]
			if refs != nil {
				var err error
				if v, err = s.read(refs[k]); err != nil {
					return nil, err
				}
			}
			s.wbuf, s.voffs = appendGroup(s.wbuf[:0], s.voffs[:0], []Op{{Table: t, Key: k, Value: v}})
			if _, err := w.Write(s.wbuf); err != nil {
				return nil, err
			}
			if refs != nil {
				ref, ok := packRef(off+int64(s.voffs[0]), len(v))
				if !ok {
					return nil, fmt.Errorf("store: %s/%s: %d bytes at log offset %d do not fit a reference", t, k, len(v), off+int64(s.voffs[0]))
				}
				moved[t][k] = ref
			}
			off += int64(len(s.wbuf))
		}
	}
	return moved, w.Flush()
}

// Sync flushes the backing file.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	return s.f.Sync()
}

// Close releases the backing file. Further mutations fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables, s.refs, s.mem = nil, nil, memLog{}
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}
