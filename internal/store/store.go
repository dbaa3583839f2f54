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
	path   string   // empty for memory-only stores
	f      *os.File // nil for memory-only stores
	tables map[string]map[string][]byte
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

	// A spilled table keeps, per key, only where its value lies in the log.
	spill map[string]bool
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

// spillRefLen is the in-memory footprint of a spilled value: the 8-byte log
// offset of its bytes plus a 4-byte length. Within a spilled table every
// resident value is a reference, so no sentinel byte is needed to tell them
// apart.
const spillRefLen = 12

// Spill leaves in memory only a 12-byte reference to where each of a
// table's values lies in the log, and keeps the table so: a later put's
// reference points into its own group record, Compact moves the references
// to the values it rewrites, and reads fetch the bytes back with ReadAt.
// The log holds every value already, so Spill writes nothing; on a store
// that holds the table's values, it finds them in one pass over the log.
//
// Spill keeps resident memory flat when a table grows without bound (the
// instance archive under a sustained workload stream). It is a no-op for
// memory-only stores, which have no log.
func (s *Store) Spill(table string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil {
		return ErrClosed
	}
	if s.f == nil || s.spill[table] {
		return nil
	}
	if tbl := s.tables[table]; len(tbl) > 0 {
		// A live value lies where its key's last put wrote it.
		refs := make(map[string][]byte, len(tbl))
		r := bufio.NewReaderSize(io.NewSectionReader(s.f, int64(headerLen), s.end-int64(headerLen)), 1<<16)
		end := readGroups(r, int64(headerLen), func(ops []Op, voffs []int64) {
			for i, op := range ops {
				switch {
				case op.Table != table:
				case op.Delete:
					delete(refs, op.Key)
				default:
					refs[op.Key] = putRef(refs[op.Key], voffs[i], len(op.Value))
				}
			}
		})
		if end != s.end || len(refs) != len(tbl) {
			return fmt.Errorf("store: spill %s: the log to %d holds %d live values, the table %d", table, end, len(refs), len(tbl))
		}
		s.tables[table] = refs
	}
	if s.spill == nil {
		s.spill = make(map[string]bool)
	}
	s.spill[table] = true
	return nil
}

// putRef writes the reference to n bytes at log offset off into ref, if it
// is one, else into a new one, and returns it.
func putRef(ref []byte, off int64, n int) []byte {
	if len(ref) != spillRefLen {
		ref = make([]byte, spillRefLen)
	}
	binary.LittleEndian.PutUint64(ref[0:8], uint64(off))
	binary.LittleEndian.PutUint32(ref[8:12], uint32(n))
	return ref
}

// readSpill dereferences a spilled value. Caller holds s.mu (read or write).
func (s *Store) readSpill(ref []byte) ([]byte, error) {
	if len(ref) != spillRefLen {
		return nil, fmt.Errorf("store: %s: corrupt spill reference (%d bytes)", s.path, len(ref))
	}
	off := int64(binary.LittleEndian.Uint64(ref[0:8]))
	buf := make([]byte, binary.LittleEndian.Uint32(ref[8:12]))
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("store: %s: read the %d-byte value at %d: %w", s.path, len(buf), off, err)
	}
	return buf, nil
}

// Apply logs ops as one group record — a single write, replayed all or
// nothing — and then applies them in order to the in-memory view. Values are
// copied, or for a spilled table referenced where the group record holds
// them; ops and its buffers are not retained. A rewritten key's copy goes
// into the buffer the key already holds, grown with headroom when it is
// short; a new key's copy is exact. Put and Delete are the one-op case.
//
// A failed write is cut back off the log, so the next group follows the last
// complete one; if it cannot be, this and every later Apply fail, since a
// group written behind a torn one would be dropped by the next Open.
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
	base := s.end
	if s.f != nil {
		s.wbuf, s.voffs = appendGroup(s.wbuf[:0], s.voffs[:0], ops)
		if len(s.wbuf)-groupHeaderLen > maxGroupBody {
			return fmt.Errorf("store: group of %d ops exceeds %d bytes", len(ops), maxGroupBody)
		}
		if _, err := s.log.Write(s.wbuf); err != nil {
			return s.cutBack(err)
		}
		s.end += int64(len(s.wbuf))
	}
	for i := range ops {
		op := &ops[i]
		var v []byte
		switch {
		case op.Delete:
		case s.spill[op.Table]:
			v = putRef(s.tables[op.Table][op.Key], base+int64(s.voffs[i]), len(op.Value))
		default:
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
	v, ok := s.tables[table][key]
	switch {
	case !ok:
		return nil, false, nil
	case s.spill[table]:
		val, err := s.readSpill(v)
		return val, true, err
	}
	return append([]byte(nil), v...), true, nil
}

// Keys returns the sorted keys of a table.
func (s *Store) Keys(table string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tbl := s.tables[table]
	keys := make([]string, 0, len(tbl))
	for k := range tbl {
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
	return len(s.tables[table])
}

// Writes returns the number of logged mutations (including replayed ones),
// a cheap proxy for persistence I/O in experiments.
func (s *Store) Writes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writes
}

// Compact rewrites the log as a minimal snapshot of the live state. File-
// backed stores only; a no-op for memory stores.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	tmp := s.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	var end int64
	var moved map[string]map[string][]byte
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
	maps.Copy(s.tables, moved)
	return nil
}

// writeSnapshot writes the header and the live state to f, one group per key
// in sorted table/key order, and returns the spilled tables with references
// into f. Caller holds s.mu.
func (s *Store) writeSnapshot(f *os.File) (map[string]map[string][]byte, error) {
	if err := writeHeader(f); err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	off := int64(headerLen)
	moved := make(map[string]map[string][]byte, len(s.spill))
	tables := make([]string, 0, len(s.tables))
	for t := range s.tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		keys := make([]string, 0, len(s.tables[t]))
		for k := range s.tables[t] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if s.spill[t] {
			moved[t] = make(map[string][]byte, len(keys))
		}
		for _, k := range keys {
			v := s.tables[t][k]
			if s.spill[t] {
				var err error
				if v, err = s.readSpill(v); err != nil {
					return nil, err
				}
			}
			s.wbuf, s.voffs = appendGroup(s.wbuf[:0], s.voffs[:0], []Op{{Table: t, Key: k, Value: v}})
			if _, err := w.Write(s.wbuf); err != nil {
				return nil, err
			}
			if s.spill[t] {
				moved[t][k] = putRef(nil, off+int64(s.voffs[0]), len(v))
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
	s.tables = nil
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}
