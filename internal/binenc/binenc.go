// Package binenc holds the primitives of the binary formats. Every wire
// payload, WFDB row and type they share is declared once, by a Walk method
// that a Walker runs to encode or to decode it; the fixed layouts (WAL group
// records, frame headers, the hub's HELLO/WELCOME/EXEC frames) use the Append
// functions and the Reader directly. Writers append into a caller-owned
// buffer and never allocate beyond its growth; a Reader consumes a byte slice
// front to back, failing with ErrMalformed instead of panicking on anything a
// torn or hostile input can contain.
//
// Integers are varints, strings and byte runs are uvarint-length-prefixed,
// sequences are a uvarint count followed by the entries. A walker given a
// name table (Names) writes map keys and string sequences as indexes into it.
package binenc

import (
	"cmp"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
)

// ErrMalformed reports input that is truncated or structurally invalid.
var ErrMalformed = errors.New("binenc: malformed or truncated input")

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends a 0/1 byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a length-prefixed byte run.
func AppendBytes(dst, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// AppendInt appends a signed integer.
func AppendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// Reader consumes a byte slice front to back. The first read the input
// cannot satisfy sets the error and empties the reader; every later read
// returns a zero value, so a decoder reads a whole structure and checks
// Done once. The zero Reader reads the empty input.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over b. Results of Bytes alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset points the reader at b and clears its error, so a receive loop
// decodes every frame through one Reader.
func (r *Reader) Reset(b []byte) { r.b, r.err = b, nil }

// Fail marks the input malformed; decoders call it for a value that read
// but is out of range.
func (r *Reader) Fail() {
	r.b, r.err = nil, ErrMalformed
}

// Done reports the first failed read, or ErrMalformed if input is left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail()
	}
	return r.err
}

// More reports whether input is left and no read has failed: a sequence
// that runs to the end of its input is read while More holds.
func (r *Reader) More() bool { return r.err == nil && len(r.b) != 0 }

// Len reports how many bytes of input are left.
func (r *Reader) Len() int { return len(r.b) }

// Err reports the first failed read. Unlike Done it accepts input left over,
// for a reader that takes only a prefix.
func (r *Reader) Err() error { return r.err }

// Uvarint reads an unsigned integer.
func (r *Reader) Uvarint() uint64 {
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[w:]
	return v
}

// Int reads a signed integer written by AppendInt.
func (r *Reader) Int() int {
	v, w := binary.Varint(r.b)
	if w <= 0 || v < math.MinInt || v > math.MaxInt {
		r.Fail()
		return 0
	}
	r.b = r.b[w:]
	return int(v)
}

// Fixed reads n raw bytes. The result aliases the input.
func (r *Reader) Fixed(n int) []byte {
	if n > len(r.b) {
		r.Fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if v := r.Fixed(1); v != nil {
		return v[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Fail()
	}
	return v == 1
}

// Bytes reads a length-prefixed byte run. The result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.Fail()
		return nil
	}
	return r.Fixed(int(n))
}

// Str reads a length-prefixed string (copied out of the input).
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count reads the declared length of a sequence whose entries each occupy at
// least minEntry bytes, rejecting a count the remaining input cannot hold —
// so a decoder may size its allocation from the result, and a loop over it
// is bounded by the input even after a failed read.
func (r *Reader) Count(minEntry int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minEntry) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Walkable is a type declared by its walk: Walk names each field once, in
// order, on the primitives of w, and so both writes and reads the type.
type Walkable interface{ Walk(w *Walker) }

// Walker runs walks. In encode mode (Encode) each primitive appends its field
// to the output; in decode mode (Decode) it reads the field and stores it, by
// the Reader's rules: the first read the input cannot satisfy fails the
// walker, every later read yields a zero value, so a walk runs to its end and
// the caller checks Done once. A walk asks Decoding only to allocate what it
// decodes into or to range-check what it read, and writes to its value only
// when decoding, so an encode reads a value that may be shared.
//
// An encode appends to the caller's buffer and sorts map keys in the
// walker's scratch, so a warm walker encodes without allocating. A walker is
// not safe for concurrent use: its owner (a connection, a batch) reuses one.
//
// A walker has one name slot (SetNames). With a table in it, Map's keys,
// Strings' entries and Name write each name as a uvarint k: k > 0 is the
// table's name k-1, and 0 is followed by the name as a string. Without one
// they are plain strings.
type Walker struct {
	decoding bool
	out      []byte
	keys     []rankedKey // Map's sort scratch, a stack for nested maps
	names    *Names
	in       Reader
}

// SetNames puts a name table in the walker's slot; nil empties it.
func (w *Walker) SetNames(n *Names) { w.names = n }

// Names returns the table in the walker's slot, or nil.
func (w *Walker) Names() *Names { return w.names }

// Encode puts w in encode mode, appending to dst; Bytes returns the output.
func (w *Walker) Encode(dst []byte) { w.decoding, w.out = false, dst }

func (w *Walker) Bytes() []byte { return w.out }

// Decode puts w in decode mode, reading b.
func (w *Walker) Decode(b []byte) {
	w.decoding = true
	w.in.Reset(b)
}

func (w *Walker) Decoding() bool { return w.decoding }

// Reader returns the decode input, for a layout read in place (a frame
// header whose names alias the input).
func (w *Walker) Reader() *Reader { return &w.in }

// Fail marks the input malformed, for a value that read but is out of range.
func (w *Walker) Fail() { w.in.Fail() }

// Done reports the first failed read, or ErrMalformed if input is left over.
func (w *Walker) Done() error { return w.in.Done() }

// Append encodes v after dst, and Read decodes all of b into v.
func (w *Walker) Append(dst []byte, v Walkable) []byte {
	w.Encode(dst)
	v.Walk(w)
	return w.out
}

func (w *Walker) Read(b []byte, v Walkable) error {
	w.Decode(b)
	v.Walk(w)
	return w.Done()
}

// The primitives: a length-prefixed string (copied out of the input), a
// signed integer, a 0/1 byte, one byte, a float as its 8 IEEE 754 bytes
// little-endian.

func (w *Walker) String(v *string) {
	if w.decoding {
		*v = w.in.Str()
		return
	}
	w.out = AppendString(w.out, *v)
}

func (w *Walker) Int(v *int) {
	if w.decoding {
		*v = w.in.Int()
		return
	}
	w.out = binary.AppendVarint(w.out, int64(*v))
}

// Uint walks an unsigned integer as a uvarint.
func (w *Walker) Uint(v *uint64) {
	if w.decoding {
		*v = w.in.Uvarint()
		return
	}
	w.out = binary.AppendUvarint(w.out, *v)
}

// Int64 walks an integer that fits an int, in Int's form.
func (w *Walker) Int64(v *int64) {
	if w.decoding {
		*v = int64(w.in.Int())
		return
	}
	w.out = binary.AppendVarint(w.out, *v)
}

func (w *Walker) Bool(v *bool) {
	if w.decoding {
		*v = w.in.Bool()
		return
	}
	w.out = AppendBool(w.out, *v)
}

func (w *Walker) Byte(v *byte) {
	if w.decoding {
		*v = w.in.Byte()
		return
	}
	w.out = append(w.out, *v)
}

func (w *Walker) Float64(v *float64) {
	if !w.decoding {
		w.out = binary.LittleEndian.AppendUint64(w.out, math.Float64bits(*v))
	} else if b := w.in.Fixed(8); b != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// Name walks a name through the walker's name slot.
func (w *Walker) Name(v *string) {
	if w.decoding {
		*v = w.name()
		return
	}
	w.putName(*v, w.names.Rank(*v))
}

// putName writes a name whose rank in the slot's table is r.
func (w *Walker) putName(s string, r uint64) {
	switch {
	case w.names == nil:
	case r == literal:
		w.out = append(w.out, 0)
	default:
		w.out = binary.AppendUvarint(w.out, r)
		return
	}
	w.out = AppendString(w.out, s)
}

// name reads a name written by putName. An indexed name is the table's
// string, not a copy.
func (w *Walker) name() string {
	if w.names == nil {
		return w.in.Str()
	}
	k := w.in.Uvarint()
	switch {
	case k == 0:
		return w.in.Str()
	case k > uint64(len(w.names.list)):
		w.in.Fail()
		return ""
	}
	return w.names.list[k-1]
}

// Raw appends bytes a walk encoded earlier; encode mode only.
func (w *Walker) Raw(b []byte) { w.out = append(w.out, b...) }

// Len walks the count of a sequence whose entries each occupy at least
// minEntry bytes: it writes n, or reads a count the remaining input can hold
// (Reader.Count), so a walk may size an allocation from the result.
func (w *Walker) Len(n, minEntry int) int {
	if w.decoding {
		return w.in.Count(minEntry)
	}
	w.out = binary.AppendUvarint(w.out, uint64(n))
	return n
}

// Present walks the presence byte of an optional field and reports whether
// *p is there; decoding one that is, it points *p at a fresh T to walk.
func Present[T any](w *Walker, p **T) bool {
	ok := *p != nil
	w.Bool(&ok)
	if ok && w.decoding {
		*p = new(T)
	}
	return ok
}

// Strings walks a sequence of strings: the count, then each string through
// the name slot. An empty sequence decodes as nil.
func Strings[S ~string](w *Walker, v *[]S) {
	n := w.Len(len(*v), 1)
	if !w.decoding {
		for _, s := range *v {
			w.putName(string(s), w.names.Rank(string(s)))
		}
		return
	}
	if n > 0 {
		*v = make([]S, n)
	}
	for i := range *v {
		(*v)[i] = S(w.name())
	}
}

// smallMap is the most entries Map sorts on the stack.
const smallMap = 16

// rankedKey is a map key and its rank, in Map's sort scratch.
type rankedKey struct {
	rank uint64
	key  string
}

// Map walks a map with string keys: the count, then each key, through the
// name slot, and its value. Keys go out by rank, then by name: with no table
// every rank is 0, so in name order; with one, indexed names in table order,
// then the literals in name order. Equal maps thus encode to equal bytes
// whatever Go's map order. value walks one value: given the map's when
// encoding, a zero one when decoding, it returns what it read. Each entry
// occupies at least minEntry bytes. An empty map decodes as nil.
func Map[K ~string, V any](w *Walker, m *map[K]V, minEntry int, value func(w *Walker, v V) V) {
	MapKeyed(w, m, minEntry, func(w *Walker, _ K, v V) V { return value(w, v) })
}

// MapKeyed is Map whose value callback is also given the entry's key, for a
// value whose form depends on it.
//
// A map of up to smallMap entries is encoded in one pass over it, its
// entries insertion-sorted in stack arrays; a larger one sorts its keys in
// the walker's scratch and looks each value up.
func MapKeyed[K ~string, V any](w *Walker, m *map[K]V, minEntry int, value func(w *Walker, k K, v V) V) {
	if w.decoding {
		n := w.in.Count(minEntry)
		if n == 0 {
			return
		}
		dec := make(map[K]V, n)
		for ; n > 0; n-- {
			k := K(w.name())
			var zero V
			dec[k] = value(w, k, zero)
		}
		*m = dec
		return
	}
	switch n := len(*m); {
	case n == 0:
		w.out = append(w.out, 0)
		return
	case n == 1:
		for k, v := range *m {
			w.out = append(w.out, 1)
			w.putName(string(k), w.names.Rank(string(k)))
			value(w, k, v)
		}
		return
	case n <= smallMap:
		var keys [smallMap]rankedKey
		var vals [smallMap]V
		i := 0
		for k, v := range *m {
			rk := rankedKey{w.names.Rank(string(k)), string(k)}
			j := i
			for ; j > 0 && rk.compare(keys[j-1]) < 0; j-- {
				keys[j], vals[j] = keys[j-1], vals[j-1]
			}
			keys[j], vals[j] = rk, v
			i++
		}
		w.out = binary.AppendUvarint(w.out, uint64(n))
		for i := range n {
			w.putName(keys[i].key, keys[i].rank)
			value(w, K(keys[i].key), vals[i])
		}
		return
	}
	// The keys are sorted on top of the scratch: a map nested in a value
	// sorts its own above them and gives the space back when it is done.
	base := len(w.keys)
	for k := range *m {
		w.keys = append(w.keys, rankedKey{w.names.Rank(string(k)), string(k)})
	}
	keys := w.keys[base:]
	slices.SortFunc(keys, rankedKey.compare)
	w.out = binary.AppendUvarint(w.out, uint64(len(keys)))
	for _, k := range keys {
		w.putName(k.key, k.rank)
		value(w, K(k.key), (*m)[K(k.key)])
	}
	w.keys = w.keys[:base]
}

func (a rankedKey) compare(b rankedKey) int {
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// Names is a name table: the names a walker given it (SetNames) writes as
// indexes. It is built once and only read after, so walkers on any goroutine
// may share it.
type Names struct {
	list   []string
	index  map[string]uint64 // a name's position in list, plus one
	digest uint64
}

// literal is the rank of a name the table does not hold: it sorts after
// every indexed one and is written as a string.
const literal = math.MaxUint64

// NewNames builds the table of names, in their order, each kept once.
func NewNames(names []string) *Names {
	n := &Names{list: make([]string, 0, len(names)), index: make(map[string]uint64, len(names))}
	h := fnv.New64a()
	for _, s := range names {
		if _, dup := n.index[s]; dup {
			continue
		}
		n.list = append(n.list, s)
		n.index[s] = uint64(len(n.list))
		h.Write(AppendString(nil, s))
	}
	if len(n.list) > 0 {
		n.digest = max(h.Sum64(), 1)
	}
	return n
}

// Digest identifies the table by its names and their order: an FNV-1a hash
// of the names, each length-prefixed, never 0 but for the empty table.
func (n *Names) Digest() uint64 { return n.digest }

// List returns the names in table order; the caller must not change it.
func (n *Names) List() []string { return n.list }

// Rank orders names as Map writes them, by rank and then by name: s's
// position in the table plus one, MaxUint64 if the table does not hold it,
// and 0 for every name with no table (n nil).
func (n *Names) Rank(s string) uint64 {
	if n == nil {
		return 0
	}
	if k, ok := n.index[s]; ok {
		return k
	}
	return literal
}
