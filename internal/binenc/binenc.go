// Package binenc holds the append/read primitives of the binary formats:
// WAL group records (internal/store), WFDB rows (internal/wfdb, with the
// value and event-table sections owned by internal/expr and internal/event)
// and the wire frames and payloads of internal/transport. Writers append into
// a caller-owned buffer and never allocate beyond its growth; a Reader
// consumes a byte slice front to back, failing with ErrMalformed instead of
// panicking on anything a torn or hostile input can contain.
//
// Integers are varints, strings and byte runs are uvarint-length-prefixed,
// sequences are a uvarint count followed by the entries.
package binenc

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrMalformed reports input that is truncated or structurally invalid.
var ErrMalformed = errors.New("binenc: malformed or truncated input")

// AppendString appends a length-prefixed string.
//
//crew:hotpath
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends a 0/1 byte.
//
//crew:hotpath
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a length-prefixed byte run.
//
//crew:hotpath
func AppendBytes(dst, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// AppendInt appends a signed integer.
//
//crew:hotpath
func AppendInt(dst []byte, v int) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// AppendStrings appends a sequence of strings: the count, then each string.
//
//crew:hotpath
func AppendStrings[S ~string](dst []byte, v []S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, s := range v {
		dst = AppendString(dst, string(s))
	}
	return dst
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

// Strings reads a sequence written by AppendStrings; an empty one reads as
// nil.
func Strings[S ~string](r *Reader) []S {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	v := make([]S, n)
	for i := range v {
		v[i] = S(r.Str())
	}
	return v
}
