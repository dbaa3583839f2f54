package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is attributed to layers by walking each sample's stack from
// the leaf towards the root and charging the sample to the first frame that
// belongs to a bucket: a first-party package, the allocator, the collector,
// the scheduler, encoding/json or the syscall boundary. Frames of other
// libraries (strconv, sort, sync, maps, memmove) pass through, so their time
// lands on the package that called them.

// stackSample is one profile sample: function names leaf first, and its
// sample count.
type stackSample struct {
	stack []string
	count int64
}

// bucketOfFrame names the bucket a function belongs to, or "" when the frame
// passes through to its caller.
func bucketOfFrame(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may carry package paths of their own
	}
	// The package path ends at the first dot after the last slash.
	pkg := fn
	slash := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[slash:], '.'); i >= 0 {
		pkg = fn[:slash+i]
	}
	switch {
	case strings.HasPrefix(pkg, "crew/internal/"):
		layer := strings.TrimPrefix(pkg, "crew/internal/")
		if i := strings.IndexByte(layer, '/'); i >= 0 {
			layer = layer[:i]
		}
		for _, b := range cpuBuckets {
			if b == layer {
				return layer
			}
		}
		if layer == "workload" {
			return "driver" // the generated step programs are benchmark input
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "crew/bench"):
		return "driver"
	case pkg == "crew":
		return "" // the facade forwards to the architecture packages
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "os" || pkg == "net" ||
		pkg == "internal/syscall/unix":
		// The raw trap (internal/runtime/syscall) passes through: under
		// package syscall it lands here, under the netpoller on the scheduler.
		return "syscall"
	case pkg == "runtime":
		return runtimeBucket(strings.TrimPrefix(fn, "runtime."))
	}
	return ""
}

// runtimeBucket sorts a runtime function into collector, allocator or
// scheduler. Anything else in the runtime (map access, memmove, channel
// operations that do not block) is work done for the caller.
func runtimeBucket(name string) string {
	has := func(subs ...string) bool {
		for _, s := range subs {
			if strings.Contains(name, s) {
				return true
			}
		}
		return false
	}
	switch {
	case strings.HasPrefix(name, "gc") || strings.HasPrefix(name, "(*gc") ||
		has("scanobject", "scanblock", "scanstack", "markroot", "greyobject", "sweep",
			"scavenge", "wbBuf", "findObject", "(*mheap).reclaim", "(*limiterEvent)",
			"(*markBits)", "(*mspan).markBits", "tryDeferToSpanScan", "spanQueue"):
		return "runtime_gc"
	case strings.HasPrefix(name, "malloc") ||
		has("newobject", "newarray", "makeslice", "growslice", "(*mcache)", "(*mcentral)",
			"(*mheap).alloc", "nextFree", "heapSetType", "writeHeapBits", "profilealloc",
			"deductAssistCredit", "(*mspan).init", "publicationBarrier"):
		return "runtime_malloc"
	case has("schedule", "findRunnable", "park_m", "mcall", "gopark", "goready", "ready",
		"futex", "notesleep", "notewakeup", "notetsleep", "startm", "stopm", "wakep",
		"handoffp", "runq", "stealWork", "netpoll", "usleep", "osyield", "procyield",
		"execute", "gosched", "goexit", "mstart", "resetspinning", "checkTimers",
		"(*timers)", "(*timer)", "lock2", "unlock2", "sema", "casgstatus", "acquirep",
		"releasep", "pidle", "mPark", "newproc", "gfget", "gfput", "injectglist",
		"globrunq", "mget", "mput", "wakeNetPoller"):
		return "runtime_sched"
	}
	return ""
}

// bucketOfStack charges a whole stack (leaf first).
func bucketOfStack(stack []string) string {
	for _, fn := range stack {
		if b := bucketOfFrame(fn); b != "" {
			return b
		}
	}
	return "other"
}

// cpuShares reduces samples to each bucket's share of all samples.
func cpuShares(samples []stackSample) map[string]float64 {
	counts := make(map[string]int64)
	var total int64
	for _, s := range samples {
		counts[bucketOfStack(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares
}

// parseProfile decodes the samples of a gzipped pprof protobuf
// (runtime/pprof's output). It reads only what attribution needs: samples'
// location ids and first value, locations' lines, functions' names and the
// string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		functions = map[uint64]uint64{}   // function id -> name index
		strs      []string
	)
	err = eachField(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			gotValue := false
			err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					ids, err := uints(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: the first is the sample count
					vals, err := uints(v, b)
					if !gotValue && len(vals) > 0 {
						s.count, gotValue = int64(vals[0]), true
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locations[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			functions[id] = name
		case 6: // string_table
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				if idx := functions[fn]; idx < uint64(len(strs)) {
					st.stack = append(st.stack, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive in varint,
// length-delimited ones in body; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			msg = msg[width:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// uints decodes a repeated integer field, packed (body) or not (varint).
func uints(varint uint64, body []byte) ([]uint64, error) {
	if body == nil {
		return []uint64{varint}, nil
	}
	var out []uint64
	for len(body) > 0 {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		body = body[n:]
	}
	return out, nil
}
