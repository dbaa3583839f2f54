package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// Traced-run shape: one set-up, then rounds of an untraced saturation
// segment, a traced one and a traced serial one (alternating, so a slow
// stretch of the machine hits both sides of the overhead figure). A CPU
// profile and the runtime counters run over the traced saturation segments
// only. What this saves against the end-to-end run (four set-ups and three
// fifths of the serial segments) pays for the ungated legs and the layer
// timings.
const (
	tracedRounds = 18
	legInstances = 1500 // per ungated leg, at nominalSeconds
)

// runtimeWindow accumulates Go runtime counters over the traced saturation
// segments.
type runtimeWindow struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcCPU          float64 // seconds
	sched          []uint64
	schedBuckets   []float64
	peakGoroutines int

	stop chan struct{}
	done sync.WaitGroup
	m0   runtime.MemStats
	s0   []runtimemetrics.Sample
}

var runtimeSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/sched/latencies:seconds"}

func readRuntime() []runtimemetrics.Sample {
	s := make([]runtimemetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	runtimemetrics.Read(s)
	return s
}

func (w *runtimeWindow) open() {
	runtime.ReadMemStats(&w.m0)
	w.s0 = readRuntime()
	w.stop = make(chan struct{})
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > w.peakGoroutines {
					w.peakGoroutines = n
				}
			}
		}
	}()
}

func (w *runtimeWindow) close() {
	close(w.stop)
	w.done.Wait()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	s1 := readRuntime()
	w.mallocs += m1.Mallocs - w.m0.Mallocs
	w.bytes += m1.TotalAlloc - w.m0.TotalAlloc
	w.gcCycles += m1.NumGC - w.m0.NumGC
	w.gcCPU += s1[0].Value.Float64() - w.s0[0].Value.Float64()
	h0, h1 := w.s0[1].Value.Float64Histogram(), s1[1].Value.Float64Histogram()
	if w.sched == nil {
		w.sched = make([]uint64, len(h1.Counts))
		w.schedBuckets = h1.Buckets
	}
	for i := range h1.Counts {
		w.sched[i] += h1.Counts[i] - h0.Counts[i]
	}
}

// schedLatencyP99 is the 99th percentile of the time goroutines spent
// runnable before running, in microseconds (upper bucket edge).
func (w *runtimeWindow) schedLatencyP99() float64 {
	var total uint64
	for _, c := range w.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, c := range w.sched {
		seen += c
		if float64(seen) >= 0.99*float64(total) {
			edge := w.schedBuckets[i+1]
			if math.IsInf(edge, 1) { // the last bucket is open-ended
				edge = w.schedBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}

// tracedRun produces every per-layer metric.
func (r *run) tracedRun(traceDir string) (*result, error) {
	sp := r.sp
	res := &result{Workload: sp.Name, Seed: r.seed, Traced: true, Metrics: map[string]float64{}}
	m := res.Metrics
	warm, satN, serN := sp.counts(scaleFor(r.seconds))

	d, _, err := r.setUp(sp, warm, res)
	if err != nil {
		return nil, err
	}
	defer d.close()
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(d.dir, "central.db"))
		if err != nil {
			return 0 // no file-backed WFDB on this workload
		}
		return fi.Size()
	}

	base, wal0, stat0 := d.counters(), walSize(), readProcStat()
	var untraced, traced, serial []segment
	var profiles [][]byte
	var samples []stackSample
	var win runtimeWindow
	// Like the end-to-end run, every segment starts from an idle system and
	// is followed by a slice of the reference kernel.
	idle := func() error {
		if err := d.settle(); err != nil {
			return fmt.Errorf("quiesce between segments: %w", err)
		}
		r.mach.slice()
		return nil
	}
	tracedSat := func() error {
		win.open()
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		traced = append(traced, d.drive(saturationClients, satN, true))
		pprof.StopCPUProfile()
		win.close()
		segSamples, err := parseProfile(buf.Bytes())
		if err != nil {
			return err
		}
		samples = append(samples, segSamples...)
		profiles = append(profiles, buf.Bytes())
		return idle()
	}
	for i := 0; i < tracedRounds; i++ {
		untraced = append(untraced, d.drive(saturationClients, satN, false))
		if err := idle(); err != nil {
			return nil, err
		}
		if err := tracedSat(); err != nil {
			return nil, err
		}
		serial = append(serial, d.drive(1, serN, true))
		if err := idle(); err != nil {
			return nil, err
		}
	}
	res.count(untraced...)
	res.count(traced...)
	res.count(serial...)
	stat1 := readProcStat()
	cnt := d.counters().since(base)
	instances := float64(driven(untraced...) + driven(traced...) + driven(serial...))
	tracedInst := float64(driven(traced...))

	// driver.*: the spans.
	spanUs := func(segs []segment, f func(*span) int64) float64 {
		return medianOf(segs, func(s *segment) float64 {
			xs := make([]float64, 0, len(s.spans))
			for i := range s.spans {
				if s.spans[i].OK {
					xs = append(xs, float64(f(&s.spans[i]))/1e3)
				}
			}
			sort.Float64s(xs)
			return percentile(xs, 0.50)
		})
	}
	m["driver.start_us_p50"] = spanUs(serial, func(s *span) int64 { return s.Started - s.Begin })
	m["driver.wait_us_p50"] = spanUs(serial, func(s *span) int64 { return s.Waited - s.Started })
	m["driver.snapshot_us_p50"] = spanUs(serial, func(s *span) int64 { return s.Done - s.Waited })
	// A p99 needs a thousand samples: pool the whole phase.
	pooled := func(segs []segment, p float64) float64 {
		var all []float64
		for i := range segs {
			all = append(all, segs[i].latMs...)
		}
		sort.Float64s(all)
		return percentile(all, p)
	}
	m["driver.lat_p99_ms"] = pooled(serial, 0.99)
	m["driver.lat_loaded_p50_ms"] = latencyP(traced, 0.50, onTheClock)
	m["driver.lat_loaded_p90_ms"] = latencyP(traced, 0.90, onTheClock)
	m["driver.lat_loaded_p99_ms"] = pooled(traced, 0.99)
	m["driver.seg_drift"] = untraced[len(untraced)-1].instPerSec() / untraced[0].instPerSec()
	var committed, aborted int
	for _, segs := range [][]segment{untraced, traced, serial} {
		for i := range segs {
			committed += segs[i].committed
			aborted += segs[i].aborted
		}
	}
	m["driver.commit_share"] = float64(committed) / float64(committed+aborted)
	m["driver.abort_share"] = float64(aborted) / float64(committed+aborted)
	if dt := stat1.total - stat0.total; dt > 0 {
		m["driver.steal_frac"] = float64(stat1.steal-stat0.steal) / float64(dt)
	}
	m["driver.trace_overhead_frac"] = 1 -
		medianOf(traced, (*segment).instPerSec)/medianOf(untraced, (*segment).instPerSec)
	m["driver.machine_ref_us"] = r.mach.refUs()

	// metrics.*: the collector by mechanism.
	for i, name := range []string{"normal", "inputchange", "abort", "failure", "coord"} {
		m["metrics.msgs_"+name+"_per_inst"] = float64(cnt.msgs[i]) / instances
	}
	m["metrics.load_max_node_per_inst"] = float64(cnt.maxLoad()) / instances
	m["metrics.load_mean_node_per_inst"] = cnt.meanLoad() / instances

	// runtime.*: this process over the traced saturation segments.
	var selfCPUTotal, allCPUTotal time.Duration
	for i := range traced {
		selfCPUTotal += traced[i].selfCPU
		allCPUTotal += traced[i].cpu
	}
	m["runtime.allocs_per_inst"] = float64(win.mallocs) / tracedInst
	m["runtime.alloc_kb_per_inst"] = float64(win.bytes) / 1024 / tracedInst
	m["runtime.gc_cycles_per_kinst"] = float64(win.gcCycles) / tracedInst * 1000
	m["runtime.gc_cpu_frac"] = win.gcCPU / selfCPUTotal.Seconds()
	m["runtime.sched_lat_p99_us"] = win.schedLatencyP99()
	m["runtime.peak_goroutines"] = float64(win.peakGoroutines)
	m["runtime.peak_rss_mb"] = peakRSSMiB()
	m["mproc.child_cpu_frac"] = float64(allCPUTotal-selfCPUTotal) / float64(allCPUTotal)
	m["mproc.hub_cpu_ms_per_inst"] = selfCPUTotal.Seconds() * 1e3 / tracedInst
	m["wfdb.wal_kb_per_inst"] = float64(walSize()-wal0) / 1024 / instances

	// cpu_share.*: the profile of this process over the same segments.
	for b, share := range cpuShares(samples) {
		m["cpu_share."+b] = share
	}

	if err := writeTrace(traceDir, res, traced, serial, profiles); err != nil {
		return nil, err
	}
	r.checkPins(res, cnt, instances)
	d.close()

	// Ungated legs and layer timings run after the deployment is gone, so
	// they do not share the machine with it.
	legN := int(legInstances*scaleFor(r.seconds) + 0.5)
	if err := r.leg(&legCentralMixed, "central.mixed_", legN, res); err != nil {
		return nil, err
	}
	if err := r.leg(&legParallelMixed, "parallel.mixed_", legN, res); err != nil {
		return nil, err
	}
	if err := layerTimings(d.w, filepath.Join(r.dir, "layers"), m); err != nil {
		return nil, fmt.Errorf("layer timings: %w", err)
	}
	return res, nil
}

// leg runs one short ungated saturation segment on another deployment and
// records it under prefix (the report prints the figures the metric table
// names: no load figure for the centralized leg).
func (r *run) leg(sp *spec, prefix string, n int, res *result) error {
	d, _, err := r.setUp(sp, sp.Warm, res)
	if err != nil {
		return err
	}
	defer d.close()
	base := d.counters()
	seg := d.drive(saturationClients, n, false)
	res.count(seg)
	if err := d.settle(); err != nil {
		return err
	}
	cnt := d.counters().since(base)
	res.Metrics[prefix+"inst_per_s"] = seg.instPerSec()
	res.Metrics[prefix+"msgs_per_inst"] = float64(cnt.totalMsgs()) / float64(driven(seg))
	res.Metrics[prefix+"load_per_inst"] = float64(cnt.maxLoad()) / float64(driven(seg))
	return nil
}

// writeTrace stores the run's spans as gzipped JSON lines (a header object,
// then one object per instance) and, in a directory next to it, the raw CPU
// profile of each traced saturation segment (`go tool pprof dir/*` merges
// them).
func writeTrace(dir string, res *result, saturation, serial []segment, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d", res.Workload, res.Seed))
	f, err := os.Create(name + ".spans.jsonl.gz")
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	err = enc.Encode(map[string]any{
		"workload": res.Workload, "seed": res.Seed,
		"epoch_unix_ns": epoch.UnixNano(),
		"phases":        []string{"saturation", "serial"},
	})
	type line struct {
		Phase   string `json:"phase"`
		Segment int    `json:"segment"`
		*span
	}
	for p, segs := range [][]segment{saturation, serial} {
		for si := range segs {
			for i := range segs[si].spans {
				if err == nil {
					err = enc.Encode(line{[]string{"saturation", "serial"}[p], si, &segs[si].spans[i]})
				}
			}
		}
	}
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.MkdirAll(name+".cpu", 0o755); err != nil {
		return err
	}
	for i, p := range profiles {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu/%02d.pprof", name, i), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}
