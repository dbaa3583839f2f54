package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// result is the outcome of one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Nudges    int // instances started to release stalled ones; part of Attempted
	// Problems lists every correctness violation beyond per-instance
	// failures (which are counted in Failed and logged as they happen).
	Problems []string
	Metrics  map[string]float64
	// Raw holds an end-to-end run's timings as the clock gave them; Metrics
	// has them at the reference machine speed. RefUs is the reference kernel's
	// median time per op during the run.
	Raw   map[string]float64
	RefUs float64
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) count(segs ...segment) {
	r.Attempted += driven(segs...)
	for i := range segs {
		r.Failed += segs[i].failed
		r.Nudges += segs[i].nudges
		if segs[i].err != nil {
			r.problem("agent processes' CPU time: %v", segs[i].err)
		}
	}
}

// driven is the number of instances the segments put through the system,
// timed or not: the denominator of every per-instance count.
func driven(segs ...segment) (n int) {
	for i := range segs {
		n += segs[i].n + segs[i].lead + segs[i].nudges
	}
	return n
}

// run holds what one invocation shares across its deployments.
type run struct {
	sp      *spec
	seed    int64
	seconds int
	dir     string // this run's private work directory
	nextDir int
	mach    *machine
}

// setUp builds a fresh deployment and warms it up. Its duration is the
// set-up cost a user pays before the first measured instance: generating the
// workload, opening databases, building the system (spawning and connecting
// agent processes) and driving a fixed warm-up count so caches, pools and
// lazily built state are in place.
func (r *run) setUp(sp *spec, warm int, res *result) (*deployment, setUpTime, error) {
	r.nextDir++
	t0 := time.Now()
	d, err := deploy(sp, r.seed, filepath.Join(r.dir, "d"+strconv.Itoa(r.nextDir)))
	if err != nil {
		return nil, setUpTime{}, err
	}
	seg := d.drive(saturationClients, warm, false)
	res.count(seg)
	if err := d.settle(); err != nil {
		d.close()
		return nil, setUpTime{}, fmt.Errorf("quiesce after warm-up: %w", err)
	}
	took := time.Since(t0)
	return d, setUpTime{took, r.mach.slice()}, nil
}

// setUpTime is one set-up's duration and the reference-kernel slice that
// followed it.
type setUpTime struct {
	took time.Duration
	ref  int
}

// phases drives the two measured phases, one segment of each in turn. The
// machine's speed shifts for seconds at a time (noisy neighbours, frequency);
// alternating spreads both phases' segments over the whole run, so such a
// stretch disturbs a minority of either phase's segments and the median over
// segments ignores it. Every segment starts from an idle system and is
// followed by a slice of the reference kernel.
func (r *run) phases(d *deployment, satN, serN int, res *result) (sat, ser []segment, err error) {
	one := func(phase string, i, clients, n int) (segment, error) {
		seg := d.drive(clients, n, false)
		res.count(seg)
		if err := d.settle(); err != nil {
			return seg, fmt.Errorf("quiesce after %s segment %d: %w", phase, i, err)
		}
		seg.ref = r.mach.slice()
		return seg, nil
	}
	for i := 0; i < segmentsPerPhase; i++ {
		seg, err := one("saturation", i, saturationClients, satN)
		if err != nil {
			return nil, nil, err
		}
		sat = append(sat, seg)
		if seg, err = one("serial", i, 1, serN); err != nil {
			return nil, nil, err
		}
		ser = append(ser, seg)
	}
	return sat, ser, nil
}

// liveHeapMiB is the heap still reachable after two collections: the first
// runs finalizers, the second frees what they released.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEndRun measures every end-to-end metric with tracing off.
func (r *run) endToEndRun() (*result, error) {
	sp := r.sp
	res := &result{Workload: sp.Name, Seed: r.seed, Metrics: map[string]float64{}}
	warm, satN, serN := sp.counts(scaleFor(r.seconds))

	// Set-up five times, two before and two after the deployment that is
	// measured, so the five samples are not all taken in the same second.
	var setups []setUpTime
	extraSetUps := func() error {
		for i := 0; i < 2; i++ {
			d, took, err := r.setUp(sp, warm, res)
			if err != nil {
				return err
			}
			d.close()
			setups = append(setups, took)
		}
		return nil
	}
	if err := extraSetUps(); err != nil {
		return nil, err
	}
	d, took, err := r.setUp(sp, warm, res)
	if err != nil {
		return nil, err
	}
	defer d.close()
	setups = append(setups, took)

	base := d.counters()
	sat, ser, err := r.phases(d, satN, serN, res)
	if err != nil {
		return nil, err
	}
	cnt := d.counters().since(base)
	heap := liveHeapMiB()
	d.close()
	if err := extraSetUps(); err != nil {
		return nil, err
	}

	measured := float64(driven(sat...) + driven(ser...))
	res.Raw = timings(setups, sat, ser, onTheClock)
	res.Metrics = timings(setups, sat, ser, r.mach.slowdownAt)
	res.Metrics["live_heap_mb"] = heap
	res.Metrics["msgs_per_inst"] = float64(cnt.totalMsgs()) / measured
	res.RefUs = r.mach.refUs()

	r.checkPins(res, cnt, measured)
	return res, nil
}

// timings reduces a run's set-ups and segments to the end-to-end timings.
// slow says how much slower than nominal the machine ran around a given
// reference-kernel slice; every measurement is taken at the speed of the
// slice that followed it, here and in latencyP and nowhere else: times
// shrink and rates grow by the slowdown.
func timings(setups []setUpTime, sat, ser []segment, slow func(ref int) float64) map[string]float64 {
	ups := make([]float64, len(setups))
	for i, s := range setups {
		ups[i] = s.took.Seconds() / slow(s.ref)
	}
	return map[string]float64{
		"setup_s":         median(ups),
		"inst_per_s":      medianOf(sat, func(s *segment) float64 { return s.instPerSec() * slow(s.ref) }),
		"cpu_ms_per_inst": medianOf(sat, func(s *segment) float64 { return s.cpuMsPerInst() / slow(s.ref) }),
		"lat_p50_ms":      latencyP(ser, 0.50, slow),
		"lat_p90_ms":      latencyP(ser, 0.90, slow),
	}
}

// onTheClock is the slowdown of a machine taken as it is: measurements stay
// what the clock gave.
func onTheClock(int) float64 { return 1 }

// checkPins holds the deterministic workloads to the exact per-instance
// message and load counts of this tree (the paper's Tables 4-6 columns): on a
// failure-free centralized run they are a pure function of the schema, so any
// difference is a behaviour change, not noise.
func (r *run) checkPins(res *result, cnt counters, instances float64) {
	sp := r.sp
	if sp.PinMsgs == 0 || res.Failed > 0 {
		return
	}
	if got := float64(cnt.totalMsgs()) / instances; got != sp.PinMsgs {
		res.problem("msgs_per_inst = %v, this tree's exact value is %v", got, sp.PinMsgs)
	}
	if got := float64(cnt.maxLoad()) / instances; got != sp.PinLoad {
		res.problem("load per instance at the engine = %v, this tree's exact value is %v", got, sp.PinLoad)
	}
}
