package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/laws"
	"crew/internal/wfdb"
	"crew/internal/workload"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedianOfSegments(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// One disturbed segment must not move the run's figure.
	segs := []segment{{n: 100, wall: 1e9}, {n: 100, wall: 1e9}, {n: 100, wall: 9e9}}
	if got := medianOf(segs, (*segment).instPerSec); got != 100 {
		t.Errorf("median inst/s = %v, want 100", got)
	}
}

// Percentiles pool consecutive segments up to 100 latencies: five segments of
// 40 make one pool of three (the trailing 80 are too few for a p90 and are
// dropped).
func TestLatencyPPoolsSegments(t *testing.T) {
	var segs []segment
	for s := 0; s < 5; s++ {
		seg := segment{}
		for i := 1; i <= 40; i++ {
			seg.latMs = append(seg.latMs, float64(100*s+i))
		}
		segs = append(segs, seg)
	}
	// Pools: segments 0-2 (120 values, p50 = 60th = 120) and 3-4 (80 < 100:
	// pooled only with what follows, so dropped).
	if got := latencyP(segs, 0.5, onTheClock); got != 120 {
		t.Errorf("latencyP = %v, want 120", got)
	}
	// A phase too short for one pool still reports from what it has.
	if got := latencyP(segs[:1], 0.5, onTheClock); got != 20 {
		t.Errorf("latencyP of one short segment = %v, want 20", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives: for 1..10 they are 2.75 and 8.25.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestProcParsers(t *testing.T) {
	ticks, err := parseStatCPU("4242 (crew bench) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 17 5 0 0 20 0 9 0 100 0 0\n")
	if err != nil || ticks != 22 {
		t.Errorf("parseStatCPU = %d, %v; want 22", ticks, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	c, err := parseProcStat("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n")
	if err != nil || c.total != 1000 || c.steal != 35 {
		t.Errorf("parseProcStat = %+v, %v", c, err)
	}
}

func TestBucketOfStack(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"rules", []string{"crew/internal/rules.(*Engine).FireOn", "crew/internal/central.(*Engine).evaluate"}},
		// Library frames pass through to the first-party caller.
		{"event", []string{"runtime.mapassign_faststr", "crew/internal/event.(*Table).Post", "crew/internal/wfdb.(*Instance).RecordDone"}},
		{"itable", []string{"sync.(*Mutex).Lock", "crew/internal/itable.(*Map[go.shape.string]).Get", "crew/internal/distributed.(*System).Wait"}},
		// Allocation and collection are their own layers wherever they occur.
		{"runtime_malloc", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "crew/internal/expr.Num"}},
		{"runtime_gc", []string{"runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "crew/internal/nav.PotentialTerminals"}},
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		// The idle netpoller is the scheduler, a socket write is a syscall.
		{"runtime_sched", []string{"internal/runtime/syscall.EpollWait", "runtime.netpoll", "runtime.findRunnable"}},
		{"syscall", []string{"internal/runtime/syscall.Syscall6", "syscall.RawSyscall6", "syscall.Syscall", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "crew/internal/transport.(*remotePeer).writeFrameLocked"}},
		// JSON under the store is JSON, not the store.
		{"encoding_json", []string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "crew/internal/store.(*Store).PutJSON", "crew/internal/wfdb.(*DB).SaveInstance"}},
		{"store", []string{"hash/crc32.ChecksumIEEE", "crew/internal/store.(*Store).append"}},
		// The facade forwards; the load generator and its step programs are the driver.
		{"central", []string{"crew.(*faultedSystem).Start", "crew/internal/central.(*System).Start"}},
		{"driver", []string{"time.Now", "main.(*deployment).one", "main.(*deployment).drive.func1"}},
		{"driver", []string{"math.Mod", "crew/internal/workload.(*Workload).stepProgram.func1", "crew/internal/central.(*Agent).run"}},
		{"other", []string{"crew/internal/faults.(*Injector).tick"}},
		{"other", []string{"runtime.memmove", "strconv.Itoa"}},
		{"other", nil},
	} {
		if got := bucketOfStack(c.stack); got != c.want {
			t.Errorf("bucketOfStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	shares := cpuShares([]stackSample{
		{[]string{"crew/internal/rules.(*Engine).FireOn"}, 6},
		{[]string{"runtime.mallocgc", "crew/internal/rules.NewEngine"}, 3},
		{[]string{"unknown.fn"}, 1},
	})
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-12 || shares["rules"] != 0.6 || shares["runtime_malloc"] != 0.3 || shares["other"] != 0.1 {
		t.Errorf("shares = %v (sum %v)", shares, sum)
	}
}

// pb builds protobuf messages for the decoder test.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytesField(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

// A hand-built profile: strings ["", "leaf", "inlinedInto", "root"], three
// functions, location 1 = leaf inlined into inlinedInto, location 2 = root,
// one sample [1, 2] with values packed [7, 70000000], and one unpacked.
func TestParseProfile(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "leaf", "inlinedInto", "root"} {
		prof.bytesField(6, []byte(s))
	}
	for id := uint64(1); id <= 3; id++ {
		var fn pb
		fn.varint(1, id)
		fn.varint(2, id) // name = strings[id]
		prof.bytesField(5, fn.Bytes())
	}
	line := func(fn uint64) []byte {
		var l pb
		l.varint(1, fn)
		l.varint(2, 42)
		return l.Bytes()
	}
	var loc1, loc2 pb
	loc1.varint(1, 1)
	loc1.varint(3, 0xdeadbeef)
	loc1.bytesField(4, line(1))
	loc1.bytesField(4, line(2))
	loc2.varint(1, 2)
	loc2.bytesField(4, line(3))
	prof.bytesField(4, loc1.Bytes())
	prof.bytesField(4, loc2.Bytes())

	var packed pb
	packed.bytesField(1, []byte{1, 2})
	packed.bytesField(2, append(binary.AppendUvarint(nil, 7), binary.AppendUvarint(nil, 70000000)...))
	prof.bytesField(2, packed.Bytes())
	var unpacked pb
	unpacked.varint(1, 2)
	unpacked.varint(2, 3)
	unpacked.varint(2, 30000000)
	prof.bytesField(2, unpacked.Bytes())

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	if s := samples[0]; s.count != 7 || len(s.stack) != 3 || s.stack[0] != "leaf" || s.stack[1] != "inlinedInto" || s.stack[2] != "root" {
		t.Errorf("sample 0 = %+v", s)
	}
	if s := samples[1]; s.count != 3 || len(s.stack) != 1 || s.stack[0] != "root" {
		t.Errorf("sample 1 = %+v", s)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestMetricTable(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		t.Helper()
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 128", len(perLayer))
	}
	for _, sp := range workloads {
		if !name.MatchString(sp.Name) || len(sp.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", sp.Name, len(sp.Why))
		}
	}
}

// manifestJSON renders BENCHMARK.json from the workload and metric tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: nominalSeconds,
	}
	for _, sp := range workloads {
		m.Workloads = append(m.Workloads, wl{sp.Name, sp.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	return append(b, '\n')
}

// BENCHMARK.json at the repository root is rendered from the tables in this
// package; CREWBENCH_UPDATE_MANIFEST=1 rewrites it after a table changed.
func TestManifestMatchesTables(t *testing.T) {
	const path = "../../BENCHMARK.json"
	if os.Getenv("CREWBENCH_UPDATE_MANIFEST") != "" {
		if err := os.WriteFile(path, manifestJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Skip("no BENCHMARK.json above bench/:", err)
	}
	if !bytes.Equal(committed, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables; rerun with CREWBENCH_UPDATE_MANIFEST=1")
	}
	var m map[string]any
	if err := json.Unmarshal(committed, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract names 6", len(m))
	}
}

// A 200-instance smoke of every in-process workload and both legs: all
// instances correct, deterministic workloads on their pinned counts.
func TestSmokeInProcess(t *testing.T) {
	specs := []*spec{&legCentralMixed, &legParallelMixed}
	for i := range workloads {
		if !workloads[i].Procs {
			specs = append(specs, &workloads[i])
		}
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			r := &run{sp: sp, seed: 7, dir: t.TempDir(), mach: newMachine()}
			res := &result{Metrics: map[string]float64{}}
			d, _, err := r.setUp(sp, 40, res)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			base := d.counters()
			sat := d.drive(saturationClients, 120, true)
			ser := d.drive(1, 40, false)
			res.count(sat, ser)
			if err := d.settle(); err != nil {
				t.Fatal(err)
			}
			r.checkPins(res, d.counters().since(base), float64(driven(sat, ser)))
			// 200 timed instances plus one untimed lead-in per client per segment.
			if want := 200 + 2*saturationClients + 1; !res.correct() || res.Attempted != want {
				t.Fatalf("attempted=%d failed=%d problems=%v", res.Attempted, res.Failed, res.Problems)
			}
			if len(sat.latMs) != 120 || len(sat.spans) != 120 || sat.committed+sat.aborted != 120 {
				t.Errorf("saturation segment: %d latencies, %d spans, %d terminal", len(sat.latMs), len(sat.spans), sat.committed+sat.aborted)
			}
			for i := range sat.spans {
				s := &sat.spans[i]
				if !s.OK || s.Begin > s.Started || s.Started > s.Waited || s.Waited > s.Done {
					t.Fatalf("span %d out of order or failed: %+v", i, *s)
				}
			}
		})
	}
}

func TestInputsFollowSeed(t *testing.T) {
	if inputFor(1, 0) == inputFor(2, 0) && inputFor(1, 1) == inputFor(2, 1) {
		t.Error("inputs do not depend on the seed")
	}
	if inputFor(3, 5) != inputFor(3, 5) {
		t.Error("inputs are not a function of (seed, seq)")
	}
	for i := 0; i < 1000; i++ {
		if v := inputFor(9, i); v < 0 || v >= 900000 || v != math.Trunc(v) {
			t.Fatalf("input %v outside [0, 900000) or fractional", v)
		}
	}
}

// The LAWS rendering of the generated library must compile back to the same
// schemas, or laws.compile_us times something else than the workload.
func TestLawsSourceRoundTrips(t *testing.T) {
	w, err := workload.Generate((&spec{Mixed: true}).params(), schemaSeed)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := laws.Compile(lawsSource(w.Library))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range w.Library.Names() {
		want, got := w.Library.Schema(name), lib.Schema(name)
		if got == nil || len(got.Steps) != len(want.Steps) || len(got.Arcs) != len(want.Arcs) ||
			len(got.OnFailure) != len(want.OnFailure) {
			t.Fatalf("schema %s did not survive the round trip", name)
		}
		for id, st := range want.Steps {
			g := got.Steps[id]
			if g == nil || g.Program != st.Program || g.Compensation != st.Compensation ||
				g.ReexecCond != st.ReexecCond || len(g.EligibleAgents) != len(st.EligibleAgents) {
				t.Fatalf("%s.%s: %+v, want %+v", name, id, g, st)
			}
		}
	}
}

// stallingTarget commits every instance at once, except that WF01.1 stays
// running until `release` further instances have been started.
type stallingTarget struct {
	mu      sync.Mutex
	started map[string]int
	release int
}

func (f *stallingTarget) Start(wf string, _ map[string]expr.Value) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.started[wf]++
	return f.started[wf], nil
}

func (f *stallingTarget) Wait(wf string, id int, _ time.Duration) (wfdb.Status, error) {
	if st, _ := f.Status(wf, id); st == wfdb.Running {
		return 0, fmt.Errorf("fake: %w: %s.%d", cerrors.ErrTimeout, wf, id)
	}
	return wfdb.Committed, nil
}

func (f *stallingTarget) Status(wf string, id int) (wfdb.Status, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, n := range f.started {
		total += n
	}
	if wf == "WF01" && id == 1 && total-1 < f.release {
		return wfdb.Running, true
	}
	return wfdb.Committed, true
}

func (f *stallingTarget) Abort(string, int) error                               { return nil }
func (f *stallingTarget) ChangeInputs(string, int, map[string]expr.Value) error { return nil }

// A client whose instance stalls starts one instance of each workflow and
// waits again; an instance that nothing releases fails at opTimeout.
func TestWaitNudgesStalledInstance(t *testing.T) {
	w, err := workload.Generate((&spec{}).params(), schemaSeed)
	if err != nil {
		t.Fatal(err)
	}
	names := len(w.Library.Names())
	for _, c := range []struct {
		release    int
		wantNudges int
		wantErr    bool
	}{
		{release: 0, wantNudges: 0},
		{release: names + 1, wantNudges: 2 * names}, // released during the second round
		{release: 1 << 30, wantNudges: names * (int(opTimeout/nudgeAfter) - 1), wantErr: true},
	} {
		d := &deployment{sp: &spec{}, w: w, sys: &stallingTarget{started: map[string]int{}, release: c.release}}
		id, _ := d.sys.Start("WF01", nil)
		st, err := d.wait("WF01", id)
		if (err != nil) != c.wantErr || (err == nil && st != wfdb.Committed) {
			t.Errorf("release after %d: wait = %v, %v", c.release, st, err)
		}
		if got := int(d.nudges.Load()); got != c.wantNudges || d.nudgeFailed.Load() != 0 {
			t.Errorf("release after %d: %d nudges (%d failed), want %d", c.release, got, d.nudgeFailed.Load(), c.wantNudges)
		}
	}
}
