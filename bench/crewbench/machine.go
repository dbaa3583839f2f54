package main

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// The sandbox this benchmark runs on changes speed: for minutes or hours at a
// time the same code runs 1.3 to 1.8 times slower, it drifts by 5-20% in
// between, and the change can come in the middle of a run. Identical runs of
// central-normal gave 3,740 to 6,110 inst/s within half an hour, and the
// quartile spread of ten consecutive runs averaged 7-14% per metric on a calm
// day and 17-24% on a restless one. No segment length or median repairs a
// measurement that was taken on a slower machine as a whole.
//
// So every run also times a fixed reference kernel, in a short slice after
// each of its segments and set-ups, and takes each measurement at the speed
// the kernel had around it: the median of the nine slices nearest in time
// says how much slower than nominal the machine was just then, and the
// measurement is divided by that (timings in run.go, the one place this
// happens). The report prints every timing as the clock gave it beside the
// rescaled one; per-layer figures are never rescaled.
//
// The kernel is a JSON round trip of a workflow-instance-shaped record:
// standard library only, so no change to the program can move it, and the
// program's own largest cost (encoding/json, the allocator and the collector
// are 0.46-0.71 of its CPU). The program also waits, wakes goroutines and
// misses caches, which the slow mode slows less than it slows a
// cache-resident loop. Over 40 runs in the slow mode (kernel 1.5 to 1.9 times
// its usual 40 us) against 130 at full speed, the program's slowdown was the
// kernel's to the power of 0.55 (inst_per_s on dist-mixed, a 300 MiB heap) to
// 0.93 (lat_p50_ms on central-normal), the same within 0.08 from run to run;
// an earlier day's slow mode gave 0.61 to 0.76 on two of the workloads.
// refExponent is the middle of that. It is a calibration of this sandbox, like
// the nominal time itself, and what it leaves between the two speeds (up to
// 12% on the metrics furthest from it) is why no timing's bound is below
// 0.25. bench/README.md has the numbers.

const (
	refNominal  = 40 * time.Microsecond // kernel time per op on the sandbox at full speed
	refOps      = 400                   // ops per slice: about 16 ms
	refExponent = 0.75
)

type refStep struct {
	Status  int                `json:"status"`
	Agent   string             `json:"agent"`
	Inputs  map[string]float64 `json:"inputs"`
	Outputs map[string]float64 `json:"outputs"`
}

type refRecord struct {
	Workflow string             `json:"workflow"`
	ID       int                `json:"id"`
	Data     map[string]float64 `json:"data"`
	Steps    map[string]refStep `json:"steps"`
	Order    []string           `json:"order"`
}

// machine runs the reference kernel and collects its slice times over a run.
type machine struct {
	record  *refRecord
	sliceNs []float64
}

func newMachine() *machine {
	r := &refRecord{Workflow: "WF01", ID: 7, Data: map[string]float64{}, Steps: map[string]refStep{}}
	for i := 0; i < 10; i++ {
		s := "S" + strconv.Itoa(i)
		r.Data[s+".O1"] = float64(i)
		r.Steps[s] = refStep{Status: 2, Agent: "agent01",
			Inputs: map[string]float64{"WF.I1": 1}, Outputs: map[string]float64{"O1": 2}}
		r.Order = append(r.Order, s)
	}
	return &machine{record: r}
}

// slice runs the kernel once, records its time per op and returns the
// slice's index.
func (m *machine) slice() int {
	t0 := time.Now()
	for i := 0; i < refOps; i++ {
		b, err := json.Marshal(m.record)
		if err != nil {
			panic(err) // a fixed, marshalable value
		}
		var out refRecord
		if err := json.Unmarshal(b, &out); err != nil {
			panic(err)
		}
		sink = &out
	}
	m.sliceNs = append(m.sliceNs, float64(time.Since(t0))/refOps)
	return len(m.sliceNs) - 1
}

// refUs is the run's median kernel time per op, in microseconds.
func (m *machine) refUs() float64 { return median(m.sliceNs) / 1e3 }

// refWindow is how many slices on either side of one are read with it. One
// 16 ms slice is noisier than the segment it follows; nine span about two
// seconds of the run, short against the minutes a speed lasts.
const refWindow = 4

// slowdownAt is the factor by which the machine slowed the program around
// slice ref, estimated from the kernel.
func (m *machine) slowdownAt(ref int) float64 {
	lo, hi := ref-refWindow, ref+refWindow+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.sliceNs) {
		hi = len(m.sliceNs)
	}
	return math.Pow(median(m.sliceNs[lo:hi])/float64(refNominal), refExponent)
}
