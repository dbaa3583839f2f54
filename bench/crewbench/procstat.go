package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHz is the kernel's USER_HZ, the unit of the CPU fields in /proc: 100 on
// every Linux architecture Go supports.
const userHz = 100

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseStatCPU extracts utime+stime (fields 14 and 15, in clock ticks) from
// the contents of /proc/<pid>/stat. The command name (field 2) is
// parenthesised and may itself contain spaces or parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (ticks int64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procstat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("procstat: short stat line %q", stat)
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procstat: stime: %w", err)
	}
	return ut + st, nil
}

// childCPU reads the CPU time of a deployment's live agent processes.
// RUSAGE_CHILDREN only counts children that were reaped, and agent processes
// live until the deployment closes, so their cost has to be read from /proc
// while they run: per thread from schedstat (nanoseconds on the CPU) where the
// kernel keeps it, else from the process's stat line (10 ms ticks). The source
// is chosen once, so both ends of a delta are in the same unit.
type childCPU struct {
	pids      []int
	schedstat bool
}

func newChildCPU(pids []int) *childCPU {
	c := &childCPU{pids: pids}
	if len(pids) > 0 {
		_, err := schedstatCPU("/proc/" + strconv.Itoa(pids[0]))
		c.schedstat = err == nil
	}
	return c
}

// read sums the processes' CPU time so far. A process that cannot be read
// (it exited, though agents live as long as their deployment) is an error:
// a silent zero would turn into a wrong cpu_ms_per_inst.
func (c *childCPU) read() (time.Duration, error) {
	var total time.Duration
	for _, pid := range c.pids {
		dir := "/proc/" + strconv.Itoa(pid)
		if c.schedstat {
			ns, err := schedstatCPU(dir)
			if err != nil {
				return 0, err
			}
			total += ns
			continue
		}
		b, err := os.ReadFile(dir + "/stat")
		if err != nil {
			return 0, err
		}
		t, err := parseStatCPU(string(b))
		if err != nil {
			return 0, err
		}
		total += time.Duration(t) * time.Second / userHz
	}
	return total, nil
}

// schedstatCPU sums the first schedstat field (time spent running, ns) over
// a process's threads. A thread may exit between the listing and the read;
// its time is then lost to this sample, as it is to the kernel's own sum.
func schedstatCPU(procDir string) (time.Duration, error) {
	tasks, err := os.ReadDir(procDir + "/task")
	if err != nil {
		return 0, err
	}
	var total int64
	found := false
	for _, t := range tasks {
		b, err := os.ReadFile(procDir + "/task/" + t.Name() + "/schedstat")
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		field, _, _ := strings.Cut(string(b), " ")
		ns, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procstat: %s schedstat: %w", procDir, err)
		}
		total += ns
		found = true
	}
	if !found {
		return 0, fmt.Errorf("procstat: no thread of %s has a schedstat", procDir)
	}
	return time.Duration(total), nil
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal int64 }

// parseProcStat reads the first line of /proc/stat: user nice system idle
// iowait irq softirq steal [guest guest_nice].
func parseProcStat(s string) (cpuTimes, error) {
	line, _, _ := strings.Cut(s, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("procstat: unexpected /proc/stat head %q", line)
	}
	var c cpuTimes
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("procstat: /proc/stat field %d: %w", i+1, err)
		}
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	return c, nil
}

func readProcStat() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	c, _ := parseProcStat(string(b))
	return c
}

// peakRSSMiB is this process's high-water resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
