package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vichar/internal/benchfmt"
)

// cpuNow returns the CPU time (user + system) the whole process has
// consumed so far, background GC workers included. Every host rate the
// benchmark reports divides by this clock rather than by wall time:
// on a shared host with CPU steal, process CPU time of identical work
// varies far less than its wall time (README.md, "Why CPU time").
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wallNow reads the wall clock. Every wall-time reading of the
// benchmark goes through it; the simulator itself never sees the time.
func wallNow() time.Time {
	//vichar:nolint ambient-entropy wall clock measures benchmark duration, not simulation behavior
	return time.Now()
}

// cpuTicks is one reading of the aggregate "cpu" line of /proc/stat,
// in USER_HZ ticks.
type cpuTicks struct {
	total, steal uint64
	ok           bool
}

// readCPUTicks reads the host-wide CPU tick counters; ok is false where
// /proc/stat is unavailable, and the provenance then omits steal.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and stays out of the total.
	for i, f := range fields[1:] {
		if i >= 8 {
			break
		}
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// userHz is the kernel's USER_HZ, the unit of /proc/stat; 100 on every
// Linux architecture Go supports.
const userHz = 100

// provenance is the noise record printed with every result: where the
// run happened and how much of the host the run actually got.
type provenance struct {
	Host        benchfmt.Host `json:"host"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Workload    string        `json:"workload"`
	Seed        int64         `json:"seed"`
	HeldOutSeed int64         `json:"held_out_seed"`
	Trace       bool          `json:"trace"`
	Size        string        `json:"size"`
	WallS       float64       `json:"wall_s"`
	ProcessCPUS float64       `json:"process_cpu_s"`
	// StealS and StealPct come from /proc/stat: host-wide CPU time the
	// hypervisor gave to other guests during the run, and its share of
	// all CPU time that elapsed. Absent when /proc/stat is unreadable.
	StealS   *float64 `json:"steal_s,omitempty"`
	StealPct *float64 `json:"steal_pct,omitempty"`
	// WindowWallOverCPU is the median ratio of a timed window's wall
	// time to its process CPU time: 1 on an idle host, higher when the
	// process waited for a CPU.
	WindowWallOverCPU float64 `json:"window_wall_over_cpu"`
	// WindowCPUS and WindowWallS are every timed window's process CPU
	// and wall seconds, in run order.
	WindowCPUS  []float64 `json:"window_cpu_s"`
	WindowWallS []float64 `json:"window_wall_s"`
	// LatencySamples is the sample count behind each replica's
	// sim_latency_* percentiles; TxnSamples that behind its
	// sim_txn_p99_cycles. Replicas is how many trajectories the
	// simulated metrics are medians over.
	LatencySamples int64 `json:"latency_samples"`
	TxnSamples     int64 `json:"txn_samples"`
	Replicas       int   `json:"replicas"`
	Windows        int   `json:"windows"`
}

// runClock brackets one benchmark invocation for the provenance block.
type runClock struct {
	wall  time.Time
	cpu   time.Duration
	ticks cpuTicks
}

func startClock() runClock {
	return runClock{wall: wallNow(), cpu: cpuNow(), ticks: readCPUTicks()}
}

// stamp fills the provenance's whole-run noise fields.
func (c runClock) stamp(p *provenance) {
	p.WallS = wallNow().Sub(c.wall).Seconds()
	p.ProcessCPUS = (cpuNow() - c.cpu).Seconds()
	end := readCPUTicks()
	if c.ticks.ok && end.ok && end.total > c.ticks.total {
		steal := float64(end.steal-c.ticks.steal) / userHz
		pct := 100 * float64(end.steal-c.ticks.steal) / float64(end.total-c.ticks.total)
		p.StealS, p.StealPct = &steal, &pct
	}
}

// span is one traced interval: a call from the benchmark into one of
// the simulator's modules. Times are nanoseconds since the tracer
// started; Parent is the enclosing span's ID, 0 at the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil tracer records nothing, so the untraced run pays one nil check
// per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(wallNow().Sub(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = int64(wallNow().Sub(t.t0))
}

// write saves the spans as one JSON document at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	return writeJSON(path, t.spans)
}

// writeJSON writes v, indented, to path, creating its directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// currentProvenance starts a provenance block for this process.
func currentProvenance(o options) provenance {
	size := "full"
	if o.tiny {
		size = "tiny"
	}
	return provenance{
		Host:        benchfmt.CurrentHost(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workload:    o.workload,
		Seed:        o.seed,
		HeldOutSeed: heldOutSeed,
		Trace:       o.trace,
		Size:        size,
	}
}
