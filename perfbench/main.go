// Command perfbench is the simulator's steady-state benchmark. It warms
// one workload to a steady state once, checkpoints it, and times
// repeated windows restored from that checkpoint, reporting host CPU
// time per unit of simulated work next to the simulated results, which
// it checks against a straight-through run of the same seed. With
// --trace 1 it instead reports per-layer numbers from spans around the
// calls it makes into each of the simulator's modules. README.md
// defines every workload and metric.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload ur-knee-8x8 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// run's provenance (host, GOMAXPROCS, steal, wall versus CPU time).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	// outDir receives the result and span files.
	outDir string
	// log receives progress and failure reasons.
	log io.Writer
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's final output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// run executes one invocation: the end-to-end windows, or with
// o.trace the per-layer run.
//
// The process runs on one P (GOMAXPROCS=1) except in the two-worker
// window: the kernel under test is serial, and one P keeps the GC's
// work on the measured thread instead of on a second vCPU whose
// availability varies with steal.
func run(o options) (result, provenance, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clock := startClock()
	prov := currentProvenance(o)
	w, err := lookupWorkload(o.workload, o.tiny)
	if err != nil {
		return result{}, prov, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	start := wallNow()
	budget := time.Duration(o.seconds * float64(time.Second))
	tr.begin("workload " + w.name)
	// The traced run's per-layer numbers come from replica 0 alone.
	replicas := w.replicas
	if o.trace {
		replicas = 1
	}
	s, err := prepareSuite(w, o.seed, replicas, tr)
	if err != nil {
		return result{}, prov, err
	}
	logf := func(line string) { fmt.Fprintln(o.log, line) }
	for _, p := range s {
		for _, f := range p.failures {
			logf("workload check failed: " + f)
		}
	}

	var ws []window
	var res result
	if o.trace {
		var lr layerRun
		lr, err = measureLayers(s[0], tr, o.tiny, o.seed, start.Add(budget))
		ws = lr.windows
		res.Metrics = lr.metrics
	} else {
		ws, err = s.windows(start.Add(budget))
		if err == nil {
			res.Metrics = s.endToEnd(ws)
		}
	}
	tr.end()
	if err != nil {
		return result{}, prov, err
	}
	res.Attempted = len(ws)
	res.Failed = s.tally(ws, logf)
	res.Correct = res.Failed == 0

	clock.stamp(&prov)
	prov.WindowWallOverCPU = median(each(ws, func(w window) float64 { return w.wall.Seconds() / w.cpu.Seconds() }))
	prov.WindowCPUS = each(ws, func(w window) float64 { return w.cpu.Seconds() })
	prov.WindowWallS = each(ws, func(w window) float64 { return w.wall.Seconds() })
	prov.LatencySamples = ws[0].res.MeasuredPackets
	prov.TxnSamples = txnSamples(ws[0].res)
	prov.Replicas = len(s)
	prov.Windows = len(ws)
	if o.outDir != "" {
		stem := fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, boolInt(o.trace))
		if err := writeJSON(filepath.Join(o.outDir, "results", stem+".json"),
			struct {
				Provenance provenance `json:"provenance"`
				Result     result     `json:"result"`
			}{prov, res}); err != nil {
			return result{}, prov, err
		}
		if err := tr.write(filepath.Join(o.outDir, "spans", stem+".json")); err != nil {
			return result{}, prov, err
		}
	}
	return res, prov, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	var o options
	var trace int
	var size string
	flag.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's traffic")
	flag.Float64Var(&o.seconds, "seconds", 20, "time spent on steady-state windows")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&size, "size", "full", "full, or tiny for the benchmark's own tests")
	flag.StringVar(&o.outDir, "out", "", "directory for result and span files (none when empty)")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || (size != "full" && size != "tiny") {
		flag.Usage()
		os.Exit(2)
	}
	o.trace, o.tiny, o.log = trace == 1, size == "tiny", os.Stderr

	res, prov, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		Provenance provenance `json:"provenance"`
	}{prov}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
