package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"

	"vichar"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// tests check the benchmark's output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTinyRunPrintsEveryMetric runs every workload BENCHMARK.json
// names at tiny size in both modes and checks that the result is
// correct and carries exactly the declared metrics, each with its
// declared unit.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range workloads(true) {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if len(names) != len(declared) {
		t.Fatalf("benchmark workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Fatalf("benchmark workloads %v, BENCHMARK.json declares %v", names, declared)
		}
	}

	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			out := t.TempDir()
			res, prov, err := run(options{workload: name, seed: 5, trace: trace, tiny: true, outDir: out, log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for n, unit := range want {
				got, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, n)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, n, got.Unit, unit)
				}
			}
			for n := range res.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", name, trace, n)
				}
			}
			if prov.Host.GOMAXPROCS == 0 || prov.Workload != name || prov.Seed != 5 {
				t.Errorf("%s trace=%v: provenance %+v", name, trace, prov)
			}
			stem := name + "-seed5-trace0"
			if trace {
				stem = name + "-seed5-trace1"
				if _, err := os.Stat(out + "/spans/" + stem + ".json"); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
			if _, err := os.Stat(out + "/results/" + stem + ".json"); err != nil {
				t.Errorf("%s trace=%v: result file not written: %v", name, trace, err)
			}
		}
	}
}

// TestJudgeTripsOnZeroMeasuredWindow reproduces the warm-up override
// pitfall: restored with a warm-up quota at the packets already
// ejected, the run never opens its measurement window and reports
// zero measure cycles and all-zero statistics. judge must fail it.
func TestJudgeTripsOnZeroMeasuredWindow(t *testing.T) {
	w, err := lookupWorkload("ur-knee-8x8", true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(w, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := p.publicWindow(nil)
	if err != nil {
		t.Fatal(err)
	}
	if why := judge(good, w.measure, good.digest, p.straight); why != nil {
		t.Fatalf("a correct window failed: %v", why)
	}

	warmup, measure := int(p.ejectedAtCut), w.measure
	sim, err := vichar.RestoreWith(p.snapshot, vichar.Overrides{WarmupPackets: &warmup, MeasurePackets: &measure})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.MeasureCycles != 0 || res.MeasuredPackets != 0 {
		t.Fatalf("override at the ejected count measured %d packets over %d cycles; the pitfall no longer reproduces",
			res.MeasuredPackets, res.MeasureCycles)
	}
	// Judged against its own digest, only the quota check can trip.
	bad := window{res: res, digest: digestOf(res, sim.Latencies())}
	if why := judge(bad, w.measure, bad.digest, bad.digest); why == nil {
		t.Fatal("judge accepted a window that never opened")
	}
}

// TestJudgeTripsOnDigestMismatch checks both digest comparisons.
func TestJudgeTripsOnDigestMismatch(t *testing.T) {
	full := window{res: vichar.Results{MeasuredPackets: 10, MeasureCycles: 50}, digest: 7}
	if why := judge(full, 10, 7, 7); why != nil {
		t.Fatalf("matching window failed: %v", why)
	}
	if why := judge(full, 10, 8, 7); len(why) != 1 {
		t.Errorf("mismatch with the first window: %v", why)
	}
	if why := judge(full, 10, 7, 8); len(why) != 1 {
		t.Errorf("mismatch with the straight-through run: %v", why)
	}
	short := full
	short.res.MeasuredPackets = 9
	if why := judge(short, 10, 7, 7); len(why) != 1 {
		t.Errorf("short window: %v", why)
	}
}

// TestWorkloadFailureFailsEveryWindow checks that a workload-level
// check (audit, arena overflow, nondeterministic fill) fails every
// window of the run.
func TestWorkloadFailureFailsEveryWindow(t *testing.T) {
	ok := window{res: vichar.Results{MeasuredPackets: 10, MeasureCycles: 50}, digest: 7}
	p := &prepared{w: workload{measure: 10}, straight: 7}
	if got := (suite{p}).tally([]window{ok, ok}, func(string) {}); got != 0 {
		t.Fatalf("clean run: %d failed", got)
	}
	p.fail("audited pass: %s", "boom")
	if got := (suite{p}).tally([]window{ok, ok}, func(string) {}); got != 2 {
		t.Fatalf("audit failure: %d of 2 windows failed", got)
	}
	// A failure of any replica fails the other replicas' windows too.
	clean := &prepared{w: workload{measure: 10}, straight: 7}
	okRep1 := ok
	okRep1.rep = 1
	if got := (suite{clean, p}).tally([]window{ok, okRep1}, func(string) {}); got != 2 {
		t.Fatalf("replica 1 failure: %d of 2 windows failed", got)
	}
}

// TestTallyJudgesEachReplicaOnItsOwn checks that a window is compared
// with its own replica's first window and straight-through run, not
// with another replica's.
func TestTallyJudgesEachReplicaOnItsOwn(t *testing.T) {
	s := suite{
		&prepared{w: workload{measure: 10}, straight: 7},
		&prepared{w: workload{measure: 10}, straight: 9},
	}
	win := func(rep int, digest uint64) window {
		return window{res: vichar.Results{MeasuredPackets: 10, MeasureCycles: 50}, digest: digest, rep: rep}
	}
	if got := s.tally([]window{win(0, 7), win(1, 9), win(0, 7), win(1, 9)}, func(string) {}); got != 0 {
		t.Fatalf("matching replicas: %d failed", got)
	}
	if got := s.tally([]window{win(0, 7), win(1, 7)}, func(string) {}); got != 1 {
		t.Fatalf("replica 1 with replica 0's digest: %d failed, want 1", got)
	}
	firsts := s.firstWindows([]window{win(1, 9), win(0, 7), win(1, 9)})
	if firsts[0].digest != 7 || firsts[1].digest != 9 {
		t.Fatalf("first windows %+v", firsts)
	}
}

// TestReplicaSeeds checks that replica 0 runs the run's seed and that
// neighbouring runs share no replica seed.
func TestReplicaSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		if got := replicaSeed(seed, 0); got != seed {
			t.Fatalf("replica 0 of seed %d runs %d", seed, got)
		}
		for i := 0; i < 7; i++ {
			r := replicaSeed(seed, i)
			if r < 0 || seen[r] {
				t.Fatalf("seed %d replica %d: seed %d negative or repeated", seed, i, r)
			}
			seen[r] = true
		}
	}
}
