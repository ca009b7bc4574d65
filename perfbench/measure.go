package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"vichar"
	"vichar/internal/config"
	"vichar/internal/network"
	"vichar/internal/power"
	"vichar/internal/snap"
)

// prepared is a workload warmed once to its cut and checkpointed,
// together with the timings of getting there and the reference every
// window is checked against.
type prepared struct {
	w   workload
	cfg vichar.Config // warm-up quota unreachable, so the cut never opens the window

	// One sample per set-up round (see round).
	setupCPU, fillCPU, snapshotCPU []time.Duration

	snapshot []byte
	// ejectedAtCut is the packet count ejected by the cut; the window's
	// warm-up override ends one ejection later.
	ejectedAtCut int64
	// straight is the digest of the same seed run from cycle 0 to the
	// window's end without a checkpoint.
	straight uint64
	// failures are workload-level: each one fails every window.
	failures []string
}

// overrides are the window's protocol parameters: warm-up ends with
// the first ejection after the cut and the quota is the workload's.
// An override at or below ejectedAtCut would never open the
// measurement window; judge counts such a window as failed.
func (p *prepared) overrides() vichar.Overrides {
	warmup := int(p.ejectedAtCut) + 1
	measure := p.w.measure
	return vichar.Overrides{WarmupPackets: &warmup, MeasurePackets: &measure}
}

// windowConfig is the configuration a window runs under.
func (p *prepared) windowConfig() vichar.Config {
	cfg := p.cfg
	o := p.overrides()
	cfg.WarmupPackets, cfg.MeasurePackets = *o.WarmupPackets, *o.MeasurePackets
	return cfg
}

// prepare runs the first set-up round of one trajectory, whose
// checkpoint every window of the trajectory restores, then a
// straight-through reference run of the same seed.
func prepare(w workload, seed int64, tr *tracer) (*prepared, error) {
	cfg := w.config(seed)
	cfg.WarmupPackets = 1 << 30
	p := &prepared{w: w, cfg: cfg}
	if err := p.round(tr); err != nil {
		return nil, err
	}

	tr.begin("network.Run straight-through")
	digest, ejected, overflow := straightThrough(p.windowConfig(), w.fillCycles)
	tr.end()
	p.straight = digest
	if ejected != p.ejectedAtCut {
		p.fail("straight-through run ejected %d packets by the cut, the checkpointed fill %d", ejected, p.ejectedAtCut)
	}
	if overflow != 0 {
		p.fail("arena overflow %d on the straight-through run", overflow)
	}
	return p, nil
}

// suite is one run's trajectories of a workload: replica i prepared
// from replicaSeed(seed, i). Replica 0 also gets the workload's one
// audited pass.
type suite []*prepared

// prepareSuite prepares the given number of replicas of w.
func prepareSuite(w workload, seed int64, replicas int, tr *tracer) (suite, error) {
	var s suite
	for i := 0; i < replicas; i++ {
		p, err := prepare(w, replicaSeed(seed, i), tr)
		if err != nil {
			return nil, err
		}
		s = append(s, p)
	}
	tr.begin("network.Step audited")
	err := auditedPass(s[0].snapshot, w.auditCycles)
	tr.end()
	if err != nil {
		s[0].fail("audited pass: %v", err)
	}
	return s, nil
}

// round times one set-up round: vichar.NewSimulator, the cold fill
// from cycle 0 to the warm cut, and Snapshot of the warm simulator,
// each after a forced collection. The first round's checkpoint is the
// one every window restores; every later round must reproduce it byte
// for byte.
func (p *prepared) round(tr *tracer) error {
	runtime.GC()
	tr.begin("vichar.NewSimulator")
	c0 := cpuNow()
	sim, err := vichar.NewSimulator(p.cfg)
	p.setupCPU = append(p.setupCPU, cpuNow()-c0)
	tr.end()
	if err != nil {
		return err
	}
	defer sim.Close()

	runtime.GC()
	tr.begin("vichar.Simulator.Step")
	c0 = cpuNow()
	for sim.Now() < p.w.fillCycles {
		sim.Step()
	}
	p.fillCPU = append(p.fillCPU, cpuNow()-c0)
	tr.end()

	runtime.GC()
	tr.begin("vichar.Simulator.Snapshot")
	c0 = cpuNow()
	data, err := sim.Snapshot()
	p.snapshotCPU = append(p.snapshotCPU, cpuNow()-c0)
	tr.end()
	if err != nil {
		return err
	}
	if p.snapshot == nil {
		p.snapshot, p.ejectedAtCut = data, sim.Ejected()
	} else if !bytes.Equal(data, p.snapshot) {
		p.fail("set-up round %d: checkpoint differs from round 0's", len(p.snapshotCPU)-1)
	}
	return nil
}

func (p *prepared) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// straightThrough runs cfg from cycle 0 to its quota with no
// checkpoint, exactly as vichar.Simulator.Run would, returning its
// digest, the packets ejected by cycle cut, and the network's arena
// overflow count.
func straightThrough(cfg config.Config, cut int64) (digest uint64, ejectedAtCut int64, overflow int) {
	n := network.New(&cfg)
	defer n.Close()
	for n.Now() < cut {
		n.Step()
	}
	ejectedAtCut = n.Collector().Ejected()
	res := n.Run()
	power.NewModel(&cfg).Annotate(&res)
	return digestOf(res, n.Collector().Latencies()), ejectedAtCut, n.ArenaOverflow()
}

// auditedPass restores the warm snapshot with the invariant auditor on
// and steps it; an audit violation panics inside Step and is returned
// as an error.
func auditedPass(data []byte, cycles int64) (err error) {
	n, err := restoreNet(data, func(c *config.Config) { c.Audit = true })
	if err != nil {
		return err
	}
	defer n.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("invariant violation: %v", r)
		}
	}()
	for end := n.Now() + cycles; n.Now() < end; {
		n.Step()
	}
	return nil
}

// openSnapshot decodes a vichar.Simulator.Snapshot blob up to the
// network state, returning the reader positioned there and the
// embedded configuration with edit applied: the first half of
// vichar.RestoreWith, reached from here so the traced run can time
// LoadState alone and read the network's worklist, arena and routers.
func openSnapshot(data []byte, edit func(*config.Config)) (*snap.Reader, config.Config, error) {
	var cfg config.Config
	r, err := snap.Open(data)
	if err != nil {
		return nil, cfg, err
	}
	if err := r.Section("config"); err != nil {
		return nil, cfg, err
	}
	raw := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, cfg, err
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, cfg, err
	}
	if edit != nil {
		edit(&cfg)
	}
	return r, cfg, cfg.Validate()
}

// restoreNet rebuilds the network of a snapshot under an edited
// configuration.
func restoreNet(data []byte, edit func(*config.Config)) (*network.Network, error) {
	r, cfg, err := openSnapshot(data, edit)
	if err != nil {
		return nil, err
	}
	n := network.New(&cfg)
	if err := n.LoadState(r); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// window is one timed steady-state window: a restore from the warm
// snapshot, then a run to the measurement quota.
type window struct {
	restoreCPU time.Duration
	// cpu and wall time the run alone, restore excluded.
	cpu, wall time.Duration
	// cycles is the number of cycles the run stepped.
	cycles  int64
	heapMiB float64
	res     vichar.Results
	digest  uint64
	// rep is the index of the replica the window restored.
	rep int
}

// publicWindow restores the warm snapshot through the public API and
// runs one window, as a user of the library would.
func (p *prepared) publicWindow(tr *tracer) (window, error) {
	runtime.GC()
	tr.begin("vichar.RestoreWith")
	c0 := cpuNow()
	sim, err := vichar.RestoreWith(p.snapshot, p.overrides())
	restore := cpuNow() - c0
	tr.end()
	if err != nil {
		return window{}, err
	}
	defer sim.Close()
	runtime.GC()
	tr.begin("vichar.Simulator.Run")
	t0, c0 := wallNow(), cpuNow()
	res := sim.Run()
	cpu, wall := cpuNow()-c0, wallNow().Sub(t0)
	tr.end()
	w := window{
		restoreCPU: restore,
		cpu:        cpu,
		wall:       wall,
		cycles:     res.TotalCycles - p.w.fillCycles,
		res:        res,
		digest:     digestOf(res, sim.Latencies()),
	}
	w.heapMiB = liveHeapMiB()
	return w, nil
}

// windowsPerRound is how many windows run between two set-up rounds.
// Interleaving the rounds with the windows makes the construction,
// fill and checkpoint timings sample the same stretch of host time as
// the windows, instead of only the run's first seconds.
const windowsPerRound = 2

// minWindows is the fewest windows a run makes, whatever its budget;
// a run also gives every replica at least one window.
const minWindows = 3

// windows runs untraced windows until the deadline, rotating through
// the replicas, and at least max(minWindows, replicas) of them. A
// set-up round, also rotating through the replicas, follows every
// windowsPerRound windows while time remains.
func (s suite) windows(deadline time.Time) ([]window, error) {
	var ws []window
	rounds := 0
	for len(ws) < max(minWindows, len(s)) || wallNow().Before(deadline) {
		rep := len(ws) % len(s)
		w, err := s[rep].publicWindow(nil)
		if err != nil {
			return nil, err
		}
		w.rep = rep
		w.heapMiB -= s.checkpointMiB()
		ws = append(ws, w)
		if len(ws)%windowsPerRound == 0 && wallNow().Before(deadline) {
			if err := s[rounds%len(s)].round(nil); err != nil {
				return nil, err
			}
			rounds++
		}
	}
	return ws, nil
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// digestOf hashes everything a run reports: the results (counters,
// series, channel loads, power) and every per-packet latency sample.
func digestOf(res vichar.Results, latencies []int64) uint64 {
	h := fnv.New64a()
	data, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal results: %v", err))
	}
	h.Write(data)
	var buf [8]byte
	for _, l := range latencies {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// judge returns why a window failed, or nil. A window fails when it
// measured less than its quota (a warm-up override at or below the
// packets already ejected never opens the window: Run then reports
// zero measure cycles and all-zero statistics), when it hit the cycle
// cap, or when its digest differs from the first window's or from the
// straight-through run's.
func judge(w window, quota int, first, straight uint64) []string {
	var why []string
	if w.res.MeasuredPackets < int64(quota) || w.res.MeasureCycles <= 0 {
		why = append(why, fmt.Sprintf("measured %d of %d packets over %d cycles",
			w.res.MeasuredPackets, quota, w.res.MeasureCycles))
	}
	if w.res.Saturated {
		why = append(why, "hit the cycle cap")
	}
	if w.digest != first {
		why = append(why, fmt.Sprintf("digest %016x differs from the first window's %016x", w.digest, first))
	}
	if w.digest != straight {
		why = append(why, fmt.Sprintf("digest %016x differs from the straight-through run's %016x", w.digest, straight))
	}
	return why
}

// tally counts failed windows: those judge rejects against their own
// replica's first window and straight-through run, or every window
// when any replica failed a workload-level check.
func (s suite) tally(ws []window, log func(string)) (failed int) {
	var failures []string
	for _, p := range s {
		failures = append(failures, p.failures...)
	}
	first := map[int]uint64{}
	for i, w := range ws {
		if _, ok := first[w.rep]; !ok {
			first[w.rep] = w.digest
		}
		why := append(judge(w, s[w.rep].w.measure, first[w.rep], s[w.rep].straight), failures...)
		if len(why) > 0 {
			failed++
			log(fmt.Sprintf("window %d (replica %d) failed: %v", i, w.rep, why))
		}
	}
	return failed
}

// checkpointMiB is the size of the checkpoint blobs the suite holds,
// which a window's live heap measurement includes.
func (s suite) checkpointMiB() float64 {
	var n int
	for _, p := range s {
		n += cap(p.snapshot)
	}
	return float64(n) / (1 << 20)
}

// firstWindows returns each replica's first window, in replica order.
func (s suite) firstWindows(ws []window) []window {
	out := make([]window, len(s))
	seen := make([]bool, len(s))
	for _, w := range ws {
		if !seen[w.rep] {
			out[w.rep], seen[w.rep] = w, true
		}
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// each maps the windows through f.
func each(ws []window, f func(window) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// endToEnd reduces the untraced windows and set-up timings to the
// end-to-end metrics: host times are medians over every window or
// set-up round of every replica; simulated quantities are medians over
// the replicas of each one's first window (every window of a replica
// reports the same, or judge fails it).
func (s suite) endToEnd(ws []window) metrics {
	nodes := float64(s[0].cfg.Width * s[0].cfg.Height)
	var setup, fill, snapshot []time.Duration
	for _, p := range s {
		setup = append(setup, p.setupCPU...)
		fill = append(fill, p.fillCPU...)
		snapshot = append(snapshot, p.snapshotCPU...)
	}
	firsts := s.firstWindows(ws)
	m := metrics{}
	m.set("flit_hops_per_cpu_s", "1/s", median(each(ws, func(w window) float64 {
		return float64(w.res.Counters.LinkTraversals) / w.cpu.Seconds()
	})))
	m.set("ns_per_router_cycle", "ns", median(each(ws, func(w window) float64 {
		return float64(w.cpu.Nanoseconds()) / (float64(w.cycles) * nodes)
	})))
	m.set("setup_s", "s", median(seconds(setup)))
	m.set("fill_s", "s", median(seconds(fill)))
	m.set("snapshot_s", "s", median(seconds(snapshot)))
	m.set("restore_s", "s", median(each(ws, func(w window) float64 { return w.restoreCPU.Seconds() })))
	m.set("heap_mib", "MiB", median(each(ws, func(w window) float64 { return w.heapMiB })))
	m.set("sim_latency_p50_cycles", "cycles", median(each(firsts, func(w window) float64 { return w.res.P50Latency })))
	m.set("sim_latency_p99_cycles", "cycles", median(each(firsts, func(w window) float64 { return w.res.P99Latency })))
	m.set("sim_accepted_flits_per_node_cycle", "flits/node/cycle", median(each(firsts, func(w window) float64 {
		return w.res.Throughput / nodes
	})))
	m.set("sim_txn_p99_cycles", "cycles", median(each(firsts, func(w window) float64 { return txnP99(w.res) })))
	return m
}

// txnP99 is the p99 end-to-end transaction latency. Without the
// transaction layer every packet is a one-way transaction that retires
// at its ejection, so the packet p99 is the transaction p99.
func txnP99(res vichar.Results) float64 {
	if res.Txn != nil {
		return res.Txn.P99Latency
	}
	return res.P99Latency
}

// txnSamples is the sample count behind txnP99.
func txnSamples(res vichar.Results) int64 {
	if res.Txn != nil {
		return res.Txn.MeasuredTxns
	}
	return res.MeasuredPackets
}
