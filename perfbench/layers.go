package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"vichar"
	"vichar/internal/arbiter"
	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/core"
	"vichar/internal/flit"
	"vichar/internal/network"
	"vichar/internal/power"
	"vichar/internal/routing"
	"vichar/internal/snap"
	"vichar/internal/topology"
	"vichar/internal/traffic"
)

// layerRun is the traced run's outcome: every window it ran (each is
// judged like an end-to-end window) and the per-layer metrics.
type layerRun struct {
	windows []window
	metrics metrics
}

// layerReps sizes the traced run's fixed-cost measurements.
type layerReps struct {
	construct  int // network.New, routing tables, SaveState, LoadState
	routerTick int // restores whose routers are each ticked once
	micro      int // repetitions of each micro-benchmark loop
	microIters int // calls per micro-benchmark loop
	minPairs   int // untraced/traced window pairs
}

func layerRepsFor(tiny bool) layerReps {
	if tiny {
		return layerReps{construct: 2, routerTick: 1, micro: 2, microIters: 10_000, minPairs: 1}
	}
	return layerReps{construct: 5, routerTick: 3, micro: 5, microIters: 2_000_000, minPairs: 2}
}

// tracedWindow is one window run through network.RunWith with a hook
// timing every cycle, plus the deltas of the counters the run moved.
type tracedWindow struct {
	window
	steps                   []int64 // wall ns between consecutive hook calls
	wl                      network.WorklistStats
	mallocs, allocBytes, gc uint64
	ejected                 int64
	issued, retired         int64
}

// measureLayers runs the traced protocol: construction and checkpoint
// layers, alternating untraced and traced windows until the deadline,
// a two-worker window, one tick of every router, and micro-benchmarks
// of the buffer, arbiter, routing and traffic layers at the operating
// point the traced windows measured.
func measureLayers(p *prepared, tr *tracer, tiny bool, seed int64, deadline time.Time) (layerRun, error) {
	lr := layerRepsFor(tiny)
	m := metrics{}
	cfg := p.windowConfig()
	mesh := topology.New(cfg.Width, cfg.Height)

	tables, err := p.constructionLayers(m, tr, lr, &cfg, mesh)
	if err != nil {
		return layerRun{}, err
	}

	// Untraced and traced windows alternate, so host drift between the
	// two halves cannot masquerade as tracing overhead.
	var plain []window
	var traced []tracedWindow
	var steps []int64
	for len(traced) < lr.minPairs || wallNow().Before(deadline) {
		w, err := p.publicWindow(tr)
		if err != nil {
			return layerRun{}, err
		}
		plain = append(plain, w)
		if steps == nil {
			steps = make([]int64, 0, 2*w.cycles+1024)
		}
		tw, err := p.runTraced(tr, steps[:0])
		if err != nil {
			return layerRun{}, err
		}
		traced = append(traced, tw)
	}
	w2 := p.workersWindow(tr, 2)
	windowLayers(m, plain, traced, w2)

	tickNs, ticks, err := p.routerTicks(tr, lr.routerTick)
	if err != nil {
		return layerRun{}, err
	}
	m.set("router.tick_ns", "ns", tickNs)
	m.set("router.tick_samples", "count", float64(ticks))

	microLayers(m, tr, lr, &cfg, mesh, tables, traced[0].res, plain[0].cycles, seed)

	ws := append([]window(nil), plain...)
	for _, tw := range traced {
		ws = append(ws, tw.window)
	}
	return layerRun{windows: append(ws, w2), metrics: m}, nil
}

// constructionLayers times network construction, route-table
// construction and the checkpoint halves, returning the tables for the
// lookup micro-benchmark.
func (p *prepared) constructionLayers(m metrics, tr *tracer, lr layerReps, cfg *config.Config, mesh topology.Mesh) (*routing.Tables, error) {
	m.set("network.new_ms", "ms", medianCPU(tr, "network.New", lr.construct, nil, func() {
		network.New(cfg).Close()
	})*1e3)
	var tables *routing.Tables
	m.set("routing.tables_build_ms", "ms", medianCPU(tr, "routing.NewTables", lr.construct, nil, func() {
		tables = routing.NewTables(routeFunc(cfg), mesh)
	})*1e3)
	m.set("routing.table_bytes", "B", float64(tables.Bytes()))

	warm, err := restoreNet(p.snapshot, nil)
	if err != nil {
		return nil, err
	}
	m.set("network.savestate_ms", "ms", medianCPU(tr, "network.SaveState", lr.construct, nil, func() {
		if e := warm.SaveState(snap.NewWriter()); e != nil && err == nil {
			err = e
		}
	})*1e3)
	warm.Close()
	if err != nil {
		return nil, err
	}

	var fresh *network.Network
	var rd *snap.Reader
	m.set("network.loadstate_ms", "ms", medianCPU(tr, "network.LoadState", lr.construct, func() {
		r, c, e := openSnapshot(p.snapshot, nil)
		if e != nil {
			err = e
			return
		}
		fresh, rd = network.New(&c), r
	}, func() {
		if err == nil {
			err = fresh.LoadState(rd)
		}
	})*1e3)
	m.set("snap.bytes", "B", float64(len(p.snapshot)))
	return tables, err
}

// windowLayers reduces the windows to the network, router, core and
// transaction metrics and the tracing overhead. Counts and ratios
// accumulate over every traced window; simulated quantities come from
// the first (all windows are identical, or judge fails them).
func windowLayers(m metrics, plain []window, traced []tracedWindow, w2 window) {
	var all []int64
	var wl network.WorklistStats
	var mallocs, allocBytes, gcs uint64
	var ejected, cycles int64
	tracedCPU := make([]float64, len(traced))
	for i, tw := range traced {
		all = append(all, tw.steps...)
		wl.ComputeTicked += tw.wl.ComputeTicked
		wl.ComputeSkipped += tw.wl.ComputeSkipped
		wl.DeliverTicked += tw.wl.DeliverTicked
		wl.DeliverSkipped += tw.wl.DeliverSkipped
		mallocs += tw.mallocs
		allocBytes += tw.allocBytes
		gcs += tw.gc
		ejected += tw.ejected
		cycles += tw.cycles
		tracedCPU[i] = tw.cpu.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	m.set("network.step_ns_p50", "ns", quantile(all, 0.50))
	m.set("network.step_ns_p99", "ns", quantile(all, 0.99))
	m.set("network.step_samples", "count", float64(len(all)))
	m.set("network.compute_active_frac", "ratio", ratio(wl.ComputeTicked, wl.ComputeTicked+wl.ComputeSkipped))
	m.set("network.deliver_active_frac", "ratio", ratio(wl.DeliverTicked, wl.DeliverTicked+wl.DeliverSkipped))
	m.set("network.allocs_per_packet", "allocs/pkt", float64(mallocs)/float64(ejected))
	m.set("network.alloc_bytes_per_packet", "B/pkt", float64(allocBytes)/float64(ejected))
	m.set("network.gc_per_kcycle", "1/kcycle", 1e3*float64(gcs)/float64(cycles))
	m.set("network.workers2_speedup", "x", median(each(plain, func(w window) float64 { return w.wall.Seconds() }))/w2.wall.Seconds())

	tw := traced[0]
	c := tw.res.Counters
	m.set("router.va_grant_ratio", "ratio", ratio(c.VCGrants, c.VAOps))
	m.set("router.sa_efficiency", "ratio", ratio(c.XbarTraversals, c.SAOps))
	m.set("core.inuse_vcs_per_port", "VCs", tw.res.AvgInUseVCs)
	m.set("core.occupancy", "ratio", tw.res.AvgOccupancy)
	m.set("txn.issued", "count", float64(tw.issued))
	m.set("txn.retired", "count", float64(tw.retired))
	m.set("txn.retire_ratio", "ratio", float64(tw.retired)/float64(tw.issued))
	m.set("sim.latency_samples", "count", float64(tw.res.MeasuredPackets))
	m.set("sim.txn_samples", "count", float64(txnSamples(tw.res)))

	untraced := median(each(plain, func(w window) float64 { return w.cpu.Seconds() }))
	m.set("trace.windows", "count", float64(len(traced)))
	m.set("trace_overhead_pct", "%", 100*(median(tracedCPU)-untraced)/untraced)
}

// microLayers times single modules standalone at the operating point
// the window measured (res): buffer occupancy, in-use VC density, the
// workload's routing tables and traffic generator over a window's
// cycle count.
func microLayers(m metrics, tr *tracer, lr layerReps, cfg *config.Config, mesh topology.Mesh,
	tables *routing.Tables, res vichar.Results, cycles int64, seed int64) {
	slots := cfg.BufferSlots
	m.set("core.ubs_write_pop_ns", "ns", microNs(tr, "core.UBS.Write+Pop", lr, func(iters int) {
		writePop(core.NewUBS(slots), slots, residentFlits(res.AvgOccupancy, slots, slots-1), iters)
	}))
	m.set("buffers.generic_write_pop_ns", "ns", microNs(tr, "buffers.Generic.Write+Pop", lr, func(iters int) {
		resident := residentFlits(res.AvgOccupancy, slots, cfg.VCs*(cfg.VCDepth-1))
		writePop(buffers.NewGeneric(cfg.VCs, cfg.VCDepth), cfg.VCs, resident, iters)
	}))

	vcs := cfg.MaxVCs()
	density := res.AvgInUseVCs / float64(vcs)
	masks := requestMasks(vcs, density, seed)
	m.set("arbiter.request_density", "ratio", density)
	m.set("arbiter.arbitrate_mask_ns", "ns", microNs(tr, "arbiter.RoundRobin.ArbitrateMask", lr, func(iters int) {
		arbitrate(vcs, masks, iters)
	}))

	m.set("routing.lookup_ns", "ns", microNs(tr, "routing.Tables.CandidateMask", lr, func(iters int) {
		lookups(tables, mesh.Nodes(), iters)
	}))

	var gen *traffic.Generator
	m.set("traffic.tick_ns_per_cycle", "ns", medianCPU(tr, "traffic.Generator.Tick", lr.micro, func() {
		gen = traffic.New(cfg, mesh)
	}, func() {
		trafficTicks(gen, cycles)
	})*1e9/float64(cycles))
}

// windowEdit applies the window's protocol overrides to a snapshot's
// configuration.
func (p *prepared) windowEdit(c *config.Config) {
	o := p.overrides()
	c.WarmupPackets, c.MeasurePackets = *o.WarmupPackets, *o.MeasurePackets
}

// runTraced restores the warm snapshot into a network and runs one
// window through RunWith, timing every cycle from the hook.
func (p *prepared) runTraced(tr *tracer, steps []int64) (tracedWindow, error) {
	runtime.GC()
	tr.begin("network.New+LoadState")
	c0 := cpuNow()
	n, err := restoreNet(p.snapshot, p.windowEdit)
	restore := cpuNow() - c0
	tr.end()
	if err != nil {
		return tracedWindow{}, err
	}
	defer n.Close()
	tw := tracedWindow{}
	ej0, cr0 := n.Collector().Ejected(), n.CreatedPackets()
	var is0, rt0 int64
	if e := n.Txn(); e != nil {
		is0, rt0 = e.Issued(), e.Retired()
	}
	wl0 := n.WorklistStats()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr.begin("network.RunWith")
	t0, c0 := wallNow(), cpuNow()
	last := t0
	res, err := n.RunWith(func(int64) error {
		now := wallNow()
		steps = append(steps, int64(now.Sub(last)))
		last = now
		return nil
	})
	cpu, wall := cpuNow()-c0, wallNow().Sub(t0)
	tr.end()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return tracedWindow{}, err
	}
	cfg := p.windowConfig()
	power.NewModel(&cfg).Annotate(&res)
	wl := n.WorklistStats()
	tw.window = window{
		restoreCPU: restore,
		cpu:        cpu,
		wall:       wall,
		cycles:     res.TotalCycles - p.w.fillCycles,
		res:        res,
		digest:     digestOf(res, n.Collector().Latencies()),
	}
	tw.steps = append([]int64(nil), steps...)
	tw.wl = network.WorklistStats{
		ComputeTicked:  wl.ComputeTicked - wl0.ComputeTicked,
		ComputeSkipped: wl.ComputeSkipped - wl0.ComputeSkipped,
		DeliverTicked:  wl.DeliverTicked - wl0.DeliverTicked,
		DeliverSkipped: wl.DeliverSkipped - wl0.DeliverSkipped,
	}
	tw.mallocs = m1.Mallocs - m0.Mallocs
	tw.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	tw.gc = uint64(m1.NumGC - m0.NumGC)
	tw.ejected = n.Collector().Ejected() - ej0
	if e := n.Txn(); e != nil {
		tw.issued, tw.retired = e.Issued()-is0, e.Retired()-rt0
	} else {
		// Open loop: each packet is a one-way transaction, issued at
		// creation and retired at ejection.
		tw.issued, tw.retired = n.CreatedPackets()-cr0, tw.ejected
	}
	return tw, nil
}

// workersWindow runs one untraced window on a kernel with the given
// worker count. Snapshots record the kernel's shard count, so the
// network is filled to the cut at that count rather than restored; the
// window's digest must match the serial windows'.
func (p *prepared) workersWindow(tr *tracer, workers int) window {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	cfg := p.windowConfig()
	cfg.Workers = workers
	n := network.New(&cfg)
	defer n.Close()
	for n.Now() < p.w.fillCycles {
		n.Step()
	}
	runtime.GC()
	tr.begin(fmt.Sprintf("network.Run workers=%d", workers))
	t0, c0 := wallNow(), cpuNow()
	res := n.Run()
	cpu, wall := cpuNow()-c0, wallNow().Sub(t0)
	tr.end()
	power.NewModel(&cfg).Annotate(&res)
	return window{
		cpu:    cpu,
		wall:   wall,
		cycles: res.TotalCycles - p.w.fillCycles,
		res:    res,
		digest: digestOf(res, n.Collector().Latencies()),
	}
}

// routerTicks restores the warm snapshot reps times and ticks every
// router once at the next cycle, each on its own, then discards the
// network. It returns the median over restores of the mean wall ns of
// one Tick, and the number of ticks timed.
func (p *prepared) routerTicks(tr *tracer, reps int) (float64, int, error) {
	var means []float64
	ticks := 0
	for i := 0; i < reps; i++ {
		n, err := restoreNet(p.snapshot, nil)
		if err != nil {
			return 0, 0, err
		}
		nodes := n.Mesh().Nodes()
		next := n.Now() + 1
		var total time.Duration
		tr.begin("router.Router.Tick")
		for id := 0; id < nodes; id++ {
			r := n.Router(id)
			t0 := wallNow()
			r.Tick(next)
			total += wallNow().Sub(t0)
		}
		tr.end()
		n.Close()
		means = append(means, float64(total.Nanoseconds())/float64(nodes))
		ticks += nodes
	}
	return median(means), ticks, nil
}

// medianCPU runs call reps times under a span, each after prep (when
// non-nil) and a forced collection, and returns the median CPU
// seconds of one call.
func medianCPU(tr *tracer, name string, reps int, prep, call func()) float64 {
	out := make([]float64, reps)
	for i := range out {
		if prep != nil {
			prep()
		}
		runtime.GC()
		tr.begin(name)
		c0 := cpuNow()
		call()
		out[i] = (cpuNow() - c0).Seconds()
		tr.end()
	}
	return median(out)
}

// microNs times loop(iters) lr.micro times and returns the median CPU
// ns of one iteration.
func microNs(tr *tracer, name string, lr layerReps, loop func(iters int)) float64 {
	return medianCPU(tr, name, lr.micro, nil, func() { loop(lr.microIters) }) * 1e9 / float64(lr.microIters)
}

// routeFunc is the routing function a configuration's routers use.
func routeFunc(cfg *config.Config) routing.Function {
	if cfg.Routing == config.MinimalAdaptive {
		return routing.MinimalAdaptive{}
	}
	return routing.XY{}
}

// residentFlits converts a buffer occupancy fraction into a count of
// flits held resident in a micro-benchmarked buffer, capped so a write
// always finds room.
func residentFlits(occupancy float64, slots, limit int) int {
	k := int(math.Round(occupancy * float64(slots)))
	return max(0, min(k, limit))
}

// sink keeps micro-benchmark results live so the compiler cannot drop
// the calls.
var sink int

// writePop writes one flit into buffer b, which holds resident flits
// spread over its vcs VCs, and pops the head of the same VC a cycle
// later, iters times: occupancy stays at resident while every VC is
// exercised in turn.
func writePop(b buffers.Buffer, vcs, resident, iters int) {
	pkt := &flit.Packet{Size: 1}
	for i := 0; i < resident; i++ {
		if err := b.Write(&flit.Flit{Pkt: pkt, VC: i % vcs}, 0); err != nil {
			panic(err)
		}
	}
	f := &flit.Flit{Pkt: pkt}
	now := int64(1)
	for i := 0; i < iters; i++ {
		f.VC = i % vcs
		if err := b.Write(f, now); err != nil {
			panic(err)
		}
		var err error
		if f, err = b.Pop(i%vcs, now+1); err != nil {
			panic(err)
		}
		now += 2
	}
	sink += b.Occupied()
}

// requestMasks draws 256 request masks over n inputs, each input
// requesting with probability density.
func requestMasks(n int, density float64, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	words := (n + 63) / 64
	masks := make([][]uint64, 256)
	for i := range masks {
		masks[i] = make([]uint64, words)
		for b := 0; b < n; b++ {
			if rng.Float64() < density {
				masks[i][b>>6] |= 1 << uint(b&63)
			}
		}
	}
	return masks
}

// arbitrate runs a round-robin arbiter over the request masks.
func arbitrate(n int, masks [][]uint64, iters int) {
	a := arbiter.NewRoundRobin(n)
	for i := 0; i < iters; i++ {
		sink += a.ArbitrateMask(masks[i&(len(masks)-1)])
	}
}

// lookups sweeps CandidateMask over every (cur, dst) pair until iters
// lookups have been made.
func lookups(t *routing.Tables, nodes, iters int) {
	acc := uint8(0)
	for done := 0; done < iters; {
		for cur := 0; cur < nodes && done < iters; cur++ {
			for dst := 0; dst < nodes && done < iters; dst++ {
				acc ^= t.CandidateMask(cur, dst)
				done++
			}
		}
	}
	sink += int(acc)
}

// trafficTicks ticks a traffic generator for cycles cycles,
// discarding the packets it creates.
func trafficTicks(g *traffic.Generator, cycles int64) {
	emitted := 0
	emit := func(src, dst, size int) { emitted++ }
	for c := int64(1); c <= cycles; c++ {
		g.Tick(c, emit)
	}
	sink += emitted
}

// quantile returns the q-quantile of ascending-sorted xs by the
// nearest-rank rule (0 for none).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, i)])
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
