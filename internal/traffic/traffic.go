// Package traffic implements the paper's workload generators: the
// temporal injection processes (Uniform Random Bernoulli injection
// and Self-Similar Pareto ON/OFF bursts) and the spatial destination
// patterns (Normal Random and Tornado from the paper's evaluation,
// plus the standard Transpose, Bit-Complement and Hotspot patterns).
package traffic

import (
	"fmt"
	"math"

	"vichar/internal/config"
	"vichar/internal/rng"
	"vichar/internal/snap"
	"vichar/internal/topology"
)

// Generator produces packet creation events for every node. Each node
// owns an independent deterministic random stream so results are
// reproducible and insensitive to node iteration order. The streams
// are rng.Stream draw-counting shims, so a generator's position can
// be checkpointed as per-node (seed, draws) pairs and restored
// bit-exactly (SaveState/LoadState).
type Generator struct {
	cfg     *config.Config
	mesh    topology.Mesh
	pktProb float64 // per-cycle packet probability at the target rate
	rngs    []*rng.Stream
	onoff   []onOffState // used when cfg.Traffic == SelfSimilar
	peak    float64      // ON-state injection rate, flits/cycle
	hot     int          // hotspot destination node

	// Uniform-random lookahead (see scan), derived state that is never
	// checkpointed. For node i the trials of cycles first[i] ..
	// next[i]-1 all failed and each took one generator step; the trial
	// of cycle next[i] has been drawn too, with outcome hit[i]; base[i]
	// is the stream's draw count before the scan.
	next  []int64
	hit   []bool
	base  []uint64
	first []int64
	ahead bool  // the lookahead is valid; false after New and LoadState
	now   int64 // cycle of the latest Tick
}

// scanHorizon caps how many cycles one lookahead scan draws. Without
// it a tiny rate (Validate accepts 1e-9) would draw billions of
// trials per node on the first tick; at the cap the scan simply stops
// and resumes once the simulation reaches it.
const scanHorizon = 1 << 12

// onOffState is one Pareto ON/OFF source: ON periods inject at the
// peak rate, OFF periods are silent; both durations are Pareto
// distributed, whose heavy tail produces self-similar aggregate
// traffic.
type onOffState struct {
	on        bool
	remaining int64
}

// Shape parameters of the ON/OFF source. alphaOn=1.9 is the classic
// measured Ethernet value (finite mean, infinite variance);
// meanOn=40 cycles keeps bursts several packets long.
const (
	alphaOn  = 1.9
	alphaOff = 1.25
	meanOn   = 40.0
)

// seedFor derives the node's stream seed from the run seed; the large
// odd multiplier decorrelates adjacent node streams.
func seedFor(seed int64, node int) int64 {
	return seed*1_000_003 + int64(node)*7_919 + 11
}

// New returns a generator for the configuration. It panics on a
// configuration Validate would reject as unrealizable (rate above the
// ON-peak for self-similar traffic, transpose on a rectangle).
func New(cfg *config.Config, mesh topology.Mesh) *Generator {
	g := &Generator{
		cfg:     cfg,
		mesh:    mesh,
		pktProb: cfg.InjectionRate / meanPacketSize(cfg),
		rngs:    make([]*rng.Stream, mesh.Nodes()),
		peak:    1.0,
		hot:     mesh.Node(mesh.Width/2, mesh.Height/2),
	}
	for i := range g.rngs {
		// Distinct, seed-derived stream per node.
		g.rngs[i] = rng.New(seedFor(cfg.Seed, i))
	}
	if cfg.Dest == config.Transpose && mesh.Width != mesh.Height {
		panic(fmt.Sprintf("traffic: transpose needs a square mesh, got %dx%d", mesh.Width, mesh.Height))
	}
	switch cfg.Traffic {
	case config.UniformRandom:
		n := mesh.Nodes()
		g.next = make([]int64, n)
		g.hit = make([]bool, n)
		g.base = make([]uint64, n)
		g.first = make([]int64, n)
	case config.SelfSimilar:
		if cfg.InjectionRate >= g.peak {
			panic(fmt.Sprintf("traffic: self-similar rate %g must stay below the ON-peak %g", cfg.InjectionRate, g.peak))
		}
		g.onoff = make([]onOffState, mesh.Nodes())
		for i := range g.onoff {
			// Start each source in an OFF period drawn from the
			// configured rate's own OFF distribution: a fixed
			// Int63n(meanOn) phase would start low-rate runs with OFF
			// periods far shorter than steady state, biasing the early
			// cycles toward synchronized over-injection.
			g.onoff[i] = onOffState{on: false, remaining: g.offPeriod(g.rngs[i])}
		}
	default:
		panic(fmt.Sprintf("traffic: unknown process %v", cfg.Traffic))
	}
	return g
}

// offPeriod draws one OFF-period length for the configured rate.
func (g *Generator) offPeriod(stream *rng.Stream) int64 {
	mo := g.meanOff()
	if math.IsInf(mo, 1) {
		return math.MaxInt64 / 2
	}
	return pareto(stream, alphaOff, mo)
}

// meanPacketSize returns the expected flits per packet, accounting
// for the variable-size protocol.
func meanPacketSize(cfg *config.Config) float64 {
	if cfg.PacketSizeMax > cfg.PacketSize {
		return float64(cfg.PacketSize+cfg.PacketSizeMax) / 2
	}
	return float64(cfg.PacketSize)
}

// meanOff returns the OFF-period mean that makes the long-run average
// rate equal the configured injection rate given the ON peak.
func (g *Generator) meanOff() float64 {
	r := g.cfg.InjectionRate
	if r <= 0 {
		return math.Inf(1)
	}
	return meanOn * (g.peak - r) / r
}

// pareto draws a Pareto(alpha, xm) variate where xm is derived from
// the requested mean: mean = alpha*xm/(alpha-1).
func pareto(stream *rng.Stream, alpha, mean float64) int64 {
	xm := mean * (alpha - 1) / alpha
	u := stream.Float64()
	for u == 0 {
		u = stream.Float64()
	}
	d := xm / math.Pow(u, 1/alpha)
	if d < 1 {
		d = 1
	}
	if d > 1e7 {
		d = 1e7 // clamp the heavy tail so one draw cannot stall a run
	}
	return int64(d)
}

// Tick advances every source by one cycle and calls
// emit(src, dst, size) for each packet created this cycle (at most
// one per node per cycle). Destination never returns the source
// itself, so every generated packet is emitted and each node's
// measured injection rate matches the configured offered load.
//
// Ticks are expected on consecutive cycles. A uniform-random node
// whose pre-drawn trial is due draws the packet's Destination and
// PacketSize and then scans ahead to its next packet; every other
// node draws nothing.
func (g *Generator) Tick(now int64, emit func(src, dst, size int)) {
	if g.cfg.Traffic == config.SelfSimilar {
		for node := range g.onoff {
			if g.generates(node) {
				emit(node, g.Destination(node), g.PacketSize(node))
			}
		}
		return
	}
	if g.pktProb <= 0 {
		return
	}
	if !g.ahead {
		for node := range g.next {
			g.scan(node, now)
		}
		g.ahead = true
	}
	g.now = now
	for node, c := range g.next {
		if c != now {
			continue
		}
		if g.hit[node] {
			emit(node, g.Destination(node), g.PacketSize(node))
		}
		g.scan(node, now+1)
	}
}

// scan draws the node's Bernoulli trials for cycles first, first+1,
// ... in one sequential pass over its stream: exactly the Float64
// draws per-cycle ticking would make on those cycles, in the same
// order. It stops at the first success, at a draw that took more than
// one generator step (Float64's rare retry, which would break the
// one-step-per-cycle count SaveState relies on), or at scanHorizon,
// recording the stopping cycle in next and that draw's outcome in hit.
func (g *Generator) scan(node int, first int64) {
	stream, p := g.rngs[node], g.pktProb
	base := stream.Draws()
	g.base[node], g.first[node] = base, first
	for c, d := first, base+1; ; c, d = c+1, d+1 {
		f := stream.Float64()
		if f < p || stream.Draws() != d || c-first == scanHorizon-1 {
			g.next[node], g.hit[node] = c, f < p
			return
		}
	}
}

// PacketSize draws the next packet's flit count for a source node.
func (g *Generator) PacketSize(node int) int {
	if g.cfg.PacketSizeMax > g.cfg.PacketSize {
		span := g.cfg.PacketSizeMax - g.cfg.PacketSize + 1
		return g.cfg.PacketSize + g.rngs[node].Intn(span)
	}
	return g.cfg.PacketSize
}

// generates decides whether the node's Pareto ON/OFF source creates a
// packet this cycle: OFF periods draw nothing, ON cycles draw one trial
// at the peak rate.
func (g *Generator) generates(node int) bool {
	stream := g.rngs[node]
	st := &g.onoff[node]
	for st.remaining <= 0 {
		st.on = !st.on
		if st.on {
			st.remaining = pareto(stream, alphaOn, meanOn)
		} else {
			st.remaining = g.offPeriod(stream)
		}
	}
	st.remaining--
	if !st.on {
		return false
	}
	return stream.Float64() < g.peak/meanPacketSize(g.cfg)
}

// Destination draws a destination for a packet created at src
// according to the configured spatial pattern. Fixed permutation
// patterns map some sources to themselves (Transpose on the mesh
// diagonal, Bit-Complement on the center of an odd-sized mesh); a
// self-addressed packet would never enter the network, silently
// under-delivering the configured offered load at exactly those
// nodes, so such sources fall back to a uniform draw over the other
// nodes. The fallback consumes the node's own RNG stream, keeping the
// draw order deterministic and independent of other nodes.
func (g *Generator) Destination(src int) int {
	stream := g.rngs[src]
	switch g.cfg.Dest {
	case config.NormalRandom:
		return g.uniformOther(stream, src)
	case config.Tornado:
		// Tornado offsets each packet ceil(k/2)-1 hops along X
		// (Singh et al., ISCA 2003), stressing the X bisection.
		x, y := g.mesh.XY(src)
		off := (g.mesh.Width+1)/2 - 1
		if off == 0 {
			off = 1
		}
		return g.mesh.Node((x+off)%g.mesh.Width, y)
	case config.Transpose:
		// (x,y) -> (y,x); the mesh is square (enforced by Validate and
		// by New), so the swapped coordinates are always in range.
		x, y := g.mesh.XY(src)
		if dst := g.mesh.Node(y, x); dst != src {
			return dst
		}
		return g.uniformOther(stream, src)
	case config.BitComplement:
		if dst := g.mesh.Nodes() - 1 - src; dst != src {
			return dst
		}
		return g.uniformOther(stream, src)
	case config.Hotspot:
		// HotspotFraction is used exactly as configured: Default()
		// carries 0.1 and Validate rejects a non-positive fraction.
		if src != g.hot && stream.Float64() < g.cfg.HotspotFraction {
			return g.hot
		}
		return g.uniformOther(stream, src)
	default:
		//vichar:invariant Validate closes the destination-pattern enum before a generator is built
		panic(fmt.Sprintf("traffic: unknown destination pattern %v", g.cfg.Dest))
	}
}

// uniformOther draws uniformly among all nodes except src.
func (g *Generator) uniformOther(stream *rng.Stream, src int) int {
	n := g.mesh.Nodes()
	d := stream.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// HotNode returns the hotspot destination (the mesh center).
func (g *Generator) HotNode() int { return g.hot }

// SaveState serializes the generator's mutable state: per-node stream
// draw counts plus the ON/OFF source phases. Seeds are not stored —
// they re-derive from the config at restore time. The uniform-random
// lookahead is not stored either: a scanned node's count is the one
// per-cycle drawing would have reached by the latest tick, which is
// exact because every trial the scan drew before next took one step.
func (g *Generator) SaveState(w *snap.Writer) {
	w.Section("traffic")
	w.Int(len(g.rngs))
	for i, s := range g.rngs {
		d := s.Draws()
		if g.ahead {
			d = g.base[i] + uint64(g.now-g.first[i]+1)
		}
		w.U64(d)
	}
	w.Int(len(g.onoff))
	for _, st := range g.onoff {
		w.Bool(st.on)
		w.I64(st.remaining)
	}
}

// LoadState restores the state written by SaveState into a generator
// freshly constructed from the same structural configuration: each
// node stream is fast-forwarded to its saved draw count — in place,
// from the position construction left it at, unless construction
// already drew past it (rng.Reposition). The lookahead is dropped and
// rebuilt by the next Tick at the generator's own rate, so a restore
// under a different InjectionRate switches rate on that very cycle.
func (g *Generator) LoadState(r *snap.Reader) error {
	if err := r.Section("traffic"); err != nil {
		return err
	}
	g.ahead = false
	if n := r.Int(); n != len(g.rngs) {
		return fmt.Errorf("traffic: snapshot has %d node streams, generator has %d", n, len(g.rngs))
	}
	for i := range g.rngs {
		g.rngs[i] = rng.Reposition(g.rngs[i], seedFor(g.cfg.Seed, i), r.U64())
	}
	if n := r.Int(); n != len(g.onoff) {
		return fmt.Errorf("traffic: snapshot has %d ON/OFF sources, generator has %d", n, len(g.onoff))
	}
	for i := range g.onoff {
		g.onoff[i] = onOffState{on: r.Bool(), remaining: r.I64()}
	}
	return r.Err()
}
