// Package router implements the 4-stage pipelined virtual-channel
// router of the paper's evaluation platform: Routing Computation
// (RC), Virtual-channel Allocation (VA), Switch Allocation (SA) and
// crossbar traversal (ST), followed by a one-cycle link. Flow control
// is credit-based wormhole.
//
// The input buffer organization is pluggable (buffers.Buffer), which
// is how the same router hosts the generic, ViChaR, DAMQ and FC-CB
// schemes; the VA structure switches between the generic two-stage
// allocator of paper Figure 7(a) and ViChaR's input-port arbitration
// plus Token Dispenser of Figure 7(b).
package router

import (
	"fmt"
	"math/bits"

	"vichar/internal/arbiter"
	"vichar/internal/audit"
	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/core"
	"vichar/internal/faults"
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/routing"
	"vichar/internal/stats"
	"vichar/internal/topology"
)

// Pipeline latencies: a flit granted the switch at cycle t traverses
// the crossbar at t+1 and the link at t+2 (arriving downstream at
// t+2); a credit sent at t is visible upstream at t+1.
const (
	// FlitDelay is switch traversal plus link traversal in cycles.
	FlitDelay = 2
	// CreditDelay is the credit return latency in cycles.
	CreditDelay = 1
)

// FlitSender carries flits downstream; implemented by network links.
type FlitSender interface {
	SendFlit(f *flit.Flit, now int64)
}

// CreditSender carries credits upstream; implemented by network
// links.
type CreditSender interface {
	SendCredit(c flit.Credit, now int64)
}

// perVCAllocator is the extra allocation surface of fixed-VC credit
// views (generic, DAMQ, FC-CB, sink): the generic two-stage VA picks
// a specific output VC in stage 1 and claims it only if it wins
// stage 2.
type perVCAllocator interface {
	// GrantableVCIn returns a grantable VC within the class's chunk of
	// the kind's ID range, scanning round-robin from hint, or -1. It
	// does not claim.
	GrantableVCIn(class int, escape bool, hint int) int
	// ClaimVCIn marks the specific VC granted to a packet of the class.
	ClaimVCIn(class, vc int)
}

// VC allocation state machine of one input virtual channel.
const (
	vcIdle uint8 = iota
	vcWaitVA
	vcActive
)

type vcState struct {
	state     uint8
	pkt       *flit.Packet
	cands     []int
	outPort   int
	outVC     int
	waitSince int64
}

type inputPort struct {
	buf buffers.Buffer
	// ubs is buf when it is a ViChaR unified buffer, nil for the fixed
	// organizations: the SA scan masks its active VCs with the UBS
	// readiness overlay (one inlined word load per 64 VCs) instead of
	// polling Ready per VC through the interface.
	ubs    *core.UBS
	vc     []vcState
	credit CreditSender

	// Per-VC scan masks, one bit per VC id (DESIGN.md §14). The tick
	// stages iterate set bits instead of scanning every VC, and the
	// network's active-router worklist derives quiescence from them.
	// Invariants (cross-checked by AuditInvariants): bit v of bufMask
	// is set iff buf.Len(v) > 0; vaMask iff vc[v] is in vcWaitVA;
	// actMask iff vc[v] is in vcActive.
	bufMask []uint64
	vaMask  []uint64
	actMask []uint64

	// outInfo[v] packs the granted route of an active VC:
	// outPort<<outInfoShift | outVC, mirrored from vc[v] at VA-grant
	// time. The SA scan polls every active VC every cycle and needs
	// only this pair; the packed side array keeps that poll off the
	// much wider vcState records. Meaningful only while actMask bit v
	// is set (cross-checked by AuditInvariants).
	outInfo []int
}

// outInfoShift packs (outPort, outVC) into one outInfo word; 16 bits
// of VC id is far beyond any configured unified buffer depth.
const outInfoShift = 16

type outputPort struct {
	view CreditView
	// alloc is view's per-VC allocation surface for the generic VA,
	// bound at wiring time; nil for ViChaR dispenser views.
	alloc perVCAllocator
	conn  FlitSender
}

// Router is one 5-port pipelined NoC router.
type Router struct {
	id   int
	cfg  *config.Config
	mesh topology.Mesh
	// tables memoizes the routing function and the escape network over
	// every (cur, dst) pair (DESIGN.md §17): RC is a flat array load,
	// with no interface dispatch left on the steady-state tick. Shared
	// across the network's routers when an arena is supplied.
	tables *routing.Tables

	in  []inputPort
	out []outputPort
	// outVic[p] is out[p].view when it is a ViChaR dispenser view, nil
	// for other view kinds (including the ejection sink). The SA scan
	// polls CanSendFlit on every requesting VC every cycle; the direct
	// call inlines, and the flat pointer array's 8-byte stride beats
	// computing an offset into the wide outputPort records.
	outVic []*vicharView

	maxVCs int
	ports  int
	maskW  int // uint64 words per per-VC mask

	// Arbiter banks are contiguous value slices (struct-of-arrays): a
	// tick touches all of them, so their priority pointers share cache
	// lines instead of hiding behind per-arbiter heap pointers.
	vaS1  []arbiter.RoundRobin // per input port, over its VCs
	vaS2  []arbiter.RoundRobin // ViChaR: per output port, over input ports
	vaS2G []arbiter.RoundRobin // generic: per (output port, output VC) flat, over input port x VC
	saS1  []arbiter.RoundRobin // per input port, over its VCs
	saS2  []arbiter.RoundRobin // per output port, over input ports

	// Counters accumulates activity events since construction; the
	// network snapshots it around the measurement window, and the
	// metrics registry publishes its allocator, crossbar and reroute
	// counts at each flush.
	Counters stats.Counters

	// probe records what Counters lacks — per-port buffer, stall and
	// credit-stall series, RC, allocator denials and the event trace —
	// into the live metrics registry; nil (all calls no-ops) unless
	// the network attached an observability layer.
	probe *metrics.RouterProbe

	// faults is the router's fault-model state (port stalls, dead
	// output links); nil without Config.Faults. escapeTree replaces
	// the XY escape network when the fault schedule kills links: an
	// up*/down* tree over the surviving links that preserves Duato
	// deadlock freedom.
	faults     *faults.RouterState
	escapeTree *routing.EscapeTree

	// scratch state reused across ticks to avoid per-cycle allocation
	saNominee []int       // per input port: winning VC or -1
	reqWords  []uint64    // request-mask scratch, ports*maxVCs bits wide
	saReq     []bool      // per input port, for the port-wide stage-2 arbiters
	opReq     []uint64    // per output port: input-port request bits (stage 2)
	vaNoms    []vaNominee // ViChaR VA: per input port nominee
	vaPicks   []vaPick    // generic VA stage 1, by flat input-VC id
	vaFlats   []int       // flat ids picked this cycle, ascending
	vaKeys    []int       // contested output VCs (op*maxVCs+ovc)
	vaGroups  [][]int     // per output VC: requesting flat ids

	// VA candidate-masking bitmasks (DESIGN.md §17), filled lazily
	// within each VA tick: for every (class, escape) kind,
	// vaKnown[kind] holds one bit per output port already polled this
	// tick and vaFree[kind] the subset that can grant a VC of that
	// kind (unconnected and dead-link ports stay clear); vaSlotsKnown/
	// vaSlots memoize FreeSlots the same way. VA stage 1 performs no
	// credit-view mutations — grants happen only in stage 2 — so each
	// (port, kind) is polled at most once per cycle no matter how many
	// waiting VCs nominate it, and every repeat lookup (the stage-1
	// winner's re-score included) is a pure bit test. Decisions are
	// bit-exactly those of per-VC polling.
	vaKnown      []uint64 // per kind: ports polled this tick
	vaFree       []uint64 // per kind: ports that can grant
	vaSlots      []int    // per output port: FreeSlots memo
	vaSlotsKnown uint64   // ports with a valid vaSlots entry this tick
}

// vaNominee is the per-input-port nomination of the ViChaR VA stage:
// the winning input VC (or -1), its chosen output port and whether
// the packet is on the escape network.
type vaNominee struct {
	invc   int
	port   int
	escape bool
}

// routeFor returns the routing function implementation for the
// configuration.
func routeFor(cfg *config.Config) routing.Function {
	if cfg.Routing == config.MinimalAdaptive {
		return routing.MinimalAdaptive{}
	}
	return routing.XY{}
}

// newBuffer builds the input-port buffer for the configuration,
// drawing the UBS's arrays from the arena when one is supplied.
func newBuffer(cfg *config.Config, a *Arena) buffers.Buffer {
	switch cfg.Arch {
	case config.Generic:
		return buffers.NewGeneric(cfg.VCs, cfg.VCDepth)
	case config.ViChaR:
		return core.NewUBSIn(a.Soa(), cfg.BufferSlots, cfg.MaxVCs())
	case config.DAMQ:
		return buffers.NewDAMQ(cfg.VCs, cfg.BufferSlots, cfg.DAMQDelay)
	case config.FCCB:
		return buffers.NewFCCB(cfg.VCs, cfg.BufferSlots)
	default:
		panic(fmt.Sprintf("router: unknown buffer architecture %v", cfg.Arch))
	}
}

// New constructs router id on the mesh. Ports must be wired with
// ConnectOutput/ConnectInputCredit before the first tick.
func New(id int, cfg *config.Config, mesh topology.Mesh) *Router {
	return NewIn(nil, id, cfg, mesh)
}

// NewIn is New drawing the router's hot state — buffers, VC state
// machines, scan masks, arbiter banks — from the network arena, so
// adjacent routers' tick-path state packs contiguously (DESIGN.md
// §14). A nil arena allocates normally.
func NewIn(a *Arena, id int, cfg *config.Config, mesh topology.Mesh) *Router {
	p := cfg.Ports()
	r := &Router{
		id:     id,
		cfg:    cfg,
		mesh:   mesh,
		tables: a.Tables(),
		maxVCs: cfg.MaxVCs(),
		ports:  p,
		maskW:  maskWords(cfg.MaxVCs()),

		in:     make([]inputPort, p),
		out:    make([]outputPort, p),
		outVic: make([]*vicharView, p),

		saNominee: make([]int, p),
	}
	if r.tables == nil {
		// Standalone construction (unit tests, nil arena): build the
		// router's own copy of the memoization tables.
		r.tables = routing.NewTables(routeFor(cfg), mesh)
	}
	soa := a.Soa()
	for i := 0; i < p; i++ {
		in := &r.in[i]
		in.buf = newBuffer(cfg, a)
		in.ubs, _ = in.buf.(*core.UBS)
		in.vc = a.takeVCs(r.maxVCs)
		in.bufMask = soa.TakeWords(r.maskW)
		in.vaMask = soa.TakeWords(r.maskW)
		in.actMask = soa.TakeWords(r.maskW)
		in.outInfo = soa.TakeInts(r.maxVCs)
	}
	r.vaS1 = a.takeBank(p, r.maxVCs)
	r.saS1 = a.takeBank(p, r.maxVCs)
	r.vaS2 = a.takeBank(p, p)
	r.saS2 = a.takeBank(p, p)
	if cfg.Arch != config.ViChaR {
		r.vaS2G = a.takeBank(p*r.maxVCs, p*r.maxVCs)
	}
	r.reqWords = make([]uint64, maskWords(p*r.maxVCs))
	r.saReq = make([]bool, p)
	r.opReq = make([]uint64, p)
	r.vaNoms = make([]vaNominee, p)
	r.vaKnown = make([]uint64, cfg.VCClasses()*2)
	r.vaFree = make([]uint64, cfg.VCClasses()*2)
	r.vaSlots = make([]int, p)
	if cfg.Arch != config.ViChaR {
		r.vaPicks = make([]vaPick, p*r.maxVCs)
		r.vaFlats = make([]int, 0, p*r.maxVCs)
		r.vaKeys = make([]int, 0, p*r.maxVCs)
		r.vaGroups = make([][]int, p*r.maxVCs)
	}
	return r
}

// ID returns the router's node id.
func (r *Router) ID() int { return r.id }

// ConnectOutput wires output port p to a downstream link and the
// credit view mirroring the downstream input port (or the sink view
// for the local ejection port). Unconnected cardinal ports on mesh
// edges stay nil; the routing function never selects them.
func (r *Router) ConnectOutput(p int, conn FlitSender, view CreditView) {
	r.out[p].conn = conn
	r.out[p].view = view
	switch v := view.(type) {
	case *vicharView:
		r.outVic[p] = v
	case perVCAllocator:
		r.out[p].alloc = v
	}
	if r.cfg.Arch != config.ViChaR && r.out[p].alloc == nil {
		//vichar:invariant non-ViChaR configurations always wire per-VC credit views; a mismatch is a construction bug
		panic(fmt.Sprintf("router %d: %T cannot allocate per-VC", r.id, view))
	}
}

// ConnectInputCredit wires input port p's upstream credit channel.
func (r *Router) ConnectInputCredit(p int, credit CreditSender) {
	r.in[p].credit = credit
}

// SetProbe attaches the live-metrics probe. Like the ports it must be
// wired before the first tick; a nil probe (the default) keeps every
// instrumentation site a single pointer check.
func (r *Router) SetProbe(p *metrics.RouterProbe) { r.probe = p }

// SetFaults attaches the router's fault-model state; wired before the
// first tick, nil (the default) keeps the fault paths a pointer check.
func (r *Router) SetFaults(s *faults.RouterState) { r.faults = s }

// SetEscapeTree switches deadlock-escape routing from the XY escape
// network to a fault-aware up*/down* tree; wired before the first
// tick when the fault schedule contains hard link failures.
func (r *Router) SetEscapeTree(t *routing.EscapeTree) { r.escapeTree = t }

// OutputView returns the credit view at output port p (tests and the
// network interface use it).
func (r *Router) OutputView(p int) CreditView { return r.out[p].view }

// ReceiveFlit writes a delivered flit into input port p's buffer.
// The upstream credit view guarantees space; a full buffer here is a
// flow-control bug and panics.
func (r *Router) ReceiveFlit(p int, f *flit.Flit, now int64) {
	if err := r.in[p].buf.Write(f, now); err != nil {
		//vichar:invariant upstream credit view guarantees space; a full buffer is a flow-control conservation bug
		panic(fmt.Sprintf("router %d port %d: %v", r.id, p, err))
	}
	r.in[p].bufMask[f.VC>>6] |= 1 << (uint(f.VC) & 63)
	r.Counters.BufferWrites++
	r.probe.BufferWrite(p)
}

// ReceiveCredit applies an upstream-bound credit at output port p.
func (r *Router) ReceiveCredit(p int, c flit.Credit) { r.out[p].view.OnCredit(c) }

// Tick advances the router one cycle. Stages run in reverse pipeline
// order (SA, then VA, then RC) so a flit progresses exactly one stage
// per cycle; switch traversal is folded into the FlitDelay of the
// link enqueue performed by SA winners.
//
// In the speculative organization (Peh & Dally, HPCA 2001; paper
// §3.1) VA runs before SA within the cycle, so a head granted a VC
// bids for the switch the same cycle — speculation modeled as always
// succeeding — shortening the pipeline to RC, VA/SA, ST.
//
// Tick is the compute step of the network's two-phase cycle kernel
// (DESIGN.md §10) and honors its ownership contract: it reads and
// writes only this router's state — input buffers, VC state machines,
// per-output credit views — plus the write ends of links this router
// owns (output flit links and input-port credit links). It never
// touches another router, so the kernel may run all routers' Ticks
// concurrently between barriers.
func (r *Router) Tick(now int64) {
	if r.faults != nil {
		r.faults.BeginCycle(now)
		for p := 0; p < r.ports; p++ {
			if r.faults.Stalled(p) {
				r.Counters.StallCycles++
				r.probe.PortStall(p)
			}
		}
	}
	r.escapeCheck(now)
	if r.cfg.Speculative {
		r.tickVA(now)
		r.tickSA(now)
	} else {
		r.tickSA(now)
		r.tickVA(now)
	}
	r.tickRC(now)
}

// tickRC performs routing computation for newly arrived head flits.
// Buffer write happens in parallel with RC, so a head arriving this
// cycle routes this cycle (Front is probed at now+1).
func (r *Router) tickRC(now int64) {
	for ip := range r.in {
		if r.faults != nil && r.faults.Stalled(ip) {
			continue
		}
		in := &r.in[ip]
		// Idle VCs holding flits: buffered but neither waiting nor
		// granted. The mask invariants make the state check implicit.
		for wi := range in.bufMask {
			for m := in.bufMask[wi] &^ (in.vaMask[wi] | in.actMask[wi]); m != 0; {
				b := bits.TrailingZeros64(m)
				m &^= 1 << uint(b)
				v := wi<<6 + b
				st := &in.vc[v]
				f := in.buf.Front(v, now+1)
				if f == nil {
					continue // still in (DAMQ) arrival bookkeeping
				}
				if !f.IsHead() {
					//vichar:invariant an idle VC must start with a head flit; a body here means VC state-machine corruption
					panic(fmt.Sprintf("router %d: %s at head of idle vc %d", r.id, f, v))
				}
				st.pkt = f.Pkt
				if f.Pkt.Escaped {
					//vichar:alloc appends into the VC's cands scratch, which forward preserves across packets; capacity settles at ≤ 2
					st.cands = append(st.cands[:0], r.escapePort(f.Pkt.Dst))
				} else {
					// Memoized RC: a flat table load per head flit
					// (DESIGN.md §17), same candidates in the same order
					// as the routing function itself.
					st.cands = r.tables.AppendCandidates(st.cands[:0], r.id, f.Pkt.Dst)
				}
				st.state = vcWaitVA
				in.vaMask[wi] |= 1 << uint(b)
				st.waitSince = now
				if r.probe != nil {
					r.probe.RC()
					r.probe.Event(metrics.EvRC, now, r.id, f.Pkt.ID, -1, -1, v)
				}
			}
		}
	}
}

// resetVAMasks clears the lazily-filled VA candidate masks at the top
// of a VA tick; a handful of word stores.
func (r *Router) resetVAMasks() {
	for k := range r.vaKnown {
		r.vaKnown[k] = 0
		r.vaFree[k] = 0
	}
	r.vaSlotsKnown = 0
}

// portFree reports whether output port p can grant a VC of the kind
// (class, escape), polling the credit view at most once per tick per
// (port, kind) and memoizing the answer in the vaFree bitmask.
func (r *Router) portFree(p, k, class int, escape bool) bool {
	bit := uint64(1) << uint(p)
	if r.vaKnown[k]&bit == 0 {
		r.vaKnown[k] |= bit
		o := &r.out[p]
		// Unconnected edge ports stay dark; a dead output link accepts
		// no new packets (worms granted the link before it died keep
		// draining — SA does not consult candidates).
		ok := o.view != nil && (r.faults == nil || !r.faults.LinkDead(p))
		if ok && o.view.HasFreeVCIn(class, escape) {
			r.vaFree[k] |= bit
		}
	}
	return r.vaFree[k]&bit != 0
}

// portSlots returns output port p's free downstream slots, memoized
// per tick like portFree. Only called for ports portFree approved, so
// the view is connected.
func (r *Router) portSlots(p int) int {
	bit := uint64(1) << uint(p)
	if r.vaSlotsKnown&bit == 0 {
		r.vaSlotsKnown |= bit
		r.vaSlots[p] = r.out[p].view.FreeSlots()
	}
	return r.vaSlots[p]
}

// bestCandidate scores the packet's candidate output ports by VC
// availability then free downstream slots, returning -1 when no
// candidate can currently grant a VC of the required kind within the
// packet's VC class. Candidates come memoized from the route tables;
// availability is a bit test against the lazily-filled vaFree masks,
// with ties broken toward the first-listed candidate exactly as
// direct per-VC polling did. Deterministic functions have a single
// candidate and skip the slot scoring entirely (a lone candidate
// always won the old s > -1 comparison).
func (r *Router) bestCandidate(st *vcState, class int, escape bool) int {
	k := class << 1
	if escape {
		k |= 1
	}
	cands := st.cands
	if len(cands) == 1 {
		if p := cands[0]; r.portFree(p, k, class, escape) {
			return p
		}
		return -1
	}
	best, bestSlots := -1, -1
	for _, p := range cands {
		if !r.portFree(p, k, class, escape) {
			continue
		}
		if s := r.portSlots(p); s > bestSlots {
			best, bestSlots = p, s
		}
	}
	return best
}

// escapeCheck re-channels packets that have waited past the deadlock
// threshold onto the deterministic escape path (the Token Dispenser's
// deadlock-recovery flow, paper Figure 10).
func (r *Router) escapeCheck(now int64) {
	if !r.cfg.NeedsEscape() {
		return
	}
	for ip := range r.in {
		if r.faults != nil && r.faults.Stalled(ip) {
			// A frozen port's control logic cannot re-channel; the
			// wait clock keeps running, so the packet escapes as soon
			// as the stall lifts.
			continue
		}
		in := &r.in[ip]
		for wi, wm := range in.vaMask {
			for m := wm; m != 0; {
				b := bits.TrailingZeros64(m)
				m &^= 1 << uint(b)
				st := &in.vc[wi<<6+b]
				if st.pkt.Escaped {
					continue
				}
				if now-st.waitSince > int64(r.cfg.DeadlockThreshold) {
					st.pkt.Escaped = true
					//vichar:alloc rewrites the VC's cands scratch in place; RC already grew it to hold at least one port
					st.cands = append(st.cands[:0], r.escapePort(st.pkt.Dst))
					r.Counters.EscapeReroutes++
				}
			}
		}
	}
}

// escapePort returns the deterministic escape-network output port for
// a packet bound for dst: the fault-aware up*/down* tree when hard
// link failures are scheduled, the never-wrapping XY escape network
// otherwise.
func (r *Router) escapePort(dst int) int {
	if r.escapeTree != nil {
		return r.escapeTree.NextHop(r.id, dst)
	}
	return r.tables.EscapePort(r.id, dst)
}

// tickVA performs the two-stage virtual channel allocation.
// Deadlock-escape re-channeling (escapeCheck) has already run at the
// top of Tick; it only retargets VCs still in vcWaitVA, which tickSA
// never touches, so hoisting it out of VA leaves the serial semantics
// unchanged in both pipeline organizations.
func (r *Router) tickVA(now int64) {
	if r.cfg.Arch == config.ViChaR {
		r.tickVAViChaR(now)
	} else {
		r.tickVAGeneric(now)
	}
}

// tickVAViChaR implements paper Figure 7(b): a vk:1 arbiter per input
// port nominates one waiting VC; a P:1 arbiter per output port picks
// among nominees; the winner's packet receives the next free token
// from the output's dispenser view.
func (r *Router) tickVAViChaR(now int64) {
	noms := r.vaNoms
	for i := range noms {
		noms[i].invc = -1
	}
	contenders, grants := 0, 0
	r.resetVAMasks()
	req := r.reqWords[:r.maskW]
	for ip := range r.in {
		if r.faults != nil && r.faults.Stalled(ip) {
			continue
		}
		in := &r.in[ip]
		any := false
		for wi, wm := range in.vaMask {
			req[wi] = 0
			for m := wm; m != 0; {
				b := bits.TrailingZeros64(m)
				m &^= 1 << uint(b)
				st := &in.vc[wi<<6+b]
				if r.bestCandidate(st, int(st.pkt.Class), st.pkt.Escaped) >= 0 {
					req[wi] |= 1 << uint(b)
					any = true
					contenders++
				}
			}
		}
		if !any {
			continue
		}
		r.Counters.VAOps++
		w := r.vaS1[ip].ArbitrateMask(req)
		if w < 0 {
			continue
		}
		st := &in.vc[w]
		p := r.bestCandidate(st, int(st.pkt.Class), st.pkt.Escaped)
		noms[ip] = vaNominee{invc: w, port: p, escape: st.pkt.Escaped}
	}
	// Stage 2: one grant per output port. A single pass over the
	// nominees builds each contested port's input-request word;
	// TrailingZeros over anyOp then visits ports in the same ascending
	// order as the old op loop, skipping uncontested ones.
	opReq := r.opReq
	var anyOp uint64
	for ip := range noms {
		if noms[ip].invc < 0 {
			continue
		}
		op := noms[ip].port
		if anyOp&(1<<uint(op)) == 0 {
			anyOp |= 1 << uint(op)
			opReq[op] = 0
		}
		opReq[op] |= 1 << uint(ip)
	}
	for m := anyOp; m != 0; {
		op := bits.TrailingZeros64(m)
		m &^= 1 << uint(op)
		w := r.vaS2[op].ArbitrateMask(opReq[op : op+1])
		if w < 0 {
			continue
		}
		n := noms[w]
		win := &r.in[w]
		st := &win.vc[n.invc]
		vc, ok := r.out[op].view.AllocVCIn(int(st.pkt.Class), n.escape)
		if !ok {
			continue // availability changed within the cycle; retry next
		}
		st.state = vcActive
		win.vaMask[n.invc>>6] &^= 1 << (uint(n.invc) & 63)
		win.actMask[n.invc>>6] |= 1 << (uint(n.invc) & 63)
		st.outPort = op
		st.outVC = vc
		win.outInfo[n.invc] = op<<outInfoShift | vc
		r.Counters.VCGrants++
		grants++
		r.probe.Event(metrics.EvVAGrant, now, r.id, st.pkt.ID, -1, op, vc)
	}
	r.probe.VADenials(contenders - grants)
}

// vaPick is one stage-1 VA nomination: the (output port, output VC)
// pair a waiting input VC reduced its requests to.
type vaPick struct {
	op, ovc int
	escape  bool
	valid   bool
}

// tickVAGeneric implements paper Figure 7(a): each waiting input VC
// reduces its requests to a single (output port, output VC) pair in
// stage 1; a Pv:1 arbiter per output VC resolves conflicts in
// stage 2. DAMQ and FC-CB share this structure (their VC count is
// fixed like the generic router's).
//
// All bookkeeping is index-ordered (flat input-VC ids ascending, then
// contested output VCs in first-nomination order): hardware evaluates
// these arbiters in parallel, and the software model must not let an
// iteration order — in particular Go's randomized map order — leak
// into arbiter priority evolution. vichar-lint's map-range rule
// enforces this structurally.
func (r *Router) tickVAGeneric(now int64) {
	picks := r.vaPicks
	for i := range picks {
		picks[i] = vaPick{}
	}
	r.resetVAMasks()
	flats := r.vaFlats[:0]
	for ip := range r.in {
		if r.faults != nil && r.faults.Stalled(ip) {
			continue
		}
		in := &r.in[ip]
		for wi, wm := range in.vaMask {
			for m := wm; m != 0; {
				b := bits.TrailingZeros64(m)
				m &^= 1 << uint(b)
				v := wi<<6 + b
				st := &in.vc[v]
				escape := st.pkt.Escaped
				class := int(st.pkt.Class)
				op := r.bestCandidate(st, class, escape)
				if op < 0 {
					continue
				}
				ovc := r.out[op].alloc.GrantableVCIn(class, escape, v)
				if ovc < 0 {
					continue
				}
				flat := ip*r.maxVCs + v
				picks[flat] = vaPick{op: op, ovc: ovc, escape: escape, valid: true}
				//vichar:alloc the nomination scratch is pre-sized to ports*maxVCs at construction; append never exceeds that capacity
				flats = append(flats, flat)
				r.Counters.VAOps++
			}
		}
	}
	r.vaFlats = flats
	if len(flats) == 0 {
		return
	}
	grants := 0
	// Stage 2: per contested output VC, arbitrate among all
	// requesting input VCs. Output VCs are visited in the order of
	// their first nomination (ascending flat id), which is a pure
	// function of router state.
	keys := r.vaKeys[:0]
	groups := r.vaGroups
	for _, flat := range flats {
		pk := picks[flat]
		k := pk.op*r.maxVCs + pk.ovc
		if len(groups[k]) == 0 {
			//vichar:alloc the key scratch is pre-sized to ports*maxVCs at construction; append never exceeds that capacity
			keys = append(keys, k)
		}
		//vichar:alloc each group row grows to at most the input VC count once, then is reset to length zero per tick
		groups[k] = append(groups[k], flat)
	}
	r.vaKeys = keys
	req := r.reqWords
	for _, k := range keys {
		op, ovc := k/r.maxVCs, k%r.maxVCs
		for i := range req {
			req[i] = 0
		}
		for _, flat := range groups[k] {
			req[flat>>6] |= 1 << (uint(flat) & 63)
		}
		groups[k] = groups[k][:0]
		w := r.vaS2G[k].ArbitrateMask(req)
		if w < 0 {
			continue
		}
		ip, v := w/r.maxVCs, w%r.maxVCs
		win := &r.in[ip]
		st := &win.vc[v]
		r.out[op].alloc.ClaimVCIn(int(st.pkt.Class), ovc)
		st.state = vcActive
		win.vaMask[v>>6] &^= 1 << (uint(v) & 63)
		win.actMask[v>>6] |= 1 << (uint(v) & 63)
		st.outPort = op
		st.outVC = ovc
		win.outInfo[v] = op<<outInfoShift | ovc
		r.Counters.VCGrants++
		grants++
		r.probe.Event(metrics.EvVAGrant, now, r.id, st.pkt.ID, -1, op, ovc)
	}
	r.probe.VADenials(len(flats) - grants)
}

// tickSA performs the two-stage switch allocation and moves winners
// through the crossbar onto their links.
//
// Stage 1 requests come from one scan per input port over the VCs
// that hold a granted route (actMask) and a readable head flit. A
// unified buffer answers readiness for the whole port with its overlay
// words (bit v set iff Ready(v, now)); the fixed organizations are
// polled per VC. Downstream credit is checked through the flat
// dispenser-view pointers where wired, both calls inlining; a ready VC
// without credit is a credit stall.
func (r *Router) tickSA(now int64) {
	contenders, grants := 0, 0
	req := r.reqWords[:r.maskW]
	for ip := range r.in {
		r.saNominee[ip] = -1
		if r.faults != nil && r.faults.Stalled(ip) {
			continue
		}
		in := &r.in[ip]
		var rdy []uint64
		if in.ubs != nil {
			rdy = in.ubs.ReadyWords(now)
		}
		any := false
		for wi, m := range in.actMask {
			if rdy != nil {
				m &= rdy[wi]
			}
			w := uint64(0)
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &^= 1 << uint(b)
				v := wi<<6 + b
				if rdy == nil && !in.buf.Ready(v, now) {
					continue
				}
				info := in.outInfo[v]
				op := info >> outInfoShift
				ovc := info & (1<<outInfoShift - 1)
				var ok bool
				if ov := r.outVic[op]; ov != nil {
					ok = ov.CanSendFlit(ovc)
				} else {
					ok = r.out[op].view.CanSendFlit(ovc)
				}
				if ok {
					w |= 1 << uint(b)
				} else {
					r.probe.CreditStall(op)
				}
			}
			req[wi] = w
			contenders += bits.OnesCount64(w)
			any = any || w != 0
		}
		if !any {
			continue
		}
		r.Counters.SAOps++
		r.saNominee[ip] = r.saS1[ip].ArbitrateMask(req)
	}
	// Stage 2: one pass over the nominees builds each contested output
	// port's input-request word; ports are then arbitrated in ascending
	// order (TrailingZeros over anyOp), exactly the old op loop's order
	// but touching only ports somebody asked for.
	opReq := r.opReq
	var anyOp uint64
	for ip := 0; ip < r.ports; ip++ {
		v := r.saNominee[ip]
		if v < 0 {
			continue
		}
		op := r.in[ip].outInfo[v] >> outInfoShift
		if anyOp&(1<<uint(op)) == 0 {
			anyOp |= 1 << uint(op)
			opReq[op] = 0
		}
		opReq[op] |= 1 << uint(ip)
	}
	for m := anyOp; m != 0; {
		op := bits.TrailingZeros64(m)
		m &^= 1 << uint(op)
		w := r.saS2[op].ArbitrateMask(opReq[op : op+1])
		if w < 0 {
			continue
		}
		r.forward(w, r.saNominee[w], op, now)
		grants++
	}
	r.probe.SADenials(contenders - grants)
}

// forward pops the SA-winning flit and sends it across the crossbar
// and link, returning a credit upstream.
func (r *Router) forward(ip, v, op int, now int64) {
	in := &r.in[ip]
	st := &in.vc[v]
	f, err := in.buf.Pop(v, now)
	if err != nil {
		//vichar:invariant SA only nominates VCs with a readable front flit within the same cycle
		panic(fmt.Sprintf("router %d: SA winner vanished: %v", r.id, err))
	}
	if in.buf.Len(v) == 0 {
		in.bufMask[v>>6] &^= 1 << (uint(v) & 63)
	}
	r.Counters.BufferReads++
	r.Counters.XbarTraversals++
	if r.probe != nil {
		r.probe.BufferRead(ip)
		r.probe.Event(metrics.EvSAGrant, now, r.id, f.Pkt.ID, f.Seq, op, st.outVC)
	}

	if in.credit != nil {
		in.credit.SendCredit(flit.Credit{VC: v, ReleaseVC: f.IsTail()}, now)
	}

	f.VC = st.outVC
	o := &r.out[op]
	o.view.OnSend(f)
	o.conn.SendFlit(f, now)

	if f.IsTail() {
		in.actMask[v>>6] &^= 1 << (uint(v) & 63)
		in.outInfo[v] = 0
		// Reset the VC state machine but keep the cands backing array:
		// dropping it would make the next packet's routing computation
		// reallocate on every VC turnover.
		cands := st.cands[:0]
		*st = vcState{}
		st.cands = cands
	}
}

// Occupied returns the total flits buffered across all input ports.
func (r *Router) Occupied() int {
	n := 0
	for i := range r.in {
		n += r.in[i].buf.Occupied()
	}
	return n
}

// Quiescent reports whether a Tick would be a pure no-op: no VC on
// any input port buffers a flit, waits for allocation or holds a
// grant, and no fault model is attached (fault schedules mutate state
// every cycle regardless of traffic). The network's active-router
// worklist uses this to put drained routers to sleep; every stage
// iterates only the masks checked here, and the arbiters, counters
// and probes are untouched when no request exists, so skipping a
// quiescent router's Tick is bit-exact (DESIGN.md §14).
func (r *Router) Quiescent() bool {
	if r.faults != nil {
		return false
	}
	for i := range r.in {
		in := &r.in[i]
		for w := range in.bufMask {
			if in.bufMask[w]|in.vaMask[w]|in.actMask[w] != 0 {
				return false
			}
		}
	}
	return true
}

// TotalSlots returns the router's total input buffering.
func (r *Router) TotalSlots() int { return r.ports * r.cfg.BufferSlots }

// InUseVCsPerPort returns the mean number of in-use virtual channels
// per input port: a VC is in use when its state machine holds a
// packet or it still buffers flits.
func (r *Router) InUseVCsPerPort() float64 {
	n := 0
	for i := range r.in {
		in := &r.in[i]
		for w := range in.bufMask {
			n += bits.OnesCount64(in.bufMask[w] | in.vaMask[w] | in.actMask[w])
		}
	}
	return float64(n) / float64(r.ports)
}

// InputBuffer exposes the buffer at input port p for tests and
// diagnostics.
func (r *Router) InputBuffer(p int) buffers.Buffer { return r.in[p].buf }

// AuditInvariants runs the invariant auditor over every input port
// with a unified buffer, returning the first violation: VC Control
// Table ↔ Slot Availability Tracker coherence, slot-leak freedom,
// one-packet-per-VC, and the readiness overlay agreeing with the
// head stamps at cycle now. Ports without a UBS (the fixed
// organizations) have no cross-view bookkeeping to diverge and skip
// the UBS checks. The network invokes this every cycle when
// Config.Audit is set.
func (r *Router) AuditInvariants(now int64) error {
	classes := r.cfg.VCClasses()
	escBase := r.maxVCs
	if r.cfg.NeedsEscape() {
		escBase = r.maxVCs - r.cfg.EscapeVCs
	}
	for p := range r.in {
		in := &r.in[p]
		// Scan masks must mirror the buffer and VC state machines —
		// the worklist's quiescence decision and every tick stage's
		// iteration set depend on it.
		for v := 0; v < r.maxVCs; v++ {
			w, bit := v>>6, uint64(1)<<(uint(v)&63)
			if got, want := in.bufMask[w]&bit != 0, in.buf.Len(v) > 0; got != want {
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("router %d port %d vc %d: bufMask=%v but buffered=%d", r.id, p, v, got, in.buf.Len(v))
			}
			st := in.vc[v].state
			if got, want := in.vaMask[w]&bit != 0, st == vcWaitVA; got != want {
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("router %d port %d vc %d: vaMask=%v but state=%d", r.id, p, v, got, st)
			}
			if got, want := in.actMask[w]&bit != 0, st == vcActive; got != want {
				//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
				return fmt.Errorf("router %d port %d vc %d: actMask=%v but state=%d", r.id, p, v, got, st)
			}
			// The packed SA-scan route must mirror the VC state machine
			// while the VC is active (it is dead state otherwise).
			if st == vcActive {
				want := in.vc[v].outPort<<outInfoShift | in.vc[v].outVC
				if in.outInfo[v] != want {
					//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
					return fmt.Errorf("router %d port %d vc %d: outInfo=%#x want %#x", r.id, p, v, in.outInfo[v], want)
				}
			}
			// VC-class separation: an occupied VC's ID chunk must match
			// its packet's class, and so must a granted output VC (the
			// ejection sink aside — its "VC 0" is not a real channel).
			if classes > 1 && st != vcIdle {
				pc := int(in.vc[v].pkt.Class)
				if err := audit.CheckVCClass("input", r.id, p, v, classOfVC(v, escBase, r.maxVCs, classes), pc); err != nil {
					return err
				}
				if op := in.vc[v].outPort; st == vcActive {
					if _, sink := r.out[op].view.(*sinkView); !sink {
						ovc := in.vc[v].outVC
						if err := audit.CheckVCClass("output", r.id, op, ovc, classOfVC(ovc, escBase, r.maxVCs, classes), pc); err != nil {
							return err
						}
					}
				}
			}
		}
		ubs, ok := in.buf.(*core.UBS)
		if !ok {
			continue
		}
		if err := audit.CheckUBS(ubs); err != nil {
			return fmt.Errorf("router %d port %d: %w", r.id, p, err)
		}
		if err := ubs.CheckReadyMasks(now); err != nil {
			//vichar:alloc violation reporting on the opt-in audit path (Config.Audit), not the steady-state tick
			return fmt.Errorf("router %d port %d: %w", r.id, p, err)
		}
	}
	return nil
}

// DebugState renders the router's microarchitectural state — per-VC
// state machines, buffered flit counts, output credit views — for
// deadlock diagnosis.
func (r *Router) DebugState() string {
	var b []byte
	b = fmt.Appendf(b, "router %d\n", r.id)
	stateName := map[uint8]string{vcIdle: "idle", vcWaitVA: "waitVA", vcActive: "active"}
	for ip := range r.in {
		in := &r.in[ip]
		for v := range in.vc {
			st := &in.vc[v]
			if st.state == vcIdle && in.buf.Len(v) == 0 {
				continue
			}
			b = fmt.Appendf(b, "  in[%s] vc%d: %s len=%d", topology.PortName(ip), v, stateName[st.state], in.buf.Len(v))
			if st.state != vcIdle {
				b = fmt.Appendf(b, " pkt=%v out=%s/vc%d", st.pkt, topology.PortName(st.outPort), st.outVC)
				if st.state == vcWaitVA {
					b = fmt.Appendf(b, " cands=%v since=%d esc=%v", st.cands, st.waitSince, st.pkt.Escaped)
				}
			}
			b = append(b, '\n')
		}
	}
	for op := range r.out {
		out := &r.out[op]
		if out.view == nil {
			continue
		}
		b = fmt.Appendf(b, "  out[%s]: freeSlots=%d outstandingVCs=%d\n",
			topology.PortName(op), out.view.FreeSlots(), out.view.OutstandingVCs())
	}
	return string(b)
}
