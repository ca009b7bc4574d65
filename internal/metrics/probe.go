package metrics

import (
	"strconv"

	"vichar/internal/stats"
)

// Probes are the instrumentation surface the simulator core calls on
// its hot path. Every probe method is safe on a nil receiver and
// returns immediately, so an un-instrumented run pays exactly one
// nil check per call site; an instrumented run writes to the owning
// shard's Recorder, never to shared state.
//
// An event the simulator already counts for its own results (a
// router's stats.Counters, a link's flit and fault tallies) has no
// probe: its series is registered with Recorder.CounterFrom and
// published from that count at each merge. Probes record only what
// those counts lack — per-port resolution, route computations,
// allocator denials and the event trace.

// RouterProbe instruments one router's pipeline stages with
// per-port counters, per-stage denials and flit-lifecycle events.
type RouterProbe struct {
	rec *Recorder

	bufWrite    []CounterID // per input port
	bufRead     []CounterID // per input port
	creditStall []CounterID // per output port
	portStall   []CounterID // per input port (fault-model stalls)
	rc          CounterID
	vaDenials   CounterID
	saDenials   CounterID
}

// NewRouterProbe registers the router's counter series on rec.
// portNames label the per-port series (index-aligned with the
// router's port numbering); the allocator, crossbar and reroute
// series are published from c, the router's own activity counters.
func NewRouterProbe(rec *Recorder, node int, portNames []string, c *stats.Counters) *RouterProbe {
	r := strconv.Itoa(node)
	p := &RouterProbe{rec: rec}
	for _, pn := range portNames {
		rl := Labels{{"router", r}, {"port", pn}}
		p.bufWrite = append(p.bufWrite, rec.Counter("vichar_buffer_writes_total",
			"Flit writes into router input buffers.", rl))
		p.bufRead = append(p.bufRead, rec.Counter("vichar_buffer_reads_total",
			"Flit reads out of router input buffers.", rl))
		p.creditStall = append(p.creditStall, rec.Counter("vichar_credit_stalls_total",
			"Cycles an active VC held a ready flit but lacked downstream credit.", rl))
		p.portStall = append(p.portStall, rec.Counter("vichar_port_stall_cycles_total",
			"Cycles an input port's control logic was frozen by a fault-model stall.", rl))
	}
	l := Labels{{"router", r}}
	p.rc = rec.Counter("vichar_rc_total", "Head flits routed (route computation).", l)
	rec.CounterFrom("vichar_va_ops_total", "VC allocator invocations.", l, &c.VAOps)
	rec.CounterFrom("vichar_va_grants_total", "Output VCs granted by the VC allocator.", l, &c.VCGrants)
	p.vaDenials = rec.Counter("vichar_va_denials_total", "VC allocation requests denied this cycle.", l)
	rec.CounterFrom("vichar_sa_ops_total", "Switch allocator invocations.", l, &c.SAOps)
	rec.CounterFrom("vichar_sa_grants_total", "Crossbar passages granted by the switch allocator.", l, &c.XbarTraversals)
	p.saDenials = rec.Counter("vichar_sa_denials_total", "Switch allocation requests denied this cycle.", l)
	rec.CounterFrom("vichar_xbar_traversals_total", "Flits through the crossbar.", l, &c.XbarTraversals)
	rec.CounterFrom("vichar_escape_reroutes_total",
		"Packets re-channelled onto the escape network after the deadlock threshold.", l, &c.EscapeReroutes)
	return p
}

// PortStall records one cycle input port spent frozen by a
// fault-model stall.
func (p *RouterProbe) PortStall(port int) {
	if p == nil {
		return
	}
	p.rec.Inc(p.portStall[port])
}

// BufferWrite records a flit written into input port's buffer.
func (p *RouterProbe) BufferWrite(port int) {
	if p == nil {
		return
	}
	p.rec.Inc(p.bufWrite[port])
}

// BufferRead records a flit read out of input port's buffer.
func (p *RouterProbe) BufferRead(port int) {
	if p == nil {
		return
	}
	p.rec.Inc(p.bufRead[port])
}

// CreditStall records one cycle in which an active VC on the given
// output port had a flit ready but no downstream credit.
func (p *RouterProbe) CreditStall(outPort int) {
	if p == nil {
		return
	}
	p.rec.Inc(p.creditStall[outPort])
}

// RC records one routed head flit.
func (p *RouterProbe) RC() {
	if p == nil {
		return
	}
	p.rec.Inc(p.rc)
}

// VADenials records n VC requests that competed this cycle and lost.
func (p *RouterProbe) VADenials(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.rec.Add(p.vaDenials, uint64(n))
}

// SADenials records n switch requests that competed this cycle and lost.
func (p *RouterProbe) SADenials(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.rec.Add(p.saDenials, uint64(n))
}

// Event stages a flit-lifecycle event at this router (no-op when
// tracing is off).
func (p *RouterProbe) Event(kind EventKind, cycle int64, node int, packet uint64, flit, port, vc int) {
	if p == nil {
		return
	}
	p.rec.StageEvent(Event{
		Cycle: cycle, Kind: kind, Packet: packet, Flit: flit,
		Node: node, Port: port, VC: vc,
	})
}

// NIProbe instruments one network interface: flits injected into the
// router fabric and cycles stalled waiting for injection credit.
type NIProbe struct {
	rec      *Recorder
	node     int
	injected CounterID
	stalls   CounterID
}

// NewNIProbe registers the NI's counter series on rec.
func NewNIProbe(rec *Recorder, node int) *NIProbe {
	l := Labels{{"node", strconv.Itoa(node)}}
	return &NIProbe{
		rec:  rec,
		node: node,
		injected: rec.Counter("vichar_ni_flits_injected_total",
			"Flits the network interface pushed onto its injection link.", l),
		stalls: rec.Counter("vichar_ni_credit_stalls_total",
			"Cycles the network interface held a flit but lacked injection credit.", l),
	}
}

// Inject records one flit leaving the NI, with its lifecycle event.
func (p *NIProbe) Inject(cycle int64, packet uint64, flit, vc int) {
	if p == nil {
		return
	}
	p.rec.Inc(p.injected)
	p.rec.StageEvent(Event{
		Cycle: cycle, Kind: EvInject, Packet: packet, Flit: flit,
		Node: p.node, Port: -1, VC: vc,
	})
}

// CreditStall records one cycle the NI was blocked on injection credit.
func (p *NIProbe) CreditStall() {
	if p == nil {
		return
	}
	p.rec.Inc(p.stalls)
}

// LinkProbe traces flits over one router-to-router link. It stages
// on the receiving router's recorder, because link delivery executes
// in the receiver's shard under the kernel's ownership plan.
type LinkProbe struct {
	rec  *Recorder
	node int // receiving router
	port int // receiving input port
}

// NewLinkProbe registers the link's utilization series on the
// receiver's recorder, published from flits, the network's own
// per-link delivery count. from/to are router IDs; portName labels
// the receiving input port.
func NewLinkProbe(rec *Recorder, from, to, inPort int, portName string, flits *uint64) *LinkProbe {
	rec.CounterFrom("vichar_link_flits_total",
		"Flits delivered over each router-to-router link.", Labels{
			{"from", strconv.Itoa(from)},
			{"to", strconv.Itoa(to)},
			{"port", portName},
		}, flits)
	return &LinkProbe{rec: rec, node: to, port: inPort}
}

// Deliver stages the event of one flit arriving over the link.
func (p *LinkProbe) Deliver(cycle int64, packet uint64, flit, vc int) {
	if p == nil {
		return
	}
	p.rec.StageEvent(Event{
		Cycle: cycle, Kind: EvLink, Packet: packet, Flit: flit,
		Node: p.node, Port: p.port, VC: vc,
	})
}

// PublishLinkFaults registers the fault-model series of one
// inter-router link — drops, corruptions and retransmissions — on the
// receiver's recorder (the link ticks in the receiver's shard),
// published from the link's own fault tallies. Registered only when
// Config.Faults is enabled, so fault-free runs carry no fault series.
// from/to are router IDs; portName labels the sender's output port.
func PublishLinkFaults(rec *Recorder, from, to int, portName string, drops, corrupts, retransmits *uint64) {
	l := Labels{
		{"from", strconv.Itoa(from)},
		{"to", strconv.Itoa(to)},
		{"port", portName},
	}
	rec.CounterFrom("vichar_link_flits_dropped_total",
		"Flits lost on a link by the fault model.", l, drops)
	rec.CounterFrom("vichar_link_flits_corrupted_total",
		"Flits failing their CRC at the receiver under the fault model.", l, corrupts)
	rec.CounterFrom("vichar_link_retransmits_total",
		"Flits re-sent from a link's retransmission buffer.", l, retransmits)
}

// NetProbe instruments the network's serial phase: packet creation
// at injection scheduling and flit ejection at the destination NI.
type NetProbe struct {
	rec     *Recorder
	created CounterID
	ejected CounterID
	flits   CounterID
}

// NewNetProbe registers the network-level counter series on rec.
func NewNetProbe(rec *Recorder) *NetProbe {
	return &NetProbe{
		rec: rec,
		created: rec.Counter("vichar_packets_created_total",
			"Packets created and queued for injection.", nil),
		ejected: rec.Counter("vichar_packets_ejected_total",
			"Packets fully ejected at their destination.", nil),
		flits: rec.Counter("vichar_flits_ejected_total",
			"Flits ejected at their destination.", nil),
	}
}

// PacketCreated records one packet entering the source NI queue.
func (p *NetProbe) PacketCreated(cycle int64, packet uint64, src int) {
	if p == nil {
		return
	}
	p.rec.Inc(p.created)
	p.rec.StageEvent(Event{
		Cycle: cycle, Kind: EvCreate, Packet: packet, Flit: -1,
		Node: src, Port: -1, VC: -1,
	})
}

// FlitEjected records one flit consumed at its destination; tail
// marks the packet complete.
func (p *NetProbe) FlitEjected(cycle int64, packet uint64, flit, node, vc int, tail bool) {
	if p == nil {
		return
	}
	p.rec.Inc(p.flits)
	if tail {
		p.rec.Inc(p.ejected)
	}
	p.rec.StageEvent(Event{
		Cycle: cycle, Kind: EvEject, Packet: packet, Flit: flit,
		Node: node, Port: -1, VC: vc,
	})
}
