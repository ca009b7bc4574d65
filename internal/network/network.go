// Package network assembles the complete simulated system: the mesh
// of routers, the inter-router links, the per-node network interfaces
// (traffic sources and sinks) and the cycle-driven simulation loop
// with the paper's measurement protocol.
//
// The simulator is cycle-accurate at the granularity of architectural
// components. Each cycle runs as an explicit two-phase kernel
// (DESIGN.md §10): a deliver/inject phase that moves due link
// payloads into their receivers and enqueues new traffic, then a
// compute phase that evaluates every router's pipeline stages in
// reverse order so that flits progress exactly one stage per cycle.
// Every flit and credit link has exactly one writer router (compute
// phase) and one receiver router (deliver phase), so both phases
// shard by router ID across a fixed worker pool (Config.Workers) with
// barriers between them; all global accounting — collector ejections,
// the end-to-end sequence check, link traversal totals — is either
// per-router/per-link indexed or committed serially in index order
// between the phases. Results are therefore independent of router
// iteration order and of the worker count, and fully deterministic
// for a given seed.
package network

import (
	"fmt"

	"vichar/internal/audit"
	"vichar/internal/buffers"
	"vichar/internal/config"
	"vichar/internal/faults"
	"vichar/internal/flit"
	"vichar/internal/metrics"
	"vichar/internal/router"
	"vichar/internal/routing"
	"vichar/internal/stats"
	"vichar/internal/topology"
	"vichar/internal/trace"
	"vichar/internal/traffic"
	"vichar/internal/txn"
)

// timedFlit is a flit in flight on a link.
type timedFlit struct {
	f  *flit.Flit
	at int64
}

// flitLink is a fixed-latency flit pipeline between an output port
// and a receiver.
type flitLink struct {
	delay int64
	q     []timedFlit
	head  int

	// Delivery target, encoded as plain fields instead of a per-link
	// closure so the deliver phase's hottest call is a direct method
	// invocation on stable memory. Exactly one shape is wired per link:
	// an ejection link stages into *eject; every other link hands the
	// flit to dst.ReceiveFlit(inPort, ...), bumping *count (the
	// network's per-link flit counter, which the metrics registry
	// publishes) and tracing through the probe when attached.
	dst    *router.Router
	inPort int
	count  *uint64
	lp     *metrics.LinkProbe
	eject  *[]*flit.Flit

	// Active-router worklist wiring (DESIGN.md §14): owner is the
	// router whose deliver-phase plan ticks this link; wake points at
	// the WRITER router's wake buffer (Network.wakes[writer]). A send
	// that makes an empty link non-empty appends owner there; the
	// serial merge after the compute barrier re-activates the owner's
	// deliver entry. Only the writer's shard touches the buffer, so
	// the edge-triggered append is race-free at any worker count.
	owner int
	wake  *[]int

	// faults is the link's fault-model state (retransmission buffer,
	// scheduled drops); nil without Config.Faults, which keeps the
	// fault-free tick path identical to the seed's. Its tallies feed
	// the run's Counters and the metrics registry's fault series.
	faults *faults.LinkState
}

// SendFlit enqueues f for delivery delay cycles from now.
func (l *flitLink) SendFlit(f *flit.Flit, now int64) {
	if l.head == len(l.q) && l.wake != nil {
		//vichar:alloc edge-triggered wake: at most one append per empty->non-empty transition, into a per-writer buffer reset each cycle
		*l.wake = append(*l.wake, l.owner)
	}
	//vichar:alloc in-flight queue is bounded by link occupancy; tick resets it to its backing array, so capacity reaches steady state after warm-up
	l.q = append(l.q, timedFlit{f: f, at: now + l.delay})
}

// pending reports whether the link still carries undelivered work: an
// in-flight payload or a flit parked in its retransmission buffer.
// The deliver shard keeps the owning router's deliver entry active
// while any plan link is pending, so fault-held links keep their
// router on the worklist until the retransmission drains.
func (l *flitLink) pending() bool {
	if l.head < len(l.q) {
		return true
	}
	return l.faults != nil && l.faults.Held() > 0
}

// deliverFlit hands a due flit to the link's wired target (see the
// field comment on flitLink).
func (l *flitLink) deliverFlit(f *flit.Flit, now int64) {
	if l.eject != nil {
		//vichar:alloc staging slice is reset to length 0 each commit, so its capacity reaches the per-cycle ejection peak and stays there
		*l.eject = append(*l.eject, f)
		return
	}
	if l.count != nil {
		*l.count++
	}
	if l.lp != nil {
		l.lp.Deliver(now, f.Pkt.ID, f.Seq, f.VC)
	}
	l.dst.ReceiveFlit(l.inPort, f, now)
}

// tick delivers every flit due at or before now and reports whether
// the link still carries undelivered work (pending, folded in so the
// deliver sweep needs no second pass over the link).
func (l *flitLink) tick(now int64) bool {
	if l.faults != nil {
		l.tickFaulty(now)
		return l.pending()
	}
	for l.head < len(l.q) && l.q[l.head].at <= now {
		tf := l.q[l.head]
		l.q[l.head] = timedFlit{}
		l.head++
		l.deliverFlit(tf.f, now)
	}
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
		return false
	}
	return true
}

// tickFaulty is the fault-model delivery path: each due flit's fate
// is rolled per attempt; a dropped or corrupted flit moves into the
// link's single-flit retransmission buffer and blocks the flits
// behind it until re-sent (preserving wormhole order), and a
// retransmission attempt may itself be faulted. The held flit stays
// inside the link's credit accounting as the RetxHeld audit term.
func (l *flitLink) tickFaulty(now int64) {
	s := l.faults
	if s.HeldDue(now) {
		if s.Attempt(now) == faults.Deliver {
			l.deliverFlit(s.Release(), now)
		} else {
			s.Rearm(now)
		}
	}
	for l.head < len(l.q) && l.q[l.head].at <= now && !s.Blocked() {
		tf := l.q[l.head]
		l.q[l.head] = timedFlit{}
		l.head++
		if s.Attempt(now) == faults.Deliver {
			l.deliverFlit(tf.f, now)
		} else {
			s.Hold(tf.f, now)
		}
	}
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
	}
}

// timedCredit is a credit in flight on a reverse channel.
type timedCredit struct {
	c  flit.Credit
	at int64
}

// creditLink is the fixed-latency reverse channel of a link.
type creditLink struct {
	delay int64
	q     []timedCredit
	head  int

	// Delivery target as plain fields (same rationale as flitLink): an
	// inter-router reverse channel credits dst's output port outPort;
	// the NI reverse channel credits view directly.
	dst     *router.Router
	outPort int
	view    router.CreditView

	// Worklist wiring, identical contract to flitLink.owner/wake.
	owner int
	wake  *[]int
}

// SendCredit enqueues c for delivery delay cycles from now.
func (l *creditLink) SendCredit(c flit.Credit, now int64) {
	if l.head == len(l.q) && l.wake != nil {
		//vichar:alloc edge-triggered wake: at most one append per empty->non-empty transition, into a per-writer buffer reset each cycle
		*l.wake = append(*l.wake, l.owner)
	}
	//vichar:alloc in-flight queue is bounded by link occupancy; tick resets it to its backing array, so capacity reaches steady state after warm-up
	l.q = append(l.q, timedCredit{c: c, at: now + l.delay})
}

// tick delivers every credit due at or before now and reports whether
// the channel still carries undelivered credits.
func (l *creditLink) tick(now int64) bool {
	for l.head < len(l.q) && l.q[l.head].at <= now {
		tc := l.q[l.head]
		l.head++
		if l.dst != nil {
			l.dst.ReceiveCredit(l.outPort, tc.c)
		} else {
			l.view.OnCredit(tc.c)
		}
	}
	if l.head == len(l.q) {
		l.q = l.q[:0]
		l.head = 0
		return false
	}
	return true
}

// inflight returns the number of undelivered flits on the link.
func (l *flitLink) inflight() int { return len(l.q) - l.head }

// inflight returns the number of undelivered credits on the link.
func (l *creditLink) inflight() int { return len(l.q) - l.head }

// auditedLink ties together the four parties of one directed link's
// credit-conservation equation: the upstream credit view, the forward
// flit channel, the downstream input buffer and the reverse credit
// channel. Collected at wiring time, checked every step when
// Config.Audit is set.
type auditedLink struct {
	name string
	view router.CreditView
	fl   *flitLink
	cl   *creditLink
	buf  buffers.Buffer
}

// retxHeld returns the link's declared-fault conservation term: the
// flit count parked in its retransmission buffer.
func (al *auditedLink) retxHeld() int { return al.fl.faults.Held() }

// niStream is one injection stream of a network interface: the packet
// queue and in-flight flit cursor of a single VC class. Fire-and-
// forget runs have exactly one stream; the transaction layer gives
// each VC class its own so a queued response can never wait behind a
// request (or background packet) that cannot obtain a VC.
type niStream struct {
	queue []*flit.Packet
	qhead int

	cur []*flit.Flit
	idx int
	vc  int
}

func (st *niStream) queued() int { return len(st.queue) - st.qhead }

// ni is one network interface: the per-class packet source queues
// feeding the router's local input port. It mirrors the local input
// port's buffer state through a credit view, allocates a VC per
// packet within the packet's class and injects one flit per cycle
// when credits allow.
type ni struct {
	node    int
	view    router.CreditView
	link    *flitLink
	streams []niStream
	rr      int // round-robin pointer over streams for the one-flit-per-cycle send

	// txn, when the transaction layer is on, receives the fully-
	// injected notification that releases a responder's egress slot.
	// ni.tick runs in the node's compute shard and the hook touches
	// only this node's responder state, so the call is race-free.
	txn *txn.Engine

	// probe mirrors injection activity into the live metrics
	// registry; nil (no-op) without an observability layer.
	probe *metrics.NIProbe
}

func (s *ni) enqueue(p *flit.Packet) {
	//vichar:alloc one append per generated packet, amortized by tick's queue compaction — not per-cycle churn
	s.streams[p.Class].queue = append(s.streams[p.Class].queue, p)
}

func (s *ni) queued() int {
	n := 0
	for i := range s.streams {
		n += s.streams[i].queued()
	}
	return n
}

// idle reports whether a tick would be a no-op: no stream holds a
// packet mid-flight or queued. The compute worklist only lets a node
// sleep when its NI is idle; a stalled injection (cur != nil waiting
// for credit) keeps the node active until the credit arrives.
func (s *ni) idle() bool {
	for i := range s.streams {
		if s.streams[i].cur != nil || s.streams[i].queued() > 0 {
			return false
		}
	}
	return true
}

func (s *ni) tick(now int64) {
	// Start phase: every stream with a queued packet and no packet in
	// flight tries to allocate a VC within its own class.
	for c := range s.streams {
		st := &s.streams[c]
		if st.cur != nil || st.queued() == 0 {
			continue
		}
		if vc, ok := s.view.AllocVCIn(c, false); ok {
			p := st.queue[st.qhead]
			st.queue[st.qhead] = nil
			st.qhead++
			if st.qhead > len(st.queue)/2 && st.qhead > 16 {
				n := copy(st.queue, st.queue[st.qhead:])
				st.queue = st.queue[:n]
				st.qhead = 0
			}
			p.InjectedAt = now
			//vichar:alloc packet materialization allocates its flits once at injection, amortized over the packet's network lifetime
			st.cur = flit.MakeFlits(p)
			st.idx = 0
			st.vc = vc
		}
	}
	// Send phase: the injection channel carries one flit per cycle;
	// streams with credit take turns round-robin. With one stream this
	// reduces exactly to the classic NI.
	n := len(s.streams)
	blocked := false
	for i := 0; i < n; i++ {
		c := s.rr + i
		if c >= n {
			c -= n
		}
		st := &s.streams[c]
		if st.cur == nil {
			continue
		}
		if !s.view.CanSendFlit(st.vc) {
			blocked = true
			continue
		}
		f := st.cur[st.idx]
		f.VC = st.vc
		s.view.OnSend(f)
		s.link.SendFlit(f, now)
		if s.probe != nil {
			s.probe.Inject(now, f.Pkt.ID, f.Seq, st.vc)
		}
		st.idx++
		if st.idx == len(st.cur) {
			if s.txn != nil {
				s.txn.OnInjected(s.node, f.Pkt)
			}
			st.cur = nil
		}
		if n > 1 {
			s.rr = c + 1
			if s.rr == n {
				s.rr = 0
			}
		}
		return
	}
	if blocked {
		s.probe.CreditStall()
	}
}

// routerLinks is the deliver-phase plan of one router: every link
// whose delivery mutates state owned by that router — flit links
// feeding its input buffers, the ejection link of its processing
// element (staged, see pendingEject), and credit links feeding its
// output views or its network interface's view. One link appears in
// exactly one router's plan, which is what makes the deliver phase
// shardable by router ID.
type routerLinks struct {
	flits   []*flitLink
	credits []*creditLink
}

// Network is a complete simulated NoC.
type Network struct {
	cfg  *config.Config
	mesh topology.Mesh

	routers []*router.Router
	nis     []*ni

	// plan[id] holds the links the deliver phase ticks on router id's
	// behalf; shards own contiguous ID ranges (shardBounds).
	plan []routerLinks

	// Link slabs in delivery order (DESIGN.md §17): the slabs are laid
	// out grouped by owning router — flitSlab[flitOff[id]:flitOff[id+1]]
	// are exactly plan[id].flits, in plan order — so deliverShard walks
	// each router's links as one contiguous slab range and commits its
	// deliveries in a single streaming sweep instead of chasing the
	// plan's pointers. plan keeps the pointer view for the cold paths
	// (snapshot, audit, packet collection).
	flitSlab   []flitLink
	creditSlab []creditLink
	flitOff    []int32
	creditOff  []int32

	// pendingEject[id] stages flits delivered to node id's processing
	// element during the sharded deliver phase; the serial commit
	// sub-phase ejects them in ascending node order, which matches the
	// serial kernel's ejection-link order exactly.
	pendingEject [][]*flit.Flit

	// Active-router worklist (DESIGN.md §14). computeActive[id] marks
	// routers the compute phase must tick; it is cleared by the
	// owning shard once router id is quiescent, its NI idle and no
	// fault plan is attached, and re-set by the same shard's deliver
	// pass or by the serial injection path. deliverActive[id] marks
	// routers whose plan links may carry payloads; the owning shard
	// recomputes it from link occupancy each cycle, and cross-shard
	// sends re-arm it through wakes: wakes[w] is written only by
	// router w's shard (during its compute) and drained serially
	// after the compute barrier, so activation is deterministic (a
	// pure OR over an order-free set) and race-free at any worker
	// count. Skipped entries are exact no-ops, so results stay
	// bit-identical to the always-tick kernel.
	computeActive []bool
	deliverActive []bool
	wakes         [][]int

	// wlStats tallies worklist effectiveness per shard (shard-owned
	// slots, summed on demand by WorklistStats).
	wlStats []WorklistStats

	// shardCount is the number of kernel shards (1 = serial); exec is
	// the lazily created worker pool behind runSharded.
	shardCount int
	exec       *shardExecutor

	// Phase closures bound once at construction: Step and audit hand
	// runSharded (and the traffic generator) the same values every
	// cycle instead of allocating a fresh closure per call. The shard
	// methods read n.now themselves, so no per-cycle capture is needed.
	deliverFn      func(shard int)
	computeFn      func(shard int)
	auditLinksFn   func(shard int)
	auditRoutersFn func(shard int)
	injectFn       func(src, dst, size int)

	// samplePerNode is sample's per-node VC-usage scratch; the
	// collector consumes the values synchronously and never retains
	// the slice.
	samplePerNode []float64

	// auditedLinks holds every credit-carrying link's conservation
	// parties; checked per step when cfg.Audit is set. auditStates and
	// auditErrs are per-shard scratch for the sharded audit pass.
	auditedLinks []auditedLink
	auditStates  [][]audit.LinkState
	auditErrs    []error

	// fplan is the compiled fault schedule (nil without Config.Faults);
	// faultLinks collects every inter-router link's fault state so
	// totalCounters can fold drop/corrupt/retransmit tallies into the
	// run's Counters.
	fplan      *faults.Plan
	faultLinks []*faults.LinkState

	// arena owns the struct-of-arrays backing store for every router's
	// and credit view's hot state (DESIGN.md §14).
	arena *router.Arena

	gen       *traffic.Generator
	collector *stats.Collector

	// txn is the network-interface transaction layer (nil without
	// Config.Txn); every hook on the hot path hides behind this one
	// pointer check so fire-and-forget runs stay byte-identical.
	txn *txn.Engine

	now    int64
	nextID uint64

	// Inter-router channel load accounting: one entry per directed
	// link, with snapshots bracketing the measurement window.
	linkMeta      []stats.ChannelLoad
	linkFlits     []uint64
	linkStartSnap []uint64
	linkEndSnap   []uint64

	startSnap stats.Counters
	endSnap   stats.Counters
	haveStart bool
	haveEnd   bool

	created int64

	// expectSeq tracks, per in-flight packet, the next flit sequence
	// number the sink must observe: the end-to-end ordering check.
	expectSeq map[uint64]int

	// schedule replays a recorded trace (sorted by cycle);
	// scheduleIdx is the next entry to inject.
	schedule    []trace.Entry
	scheduleIdx int

	// recorded accumulates creation events when recording is on.
	recording bool
	recorded  []trace.Entry

	// obs is the live observability layer (internal/metrics); nil when
	// Config.Metrics and Config.TraceEvents are both off. netProbe is
	// obs's serial-phase probe, kept as its own field so eject and
	// InjectPacketSized pay one nil check when observability is off.
	obs      *obsState
	netProbe *metrics.NetProbe
}

// obsState bundles the network's observability wiring: the shared
// registry, one recorder per shard-owned node (index 1+id) plus one
// for the serial phase (index 0), the optional event tracer and the
// network-level gauges. Recorders are merged and drained — in fixed
// index order — only from the serial side of the kernel (flushObs),
// which is what keeps registry and event-stream state bit-identical
// for any worker count.
type obsState struct {
	reg    *metrics.Registry
	tracer *metrics.Tracer
	recs   []*metrics.Recorder

	gCycle    metrics.GaugeID
	gOcc      metrics.GaugeID
	gVCs      metrics.GaugeID
	gInflight metrics.GaugeID
}

// New builds and wires a network for the configuration. It panics on
// an invalid configuration; call cfg.Validate first when the config
// comes from untrusted input.
func New(cfg *config.Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("network: %v", err))
	}
	mesh := topology.New(cfg.Width, cfg.Height)
	mesh.Torus = cfg.Torus
	n := &Network{
		cfg:          cfg,
		mesh:         mesh,
		routers:      make([]*router.Router, mesh.Nodes()),
		nis:          make([]*ni, mesh.Nodes()),
		plan:         make([]routerLinks, mesh.Nodes()),
		pendingEject: make([][]*flit.Flit, mesh.Nodes()),
		collector:    stats.NewCollector(cfg.WarmupPackets, cfg.MeasurePackets, mesh.Nodes()),
		expectSeq:    make(map[uint64]int),
	}
	n.shardCount = cfg.Workers
	if n.shardCount < 1 {
		n.shardCount = 1
	}
	if n.shardCount > mesh.Nodes() {
		n.shardCount = mesh.Nodes()
	}
	n.auditStates = make([][]audit.LinkState, n.shardCount)
	n.auditErrs = make([]error, n.shardCount)
	n.computeActive = make([]bool, mesh.Nodes())
	n.deliverActive = make([]bool, mesh.Nodes())
	n.wakes = make([][]int, mesh.Nodes())
	n.wlStats = make([]WorklistStats, n.shardCount)
	for id := range n.computeActive {
		n.computeActive[id] = true
		n.deliverActive[id] = true
	}
	// The struct-of-arrays arena: routers and credit views below draw
	// their hot per-(router, port, VC) state from it in ascending id
	// order, laying the whole mesh's tick-path state out contiguously.
	n.arena = router.NewArena(cfg, mesh)
	for id := range n.routers {
		n.routers[id] = router.NewIn(n.arena, id, cfg, mesh)
	}

	// Fault model: compile the schedule (nil when disabled), hand each
	// router its stall/dead-link state, and — when links are scheduled
	// to die — switch every router's escape routing to the up*/down*
	// tree over the links that survive the whole run (planned-outage
	// model, see routing.EscapeTree). Validate guarantees the surviving
	// links still connect the mesh, so tree construction cannot fail.
	n.fplan = faults.NewPlan(cfg)
	if n.fplan != nil {
		for id, r := range n.routers {
			r.SetFaults(n.fplan.Router(id))
		}
		if n.fplan.HasHardFaults() {
			tree, err := routing.NewEscapeTree(mesh, func(node, port int) bool {
				return !n.fplan.LinkEverDead(node, port)
			})
			if err != nil {
				//vichar:invariant Config.Validate rejects fault schedules that disconnect the mesh
				panic(fmt.Sprintf("network: %v", err))
			}
			for _, r := range n.routers {
				r.SetEscapeTree(tree)
			}
		}
	}

	// Observability layer: one recorder per node (written only by the
	// shard that owns the node) plus one for the serial phase, built
	// before link wiring so deliver closures can capture link probes.
	if cfg.Metrics || cfg.TraceEvents > 0 {
		o := &obsState{reg: metrics.NewRegistry()}
		tracing := cfg.TraceEvents > 0
		if tracing {
			o.tracer = metrics.NewTracer(o.reg, cfg.TraceEvents)
		}
		o.recs = make([]*metrics.Recorder, 1+mesh.Nodes())
		for i := range o.recs {
			o.recs[i] = o.reg.NewRecorder(tracing)
		}
		n.netProbe = metrics.NewNetProbe(o.recs[0])
		o.gCycle = o.reg.Gauge("vichar_cycle", "Current simulation cycle.", nil)
		o.gOcc = o.reg.Gauge("vichar_buffer_occupancy_fraction",
			"Network-wide input-buffer occupancy over total slots, at the last sample.", nil)
		o.gVCs = o.reg.Gauge("vichar_inuse_vcs_per_port_avg",
			"Mean in-use virtual channels per input port across the network, at the last sample.", nil)
		o.gInflight = o.reg.Gauge("vichar_packets_inflight",
			"Packets created but not yet fully ejected.", nil)
		n.obs = o
		portNames := make([]string, cfg.Ports())
		for p := range portNames {
			portNames[p] = topology.PortName(p)
		}
		for id, r := range n.routers {
			r.SetProbe(metrics.NewRouterProbe(o.recs[1+id], id, portNames, &r.Counters))
		}
	}

	// Link slabs: every flit and credit link of the mesh lives in one
	// contiguous array each, grouped by owning router in plan order, so
	// the deliver phase walks each router's links as one contiguous
	// slab range (see the flitSlab field comment). Per-owner capacities
	// are exact: Degree incoming inter-router flit links plus ejection
	// and injection per node; Degree outgoing reverse channels plus the
	// NI credit per node. The cursor-guarded takes below panic rather
	// than reallocate, which would orphan the already-wired pointers.
	nLinks := 0
	nodes := mesh.Nodes()
	n.flitOff = make([]int32, nodes+1)
	n.creditOff = make([]int32, nodes+1)
	for id := 0; id < nodes; id++ {
		d := mesh.Degree(id)
		nLinks += d
		n.flitOff[id+1] = n.flitOff[id] + int32(d) + 2
		n.creditOff[id+1] = n.creditOff[id] + int32(d) + 1
	}
	n.flitSlab = make([]flitLink, nLinks+2*nodes)
	n.creditSlab = make([]creditLink, nLinks+nodes)
	// Exact capacity up front: links hold *count pointers into this
	// array, so it must never reallocate.
	n.linkFlits = make([]uint64, 0, nLinks)
	fCur := make([]int32, nodes)
	cCur := make([]int32, nodes)
	copy(fCur, n.flitOff)
	copy(cCur, n.creditOff)
	takeFlitLink := func(l flitLink) *flitLink {
		i := fCur[l.owner]
		if i == n.flitOff[l.owner+1] {
			//vichar:invariant the per-owner link counts above are the same Degree sums the wiring loops walk
			panic(fmt.Sprintf("network: flit-link slab overflow at owner %d", l.owner))
		}
		fCur[l.owner] = i + 1
		p := &n.flitSlab[i]
		*p = l
		return p
	}
	takeCreditLink := func(l creditLink) *creditLink {
		i := cCur[l.owner]
		if i == n.creditOff[l.owner+1] {
			//vichar:invariant the per-owner link counts above are the same Degree sums the wiring loops walk
			panic(fmt.Sprintf("network: credit-link slab overflow at owner %d", l.owner))
		}
		cCur[l.owner] = i + 1
		p := &n.creditSlab[i]
		*p = l
		return p
	}

	// Inter-router links: one flit link (downstream) and one credit
	// link (upstream) per connected cardinal port pair.
	for id, r := range n.routers {
		for port := 0; port < topology.Local; port++ {
			nb, ok := mesh.Neighbor(id, port)
			if !ok {
				continue
			}
			dst := n.routers[nb]
			inPort := topology.Opposite(port)

			linkIdx := len(n.linkMeta)
			n.linkMeta = append(n.linkMeta, stats.ChannelLoad{From: id, To: nb, Port: port})
			n.linkFlits = append(n.linkFlits, 0)

			// Delivery mutates the downstream router's input buffer
			// (and this link's own flit counter), so the link belongs
			// to the receiver's deliver-phase plan — and its probe
			// writes on the receiver's recorder. The same ownership
			// covers the link's fault state: only the receiver's shard
			// ticks it.
			// Worklist: router id's compute writes this link; router
			// nb's deliver drains it.
			fl := takeFlitLink(flitLink{
				delay: router.FlitDelay, owner: nb, wake: &n.wakes[id],
				dst: dst, inPort: inPort, count: &n.linkFlits[linkIdx],
			})
			if fs := n.fplan.Link(id, port); fs != nil {
				fl.faults = fs
				n.faultLinks = append(n.faultLinks, fs)
				if n.obs != nil {
					metrics.PublishLinkFaults(n.obs.recs[1+nb], id, nb, topology.PortName(port),
						&fs.Drops, &fs.Corrupts, &fs.Retransmits)
				}
			}
			if n.obs != nil {
				fl.lp = metrics.NewLinkProbe(n.obs.recs[1+nb], id, nb, inPort, topology.PortName(port), fl.count)
			}
			n.plan[nb].flits = append(n.plan[nb].flits, fl)

			// Credit delivery mutates the upstream router's output
			// view, so the reverse channel belongs to the upstream
			// router's plan; the downstream router nb writes it.
			cl := takeCreditLink(creditLink{
				delay: router.CreditDelay, owner: id, wake: &n.wakes[nb],
				dst: r, outPort: port,
			})
			n.plan[id].credits = append(n.plan[id].credits, cl)

			view := router.NewCreditViewIn(n.arena, cfg)
			r.ConnectOutput(port, fl, view)
			dst.ConnectInputCredit(inPort, cl)
			n.auditedLinks = append(n.auditedLinks, auditedLink{
				name: fmt.Sprintf("%d->%d", id, nb),
				view: view, fl: fl, cl: cl, buf: dst.InputBuffer(inPort),
			})
		}
	}

	// The transaction layer, when on, is built before the local ports
	// so each responder node's admission gate can be wired into its
	// ejection sink view.
	if cfg.Txn.Enabled {
		n.txn = txn.New(cfg, mesh, n)
	}

	// Local ports: ejection to the sink and injection from the NI.
	for id, r := range n.routers {
		// Ejection: router local output -> processing element. The
		// sink mutates network-global state (collector, sequence
		// check, snapshots), so delivery only stages the flit; the
		// serial commit sub-phase of Step ejects staged flits in
		// ascending node order. A responder node's finite service
		// queue gates its sink's ejection grants.
		ej := takeFlitLink(flitLink{
			delay: router.FlitDelay, owner: id, wake: &n.wakes[id],
			eject: &n.pendingEject[id],
		})
		n.plan[id].flits = append(n.plan[id].flits, ej)
		sink := router.NewSinkView()
		if n.txn != nil {
			if mc := n.txn.Responder(id); mc != nil {
				sink = router.NewSinkViewWith(mc)
			}
		}
		r.ConnectOutput(topology.Local, ej, sink)

		// Injection: NI -> router local input (one-cycle channel).
		s := &ni{
			node:    id,
			view:    router.NewCreditViewIn(n.arena, cfg),
			streams: make([]niStream, cfg.VCClasses()),
			txn:     n.txn,
		}
		if n.obs != nil {
			s.probe = metrics.NewNIProbe(n.obs.recs[1+id], id)
		}
		inj := takeFlitLink(flitLink{
			delay: 1, owner: id, wake: &n.wakes[id],
			dst: r, inPort: topology.Local,
		})
		n.plan[id].flits = append(n.plan[id].flits, inj)
		s.link = inj

		cl := takeCreditLink(creditLink{
			delay: router.CreditDelay, owner: id, wake: &n.wakes[id],
			view: s.view,
		})
		view := s.view
		n.plan[id].credits = append(n.plan[id].credits, cl)
		r.ConnectInputCredit(topology.Local, cl)
		n.auditedLinks = append(n.auditedLinks, auditedLink{
			name: fmt.Sprintf("ni%d->%d", id, id),
			view: view, fl: inj, cl: cl, buf: r.InputBuffer(topology.Local),
		})

		n.nis[id] = s
	}

	n.gen = traffic.New(cfg, mesh)

	// Bind the phase closures once; Step and audit reuse them every
	// cycle (see the field comments on Network).
	n.deliverFn = n.deliverShard
	n.computeFn = n.computeShard
	n.auditLinksFn = n.auditLinksShard
	n.auditRoutersFn = n.auditRoutersShard
	n.injectFn = n.injectGenerated
	n.samplePerNode = make([]float64, mesh.Nodes())
	return n
}

// Mesh returns the network's topology.
func (n *Network) Mesh() topology.Mesh { return n.mesh }

// Router returns router id (tests and diagnostics).
func (n *Network) Router(id int) *router.Router { return n.routers[id] }

// Now returns the current simulation cycle.
func (n *Network) Now() int64 { return n.now }

// CreatedPackets returns the number of packets generated so far.
func (n *Network) CreatedPackets() int64 { return n.created }

// InjectPacket creates a packet from src to dst at the current cycle
// and enqueues it at src's network interface; tests and custom
// workloads use it instead of the built-in traffic generator.
func (n *Network) InjectPacket(src, dst int) *flit.Packet {
	return n.InjectPacketSized(src, dst, n.cfg.PacketSize)
}

// InjectPacketSized creates a packet with an explicit flit count
// (variable-size packet protocol).
func (n *Network) InjectPacketSized(src, dst, size int) *flit.Packet {
	return n.SendTxnPacket(src, dst, size, 0, 0, 0)
}

// SendTxnPacket implements txn.Sender: it creates a packet carrying a
// transaction-layer kind, VC class and request reference, and
// enqueues it on the source interface's stream for that class. Plain
// fire-and-forget injection is the zero-kind, zero-class case.
func (n *Network) SendTxnPacket(src, dst, size int, kind, class uint8, req uint64) *flit.Packet {
	n.nextID++
	//vichar:alloc one packet object per generated packet — the protocol unit, not per-cycle churn
	p := &flit.Packet{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		Size:      size,
		CreatedAt: n.now,
		SeqNo:     n.nextID,
		Class:     class,
		Kind:      kind,
		Req:       req,
	}
	n.created++
	n.nis[src].enqueue(p)
	// Injection happens on the serial side of the kernel, before the
	// compute phase, so waking the source here preserves same-cycle NI
	// processing for a sleeping node.
	n.computeActive[src] = true
	n.netProbe.PacketCreated(n.now, p.ID, src)
	if n.recording {
		//vichar:alloc trace recording is an opt-in diagnostic mode; one entry per recorded packet
		n.recorded = append(n.recorded, trace.Entry{Cycle: n.now, Src: src, Dst: dst, Size: size})
	}
	return p
}

// injectGenerated adapts InjectPacketSized to the traffic generator's
// callback signature; bound once in New as n.injectFn.
func (n *Network) injectGenerated(src, dst, size int) { n.InjectPacketSized(src, dst, size) }

// RecordTrace turns on packet-creation recording; RecordedTrace
// returns the events captured so far.
func (n *Network) RecordTrace() { n.recording = true }

// RecordedTrace returns the creation events captured since
// RecordTrace.
func (n *Network) RecordedTrace() []trace.Entry { return n.recorded }

// ScheduleTrace queues a recorded workload for replay: each entry is
// injected at its cycle. Entries must be sorted by cycle (trace.Read
// guarantees this) and valid for this network's node count. Typically
// used with InjectionRate zero so the stochastic generator stays
// silent.
func (n *Network) ScheduleTrace(entries []trace.Entry) error {
	if err := trace.ValidateAll(entries, n.mesh.Nodes()); err != nil {
		return err
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Cycle < entries[i-1].Cycle {
			return fmt.Errorf("network: trace entries out of order at %d", i)
		}
	}
	n.schedule = append(n.schedule, entries...)
	return nil
}

// TracePending returns the number of scheduled entries not yet
// injected.
func (n *Network) TracePending() int { return len(n.schedule) - n.scheduleIdx }

// eject consumes a flit at its destination's processing element,
// enforcing the end-to-end delivery invariants: flits of a packet
// arrive exactly once, in sequence order, at the right node.
func (n *Network) eject(f *flit.Flit, now int64) {
	if f.Pkt.Dst != dstOf(f) {
		//vichar:invariant the routing function must deliver every flit to its packet destination
		panic(fmt.Sprintf("network: flit %s ejected at wrong node", f))
	}
	want := n.expectSeq[f.Pkt.ID]
	if f.Seq != want {
		//vichar:invariant wormhole switching on a fixed VC cannot reorder flits of one packet
		panic(fmt.Sprintf("network: flit %s ejected out of order (want seq %d)", f, want))
	}
	if n.netProbe != nil {
		n.netProbe.FlitEjected(now, f.Pkt.ID, f.Seq, f.Pkt.Dst, f.VC, f.IsTail())
	}
	if !f.IsTail() {
		n.expectSeq[f.Pkt.ID] = want + 1
		return
	}
	if f.Seq != f.Pkt.Size-1 {
		//vichar:invariant a tail at the wrong sequence number means flits were lost or duplicated in flight
		panic(fmt.Sprintf("network: tail %s at seq %d of %d", f, f.Seq, f.Pkt.Size))
	}
	delete(n.expectSeq, f.Pkt.ID)
	p := f.Pkt
	p.EjectedAt = now
	was := n.collector.Measuring()
	n.collector.PacketEjected(p, now)
	if !was && n.collector.Measuring() && !n.haveStart {
		n.startSnap = n.totalCounters()
		//vichar:alloc measurement-window snapshot, taken at most once per run
		n.linkStartSnap = append([]uint64(nil), n.linkFlits...)
		n.haveStart = true
	}
	if was && !n.collector.Measuring() && !n.haveEnd {
		n.endSnap = n.totalCounters()
		//vichar:alloc measurement-window snapshot, taken at most once per run
		n.linkEndSnap = append([]uint64(nil), n.linkFlits...)
		n.haveEnd = true
	}
	if n.txn != nil {
		// Serial commit sub-phase: requests enter their responder's
		// service queue, responses retire their transaction.
		n.txn.OnEject(p, now, was)
	}
}

// dstOf exists to keep the ejection assertion honest without carrying
// the ejecting node through every link closure: the flit's packet
// destination is authoritative.
func dstOf(f *flit.Flit) int { return f.Pkt.Dst }

// totalCounters sums activity across routers plus network-level link
// traversals. Link traversals are kept per link (each link is ticked
// by exactly one shard), so the network-wide total is their sum.
func (n *Network) totalCounters() stats.Counters {
	var c stats.Counters
	for _, r := range n.routers {
		c.Add(r.Counters)
	}
	for _, f := range n.linkFlits {
		c.LinkTraversals += f
	}
	for _, fs := range n.faultLinks {
		c.FlitDrops += fs.Drops
		c.FlitCorrupts += fs.Corrupts
		c.Retransmits += fs.Retransmits
	}
	return c
}

// Step advances the simulation by exactly one cycle through the
// two-phase kernel:
//
//  1. Deliver (sharded by receiver router): every link delivers its
//     due payloads into the receiving router's input buffers and
//     credit views; ejections are staged per node.
//  2. Commit + inject (serial): staged ejections are committed in
//     ascending node order — the only phase that mutates the stats
//     collector, the end-to-end sequence check and the measurement
//     snapshots — then new traffic is generated and scheduled trace
//     entries injected.
//  3. Compute (sharded by router): every network interface and router
//     evaluates its pipeline; the only cross-router effects are sends
//     on links the router owns the write side of, delivered next
//     cycle by phase 1.
//
// Shards own disjoint state and the serial sub-phase runs in a fixed
// index order, so the cycle's outcome is bit-identical for any worker
// count.
func (n *Network) Step() {
	n.now++
	now := n.now
	n.runSharded(n.deliverFn)
	for id := range n.pendingEject {
		staged := n.pendingEject[id]
		for i, f := range staged {
			staged[i] = nil
			n.eject(f, now)
		}
		n.pendingEject[id] = staged[:0]
	}
	if n.cfg.InjectionRate > 0 {
		n.gen.Tick(now, n.injectFn)
	}
	for n.scheduleIdx < len(n.schedule) && n.schedule[n.scheduleIdx].Cycle <= now {
		e := n.schedule[n.scheduleIdx]
		n.scheduleIdx++
		n.InjectPacketSized(e.Src, e.Dst, e.Size)
	}
	if n.txn != nil {
		// Serial like the generator: responder completions inject
		// responses and requesters draw new requests, both in
		// ascending node order off per-node streams.
		n.txn.Tick(now)
	}
	n.runSharded(n.computeFn)
	// Merge the per-writer wake buffers: sends that made an empty link
	// non-empty re-activate the owning router's deliver entry. A pure
	// OR over an order-free set, run serially after the compute
	// barrier, so the result is independent of worker scheduling.
	for w := range n.wakes {
		for _, owner := range n.wakes[w] {
			n.deliverActive[owner] = true
		}
		n.wakes[w] = n.wakes[w][:0]
	}
	if n.cfg.Audit {
		n.audit(now)
	}
	if now%n.cfg.SampleEvery == 0 {
		n.sample(now)
		n.flushObs()
	}
}

// deliverShard is phase 1 for one shard: every link owned by the
// shard's routers delivers its due flits and credits. The walk runs
// over the owner-grouped link slabs in slab order — one contiguous
// range per router (flitOff/creditOff), batching each router's
// delivery commits into a single streaming sweep — rather than over
// the plan's pointer slices. Reads n.now itself (set before the phase
// barrier) so the bound closure carries no per-cycle state.
func (n *Network) deliverShard(shard int) {
	now := n.now
	lo, hi := n.shardBounds(shard)
	st := &n.wlStats[shard]
	for id := lo; id < hi; id++ {
		// Skip routers none of whose links carry payloads; the flag is
		// re-armed by the serial wake merge when a writer makes one of
		// them non-empty again.
		if !n.deliverActive[id] {
			st.DeliverSkipped++
			continue
		}
		st.DeliverTicked++
		pending := false
		for i := n.flitOff[id]; i < n.flitOff[id+1]; i++ {
			if n.flitSlab[i].tick(now) {
				pending = true
			}
		}
		for i := n.creditOff[id]; i < n.creditOff[id+1]; i++ {
			if n.creditSlab[i].tick(now) {
				pending = true
			}
		}
		// Both flags are shard-owned here: deliver and compute shard
		// by the same id ranges, so no other worker reads them before
		// the phase barrier. Anything delivered (or still in flight)
		// may have changed router id's state, so its compute entry is
		// re-armed conservatively.
		n.deliverActive[id] = pending
		n.computeActive[id] = true
	}
}

// computeShard is phase 3 for one shard: the shard's network
// interfaces and routers evaluate their pipelines.
func (n *Network) computeShard(shard int) {
	now := n.now
	lo, hi := n.shardBounds(shard)
	st := &n.wlStats[shard]
	for id := lo; id < hi; id++ {
		if !n.computeActive[id] {
			st.ComputeSkipped++
			continue
		}
		st.ComputeTicked++
		s := n.nis[id]
		s.tick(now)
		n.routers[id].Tick(now)
		// A node may sleep only when a tick provably does nothing: the
		// router's masks are empty (Quiescent also rules out attached
		// fault state), the NI neither holds nor queues a packet, and
		// no fault plan is compiled — fault schedules mutate per-cycle
		// state regardless of traffic, so faulted runs never sleep.
		if n.fplan == nil && s.idle() && n.routers[id].Quiescent() {
			n.computeActive[id] = false
		}
	}
}

// flushObs commits the observability layer: staged counter deltas
// merge into the registry, the series fed from the network's own
// counts (router Counters, per-link flit and fault tallies) are
// stored as absolute totals, staged events drain into the tracer —
// all in fixed recorder index order — and the network-level gauges
// refresh. Runs only on the serial side of the kernel — Step's sample
// cadence and the end of Run/Drain — after the compute barrier, so
// recorders are quiescent. A live scrape therefore lags the
// simulation by at most SampleEvery cycles.
func (n *Network) flushObs() {
	o := n.obs
	if o == nil {
		return
	}
	o.reg.MergeRecorders(o.recs)
	if o.tracer != nil {
		o.tracer.Drain(o.recs)
	}
	o.reg.SetGauge(o.gCycle, float64(n.now))
	o.reg.SetGauge(o.gInflight, float64(n.created-n.collector.Ejected()))
}

// Metrics returns the live metrics registry, or nil when the
// observability layer is off (Config.Metrics / Config.TraceEvents).
func (n *Network) Metrics() *metrics.Registry {
	if n.obs == nil {
		return nil
	}
	return n.obs.reg
}

// FlitTracer returns the flit-lifecycle event tracer, or nil when
// Config.TraceEvents is zero.
func (n *Network) FlitTracer() *metrics.Tracer {
	if n.obs == nil {
		return nil
	}
	return n.obs.tracer
}

// FlushMetrics forces an observability commit outside the regular
// cadence. It must be called from the goroutine driving Step (between
// steps); tests and custom protocols use it before reading snapshots.
func (n *Network) FlushMetrics() { n.flushObs() }

// Close releases the cycle kernel's worker pool (if any). The network
// stays usable — a later parallel Step lazily restarts the pool — but
// closing a finished network frees its goroutines immediately instead
// of waiting for the garbage collector's finalizer.
func (n *Network) Close() { n.stopKernel() }

// audit runs the per-cycle invariant auditor (internal/audit) over
// every credit-carrying link and every unified buffer. All router and
// link mutation for the cycle has completed behind the compute-phase
// barrier, so the checks are pure reads over quiescent state and are
// sharded across the same worker pool as the kernel; per-shard first
// violations are merged in index order, so the reported violation is
// the same one the serial kernel would find. Any violation is a
// simulator bug and panics.
func (n *Network) audit(now int64) {
	n.runSharded(n.auditLinksFn)
	for _, err := range n.auditErrs {
		if err != nil {
			//vichar:invariant a conservation imbalance means flow-control state corrupted mid-run; continuing would corrupt results
			panic(fmt.Sprintf("network: cycle %d: %v", now, err))
		}
	}
	n.runSharded(n.auditRoutersFn)
	for _, err := range n.auditErrs {
		if err != nil {
			//vichar:invariant a UBS bookkeeping divergence means buffered flits can be lost or duplicated; continuing would corrupt results
			panic(fmt.Sprintf("network: cycle %d: %v", now, err))
		}
	}
}

// auditLinksShard checks credit conservation over the shard's chunk
// of audited links, writing only its own auditStates/auditErrs slots.
func (n *Network) auditLinksShard(shard int) {
	states := n.auditStates[shard][:0]
	lo, hi := chunkBounds(len(n.auditedLinks), n.shardCount, shard)
	for _, al := range n.auditedLinks[lo:hi] {
		//vichar:alloc appends into the shard's reusable audit-state scratch; capacity reaches the chunk size after the first audited cycle
		states = append(states, audit.LinkState{
			Name:               al.name,
			Outstanding:        al.view.OutstandingFlits(),
			InFlightFlits:      al.fl.inflight(),
			DownstreamOccupied: al.buf.Occupied(),
			InFlightCredits:    al.cl.inflight(),
			RetxHeld:           al.retxHeld(),
		})
	}
	n.auditStates[shard] = states
	n.auditErrs[shard] = audit.CheckLinks(states)
	if n.auditErrs[shard] == nil {
		for _, al := range n.auditedLinks[lo:hi] {
			fs := al.fl.faults
			if fs == nil {
				continue
			}
			if err := audit.CheckLinkFaults(al.name, fs.Drops, fs.Corrupts, fs.Retransmits, fs.Held()); err != nil {
				n.auditErrs[shard] = err
				break
			}
		}
	}
}

// auditRoutersShard runs the UBS invariant auditor over the shard's
// routers, recording the first violation in its auditErrs slot.
func (n *Network) auditRoutersShard(shard int) {
	n.auditErrs[shard] = nil
	lo, hi := n.shardBounds(shard)
	for id := lo; id < hi; id++ {
		if err := n.routers[id].AuditInvariants(n.now); err != nil {
			n.auditErrs[shard] = err
			return
		}
	}
}

// sample records occupancy and VC-usage statistics.
func (n *Network) sample(now int64) {
	occ, slots := 0, 0
	perNode := n.samplePerNode
	for i, r := range n.routers {
		occ += r.Occupied()
		slots += r.TotalSlots()
		perNode[i] = r.InUseVCsPerPort()
	}
	frac := 0.0
	if slots > 0 {
		frac = float64(occ) / float64(slots)
	}
	n.collector.Sample(now, frac, perNode)
	if n.obs != nil {
		vcs := 0.0
		for _, v := range perNode {
			vcs += v
		}
		n.obs.reg.SetGauge(n.obs.gOcc, frac)
		n.obs.reg.SetGauge(n.obs.gVCs, vcs/float64(len(perNode)))
	}
}

// Run executes the full measurement protocol: inject until the
// ejection quota (warm-up + measurement) is met or the cycle cap is
// hit, then finalize statistics. The returned results carry the
// configuration label and offered load; power annotation is the
// caller's concern.
func (n *Network) Run() stats.Results {
	res, _ := n.RunWith(nil)
	return res
}

// RunWith executes the measurement protocol exactly like Run, calling
// hook (when non-nil) between completed cycles — the only point where
// a checkpoint is legal. A non-nil error from hook aborts the run and
// is returned verbatim; the hook must not Step the network itself.
func (n *Network) RunWith(hook func(now int64) error) (stats.Results, error) {
	maxCycles := n.cfg.EffectiveMaxCycles()
	saturated := false
	for {
		n.Step()
		if hook != nil {
			if err := hook(n.now); err != nil {
				return stats.Results{}, err
			}
		}
		if n.collector.Done() {
			break
		}
		if n.now >= maxCycles {
			saturated = true
			break
		}
	}
	if !n.haveEnd {
		n.endSnap = n.totalCounters()
		n.linkEndSnap = append([]uint64(nil), n.linkFlits...)
		n.haveEnd = true
	}
	n.flushObs()
	res := n.collector.Finalize(n.now, saturated)
	if n.haveStart {
		res.Counters = n.endSnap.Sub(n.startSnap)
	} else {
		res.Counters = n.endSnap
	}
	res.ChannelLoads, res.MaxChannelLoad = n.channelLoads(res.MeasureCycles)
	res.Label = n.cfg.Label()
	res.InjectionRate = n.cfg.InjectionRate
	if n.txn != nil {
		res.Txn = stats.FinalizeTxn(n.txn.Samples(), n.txn.Issued(), n.txn.Retired())
	}
	return res, nil
}

// channelLoads converts the bracketed per-link flit counts into loads
// over the measurement window.
func (n *Network) channelLoads(cycles int64) ([]stats.ChannelLoad, float64) {
	if cycles <= 0 || n.linkEndSnap == nil {
		return nil, 0
	}
	loads := make([]stats.ChannelLoad, len(n.linkMeta))
	maxLoad := 0.0
	for i, meta := range n.linkMeta {
		delta := n.linkEndSnap[i]
		if n.linkStartSnap != nil {
			delta -= n.linkStartSnap[i]
		}
		meta.Load = float64(delta) / float64(cycles)
		loads[i] = meta
		if meta.Load > maxLoad {
			maxLoad = meta.Load
		}
	}
	return loads, maxLoad
}

// Drain runs without injection until every in-flight packet has been
// ejected or maxCycles elapse; tests use it after manual InjectPacket
// calls. It returns the number of packets still unejected.
func (n *Network) Drain(maxCycles int64) int64 {
	deadline := n.now + maxCycles
	for n.now < deadline {
		if n.collector.Ejected() >= n.created && n.TracePending() == 0 &&
			(n.txn == nil || n.txn.Quiescent()) {
			break
		}
		n.Step()
	}
	n.flushObs()
	return n.created - n.collector.Ejected() + int64(n.TracePending())
}

// Collector exposes the stats collector (tests and custom protocols).
func (n *Network) Collector() *stats.Collector { return n.collector }

// Txn exposes the transaction-layer engine, or nil when Config.Txn is
// off (tests and custom protocols).
func (n *Network) Txn() *txn.Engine { return n.txn }

// WorklistStats tallies active-router worklist effectiveness: how many
// per-router compute and deliver entries each Step ran versus skipped.
type WorklistStats struct {
	ComputeTicked  uint64
	ComputeSkipped uint64
	DeliverTicked  uint64
	DeliverSkipped uint64
}

// WorklistStats sums the per-shard worklist tallies accumulated since
// construction. Purely diagnostic — the counts do not feed results.
func (n *Network) WorklistStats() WorklistStats {
	var s WorklistStats
	for i := range n.wlStats {
		s.ComputeTicked += n.wlStats[i].ComputeTicked
		s.ComputeSkipped += n.wlStats[i].ComputeSkipped
		s.DeliverTicked += n.wlStats[i].DeliverTicked
		s.DeliverSkipped += n.wlStats[i].DeliverSkipped
	}
	return s
}

// ArenaOverflow returns the number of hot-state elements the
// struct-of-arrays arena served outside its backing arrays; nonzero
// means router.NewArena's sizing formula undershot (locality lost,
// correctness unaffected). TestArenaSizingExact pins it at zero.
func (n *Network) ArenaOverflow() int { return n.arena.Overflow() }

// RouteTableBytes returns the memory footprint of the network's
// route-memoization tables (DESIGN.md §17): the price paid at
// construction for an RC stage that is a flat array load. Grows as
// nodes² — the kernel benchmark's big-mesh cells record it.
func (n *Network) RouteTableBytes() int { return n.arena.Tables().Bytes() }
