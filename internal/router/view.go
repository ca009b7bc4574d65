package router

import (
	"fmt"

	"vichar/internal/config"
	"vichar/internal/core"
	"vichar/internal/flit"
	"vichar/internal/soa"
)

// CreditView is the upstream mirror of a downstream input port's
// buffer state, maintained at each router output port (and at each
// network interface for the local injection port). It answers the
// two questions flow control asks: can one more flit be sent on a
// given VC (slot credit), and can a new packet be granted a VC (VC
// availability) — for ViChaR, the latter is the Token Dispenser.
type CreditView interface {
	// CanSendFlit reports whether a flit may be sent on vc this cycle
	// (a downstream slot is available to it).
	CanSendFlit(vc int) bool
	// OnSend debits the view for a departing flit.
	OnSend(f *flit.Flit)
	// OnCredit credits the view for a downstream departure.
	OnCredit(c flit.Credit)
	// HasFreeVCIn reports whether a VC of the given kind (escape or
	// regular) could be granted to a new packet of the class this
	// cycle. Each VC class (request, response) owns a disjoint
	// contiguous chunk of the regular and escape VC ID ranges, so a
	// grant for one class can never consume a channel the other class
	// depends on; with one class (every non-transaction run) the chunk
	// is the whole range.
	HasFreeVCIn(class int, escape bool) bool
	// AllocVCIn grants a VC of the given kind to a new packet of the
	// class. The caller must route all the packet's flits onto the
	// returned VC.
	AllocVCIn(class int, escape bool) (vc int, ok bool)
	// FreeSlots returns the downstream slots currently available to
	// new flits (summed over VCs for partitioned buffers); used by
	// adaptive routing to score candidate outputs.
	FreeSlots() int
	// OutstandingVCs returns the number of VCs currently granted and
	// not yet released.
	OutstandingVCs() int
	// OutstandingFlits returns the view's debit: flits sent minus
	// credits received. The invariant auditor balances it against the
	// link's in-flight flits, the downstream occupancy and the
	// in-flight credits.
	OutstandingFlits() int
}

// classSpan splits the VC ID range [lo, hi) into classes contiguous
// chunks and returns chunk class; earlier chunks absorb any
// remainder. With one class the range is returned unchanged, so every
// non-transaction configuration keeps today's allocation behavior
// bit-for-bit.
func classSpan(lo, hi, classes, class int) (int, int) {
	n := hi - lo
	if classes <= 1 || n <= 0 {
		return lo, hi
	}
	size, rem := n/classes, n%classes
	start := lo + class*size + min(class, rem)
	end := start + size
	if class < rem {
		end++
	}
	return start, end
}

// classOfVC returns the class whose regular or escape chunk contains
// vc, given the port's VC layout ([0, escBase) regular, [escBase,
// total) escape).
func classOfVC(vc, escBase, total, classes int) int {
	if classes <= 1 {
		return 0
	}
	for c := 0; c < classes; c++ {
		if lo, hi := classSpan(0, escBase, classes, c); vc >= lo && vc < hi {
			return c
		}
		if lo, hi := classSpan(escBase, total, classes, c); vc >= lo && vc < hi {
			return c
		}
	}
	return 0
}

// NewCreditView builds the view matching the configuration's buffer
// architecture, mirroring one downstream input port.
func NewCreditView(cfg *config.Config) CreditView { return NewCreditViewIn(nil, cfg) }

// NewCreditViewIn is NewCreditView drawing the view's per-VC counters
// and flags from the network arena (nil-arena safe), so the credit
// state the tick path debits sits beside the rest of the router's hot
// state (DESIGN.md §14).
func NewCreditViewIn(a *Arena, cfg *config.Config) CreditView {
	escape := 0
	if cfg.NeedsEscape() {
		escape = cfg.EscapeVCs
	}
	classes := cfg.VCClasses()
	switch cfg.Arch {
	case config.Generic:
		return newGenericView(a.Soa(), cfg.VCs, cfg.VCDepth, escape, cfg.AtomicVCAlloc, classes)
	case config.ViChaR:
		return newViCharView(a.Soa(), cfg.BufferSlots, cfg.MaxVCs(), escape, classes)
	case config.DAMQ, config.FCCB:
		return newSharedView(a.Soa(), cfg.VCs, cfg.BufferSlots, escape, classes)
	default:
		panic(fmt.Sprintf("router: unknown buffer architecture %v", cfg.Arch))
	}
}

// genericView mirrors a statically partitioned buffer: one private
// credit counter per VC plus per-VC allocation state. With atomic
// allocation a VC is re-grantable only when fully drained; otherwise
// packets may queue back-to-back within the FIFO.
type genericView struct {
	depth   int
	credits []int
	open    []bool // a packet holds the VC and its tail has not been sent
	escBase int    // first escape VC ID; len(credits) when no escape set
	atomic  bool
	classes int // VC classes partitioning both ID ranges (1 = unpartitioned)
	rr      int // round-robin pointer for AllocVCIn
}

func newGenericView(a *soa.Arena, vcs, depth, escape int, atomic bool, classes int) *genericView {
	v := &genericView{
		depth:   depth,
		credits: a.TakeInts(vcs),
		open:    a.TakeBools(vcs),
		escBase: vcs - escape,
		atomic:  atomic,
		classes: classes,
	}
	for i := range v.credits {
		v.credits[i] = depth
	}
	return v
}

func (v *genericView) CanSendFlit(vc int) bool {
	return vc >= 0 && vc < len(v.credits) && v.credits[vc] > 0
}

func (v *genericView) OnSend(f *flit.Flit) {
	if !v.CanSendFlit(f.VC) {
		//vichar:invariant SA checks CanSendFlit the same cycle; a creditless send is a flow-control conservation bug
		panic(fmt.Sprintf("router: send without credit on vc %d", f.VC))
	}
	v.credits[f.VC]--
	if f.IsTail() {
		v.open[f.VC] = false
	}
}

func (v *genericView) OnCredit(c flit.Credit) {
	if c.VC < 0 || c.VC >= len(v.credits) {
		//vichar:invariant a credit naming a VC the view does not mirror means the link is miswired
		panic(fmt.Sprintf("router: credit for unknown vc %d", c.VC))
	}
	v.credits[c.VC]++
	if v.credits[c.VC] > v.depth {
		//vichar:invariant more credits than depth means a duplicated or spurious credit upstream
		panic(fmt.Sprintf("router: credit overflow on vc %d", c.VC))
	}
}

// grantable reports whether the VC may be given to a new packet.
func (v *genericView) grantable(vc int) bool {
	if v.open[vc] {
		return false
	}
	if v.atomic {
		return v.credits[vc] == v.depth
	}
	return true
}

func (v *genericView) vcRange(class int, escape bool) (lo, hi int) {
	if escape {
		return classSpan(v.escBase, len(v.credits), v.classes, class)
	}
	return classSpan(0, v.escBase, v.classes, class)
}

func (v *genericView) HasFreeVCIn(class int, escape bool) bool {
	lo, hi := v.vcRange(class, escape)
	for vc := lo; vc < hi; vc++ {
		if v.grantable(vc) {
			return true
		}
	}
	return false
}

func (v *genericView) AllocVCIn(class int, escape bool) (int, bool) {
	lo, hi := v.vcRange(class, escape)
	n := hi - lo
	if n <= 0 {
		return -1, false
	}
	for i := 0; i < n; i++ {
		vc := lo + (v.rr+i)%n
		if v.grantable(vc) {
			v.rr = (vc - lo + 1) % n
			v.open[vc] = true
			return vc, true
		}
	}
	return -1, false
}

// GrantableVCIn returns a grantable VC of the kind within the class's
// chunk, scanning round-robin from hint, without claiming it (generic
// VA stage 1).
func (v *genericView) GrantableVCIn(class int, escape bool, hint int) int {
	lo, hi := v.vcRange(class, escape)
	n := hi - lo
	if n <= 0 {
		return -1
	}
	if hint < 0 {
		hint = 0
	}
	for i := 0; i < n; i++ {
		vc := lo + (hint+i)%n
		if v.grantable(vc) {
			return vc
		}
	}
	return -1
}

// ClaimVCIn marks vc granted to a new packet (generic VA stage 2);
// the class is implied by the VC's chunk.
func (v *genericView) ClaimVCIn(class, vc int) {
	if vc < 0 || vc >= len(v.open) || !v.grantable(vc) {
		//vichar:invariant VA stage 2 claims only VCs stage 1 reported grantable within the same cycle
		panic(fmt.Sprintf("router: claim of ungrantable vc %d", vc))
	}
	v.open[vc] = true
}

func (v *genericView) FreeSlots() int {
	n := 0
	for _, c := range v.credits {
		n += c
	}
	return n
}

func (v *genericView) OutstandingFlits() int {
	n := 0
	for _, c := range v.credits {
		n += v.depth - c
	}
	return n
}

func (v *genericView) OutstandingVCs() int {
	n := 0
	for vc := range v.open {
		if v.open[vc] || v.credits[vc] < v.depth {
			n++
		}
	}
	return n
}

// sharedView mirrors a DAMQ or FC-CB input port: a shared slot pool
// with a fixed set of VCs; packets may queue back-to-back within a
// queue (their head-of-line weakness).
//
// One slot is permanently reserved per queue — the classical DAMQ
// provision — so every queue can always accept at least one flit.
// Without it, a pool filled by packets waiting for resources held by
// packets whose flits cannot enter the pool deadlocks (hold-and-wait
// through the shared storage, independent of routing acyclicity).
type sharedView struct {
	slots      int
	sharedFree int    // pool slots beyond the per-queue reservations
	resFree    []bool // per queue: reserved slot currently empty
	held       []int  // per queue: flits resident downstream
	open       []bool
	escBase    int
	classes    int // VC classes partitioning both ID ranges (1 = unpartitioned)
	rr         int
}

func newSharedView(a *soa.Arena, vcs, slots, escape, classes int) *sharedView {
	if slots < vcs {
		panic(fmt.Sprintf("router: shared view needs a reservable slot per VC, got %d slots for %d VCs", slots, vcs))
	}
	v := &sharedView{
		slots:      slots,
		sharedFree: slots - vcs,
		resFree:    a.TakeBools(vcs),
		held:       a.TakeInts(vcs),
		open:       a.TakeBools(vcs),
		escBase:    vcs - escape,
		classes:    classes,
	}
	for i := range v.resFree {
		v.resFree[i] = true
	}
	return v
}

func (v *sharedView) CanSendFlit(vc int) bool {
	if vc < 0 || vc >= len(v.open) {
		return false
	}
	return v.sharedFree > 0 || v.resFree[vc]
}

func (v *sharedView) OnSend(f *flit.Flit) {
	if !v.CanSendFlit(f.VC) {
		//vichar:invariant SA checks CanSendFlit the same cycle; a creditless send is a flow-control conservation bug
		panic(fmt.Sprintf("router: send without shared credit on vc %d", f.VC))
	}
	if v.sharedFree > 0 {
		v.sharedFree--
	} else {
		v.resFree[f.VC] = false
	}
	v.held[f.VC]++
	if f.IsTail() {
		v.open[f.VC] = false
	}
}

func (v *sharedView) OnCredit(c flit.Credit) {
	if c.VC < 0 || c.VC >= len(v.open) || v.held[c.VC] == 0 {
		//vichar:invariant a credit for a VC with no resident flits means double-crediting — pool accounting corruption
		panic(fmt.Sprintf("router: stray shared credit on vc %d", c.VC))
	}
	v.held[c.VC]--
	// Refill the queue's reservation before the shared pool so the
	// queue always keeps its guaranteed slot.
	if !v.resFree[c.VC] {
		v.resFree[c.VC] = true
	} else {
		v.sharedFree++
		if v.sharedFree > v.slots-len(v.open) {
			//vichar:invariant free count exceeding unreserved capacity means a leaked reservation or double credit
			panic("router: shared credit overflow")
		}
	}
}

func (v *sharedView) vcRange(class int, escape bool) (lo, hi int) {
	if escape {
		return classSpan(v.escBase, len(v.open), v.classes, class)
	}
	return classSpan(0, v.escBase, v.classes, class)
}

func (v *sharedView) HasFreeVCIn(class int, escape bool) bool {
	lo, hi := v.vcRange(class, escape)
	for vc := lo; vc < hi; vc++ {
		if !v.open[vc] {
			return true
		}
	}
	return false
}

func (v *sharedView) AllocVCIn(class int, escape bool) (int, bool) {
	lo, hi := v.vcRange(class, escape)
	n := hi - lo
	if n <= 0 {
		return -1, false
	}
	for i := 0; i < n; i++ {
		vc := lo + (v.rr+i)%n
		if !v.open[vc] {
			v.rr = (vc - lo + 1) % n
			v.open[vc] = true
			return vc, true
		}
	}
	return -1, false
}

// GrantableVCIn returns a grantable VC of the kind within the class's
// chunk, scanning round-robin from hint, without claiming it.
func (v *sharedView) GrantableVCIn(class int, escape bool, hint int) int {
	lo, hi := v.vcRange(class, escape)
	n := hi - lo
	if n <= 0 {
		return -1
	}
	if hint < 0 {
		hint = 0
	}
	for i := 0; i < n; i++ {
		vc := lo + (hint+i)%n
		if !v.open[vc] {
			return vc
		}
	}
	return -1
}

// ClaimVCIn marks vc granted to a new packet; the class is implied by
// the VC's chunk.
func (v *sharedView) ClaimVCIn(class, vc int) {
	if vc < 0 || vc >= len(v.open) || v.open[vc] {
		//vichar:invariant VA stage 2 claims only VCs stage 1 reported grantable within the same cycle
		panic(fmt.Sprintf("router: claim of ungrantable vc %d", vc))
	}
	v.open[vc] = true
}

func (v *sharedView) FreeSlots() int { return v.sharedFree }

func (v *sharedView) OutstandingFlits() int {
	n := 0
	for _, h := range v.held {
		n += h
	}
	return n
}

func (v *sharedView) OutstandingVCs() int {
	n := 0
	for _, o := range v.open {
		if o {
			n++
		}
	}
	return n
}

// vicharView mirrors a ViChaR input port: a shared slot pool plus the
// Token (VC) Dispenser. This is where the paper's per-output-port UCL
// modules (Token Dispenser + VC Availability Tracker) live.
//
// Every dispensed token carries a one-slot reservation, so an in-use
// VC can always land at least one flit in the UBS even when the
// shared pool is exhausted — the provision that makes the paper's
// "vk single-slot VCs" extreme (Figure 5) live, and that prevents
// hold-and-wait deadlock through the shared storage: without it, a
// pool full of packets waiting for tokens held by packets whose flits
// cannot enter the pool wedges permanently. Because the dispenser has
// exactly as many tokens as the UBS has slots, reservations can never
// oversubscribe the pool.
//
// The reservation is parked only while the VC has no flit resident
// downstream: a resident flit guarantees the VC's progress by itself
// (it drains along the routing function's acyclic chain, and its
// departure credit re-parks the reservation if it was the last).
// Maintained invariant for every granted VC: reservation parked OR at
// least one flit resident. This keeps busy VCs from idling buffer
// capacity while preserving the deadlock-freedom guarantee.
// With VC classes (classes > 1), the dispenser's regular and escape
// ID ranges are chunked per class and grants come from the requesting
// class's chunk only (Dispenser.GrantIn), and one pool slot per class
// is carved out as that class's grant reserve (classRes): a class can
// take a token — and with it the token's landing-slot reservation —
// even when the shared pool has been exhausted by the other class.
// Together these make the response class's progress independent of
// request-class congestion, which is what breaks the request/response
// protocol-deadlock cycle through the unified storage. Slots freed by
// a VC refill its own class's reserve before the shared pool.
type vicharView struct {
	slots      int
	sharedFree int
	dispenser  *core.Dispenser
	resFree    []bool // per VC: reservation available (token outstanding)
	granted    []bool // per VC: token outstanding
	held       []int  // per VC: flits resident downstream
	escBase    int    // first escape VC ID; == len(granted) when no escape set
	classes    int
	classRes   []bool // per class: grant-reserve slot currently free; nil when classes == 1
}

func newViCharView(a *soa.Arena, slots, vcs, escape, classes int) *vicharView {
	v := &vicharView{
		slots:      slots,
		sharedFree: slots,
		dispenser:  core.NewDispenserIn(a, vcs, escape),
		resFree:    a.TakeBools(vcs),
		granted:    a.TakeBools(vcs),
		held:       a.TakeInts(vcs),
		escBase:    vcs - escape,
		classes:    classes,
	}
	if classes > 1 {
		if slots <= classes {
			panic(fmt.Sprintf("router: class-partitioned UBS needs more slots (%d) than classes (%d)", slots, classes))
		}
		v.sharedFree = slots - classes
		v.classRes = a.TakeBools(classes)
		for c := range v.classRes {
			v.classRes[c] = true
		}
	}
	return v
}

// classOf returns the VC class that owns vc's ID chunk.
func (v *vicharView) classOf(vc int) int {
	return classOfVC(vc, v.escBase, len(v.granted), v.classes)
}

// freeSlot returns the slot a departing flit (or unparked reservation)
// of vc just vacated: the VC's class reserve refills first so every
// class keeps its token-grant guarantee, then the shared pool.
func (v *vicharView) freeSlot(vc int) {
	if v.classRes != nil {
		if c := v.classOf(vc); !v.classRes[c] {
			v.classRes[c] = true
			return
		}
	}
	v.sharedFree++
}

// grantSlotFree reports whether a token grant for the class could
// carry its one-slot reservation.
func (v *vicharView) grantSlotFree(class int) bool {
	return v.sharedFree > 0 || (v.classRes != nil && v.classRes[class])
}

func (v *vicharView) CanSendFlit(vc int) bool {
	if vc < 0 || vc >= len(v.granted) {
		return false
	}
	return v.sharedFree > 0 || (v.granted[vc] && v.resFree[vc])
}

func (v *vicharView) OnSend(f *flit.Flit) {
	if !v.CanSendFlit(f.VC) {
		//vichar:invariant SA checks CanSendFlit the same cycle; a creditless send is a flow-control conservation bug
		panic(fmt.Sprintf("router: send without UBS credit on vc %d", f.VC))
	}
	if v.sharedFree > 0 {
		v.sharedFree--
	} else {
		v.resFree[f.VC] = false
	}
	v.held[f.VC]++
	// A resident flit carries the VC's progress guarantee; unpark the
	// reservation while it does.
	if v.resFree[f.VC] {
		v.resFree[f.VC] = false
		v.freeSlot(f.VC)
	}
}

func (v *vicharView) OnCredit(c flit.Credit) {
	if c.VC < 0 || c.VC >= len(v.granted) || v.held[c.VC] == 0 {
		//vichar:invariant a credit for an ungranted or empty VC means Token Dispenser / UBS bookkeeping divergence
		panic(fmt.Sprintf("router: stray UBS credit on vc %d", c.VC))
	}
	v.held[c.VC]--
	switch {
	case c.ReleaseVC:
		if v.held[c.VC] != 0 {
			//vichar:invariant tails depart last, so a release credit with residents means flit reordering or a lost credit
			panic(fmt.Sprintf("router: VC %d released with %d flits resident", c.VC, v.held[c.VC]))
		}
		// Tails depart last, so the reservation cannot be parked
		// here; the departing flit's slot returns to the pool.
		v.resFree[c.VC] = false
		v.granted[c.VC] = false
		v.dispenser.Return(c.VC)
		v.freeSlot(c.VC)
	case v.held[c.VC] == 0:
		// Last resident flit left mid-packet: re-park the reservation
		// so the VC keeps its guaranteed landing slot.
		v.resFree[c.VC] = true
	default:
		v.freeSlot(c.VC)
	}
	limit := v.slots
	if v.classRes != nil {
		limit -= len(v.classRes)
	}
	if v.sharedFree > limit {
		//vichar:invariant free slots exceeding pool capacity means a slot was credited twice
		panic("router: UBS credit overflow")
	}
}

// tokenRange returns the class's chunk of the dispenser's global VC
// ID range for the chosen token kind.
func (v *vicharView) tokenRange(class int, escape bool) (lo, hi int) {
	if escape {
		return classSpan(v.escBase, len(v.granted), v.classes, class)
	}
	return classSpan(0, v.escBase, v.classes, class)
}

func (v *vicharView) HasFreeVCIn(class int, escape bool) bool {
	if !v.grantSlotFree(class) {
		return false // no slot left to carry the token's reservation
	}
	lo, hi := v.tokenRange(class, escape)
	return v.dispenser.FreeIn(escape, lo, hi) > 0
}

// AllocVCIn grants the class's next token and moves one slot from the
// shared pool (or the class's grant reserve) into the new VC's
// reservation.
func (v *vicharView) AllocVCIn(class int, escape bool) (int, bool) {
	if !v.grantSlotFree(class) {
		return -1, false
	}
	lo, hi := v.tokenRange(class, escape)
	vc, ok := v.dispenser.GrantIn(escape, lo, hi)
	if !ok {
		return -1, false
	}
	if v.sharedFree > 0 {
		v.sharedFree--
	} else {
		v.classRes[class] = false
	}
	v.resFree[vc] = true
	v.granted[vc] = true
	return vc, true
}

func (v *vicharView) FreeSlots() int { return v.sharedFree }

func (v *vicharView) OutstandingFlits() int {
	n := 0
	for _, h := range v.held {
		n += h
	}
	return n
}

func (v *vicharView) OutstandingVCs() int { return v.dispenser.InUse() }

// Admission is the per-class back-pressure a network-interface
// endpoint exerts on its ejection port. Peek reports whether a new
// packet of the class may be granted ejection this cycle; Admit
// reserves the endpoint resource that grant will occupy. Both run
// inside the owning router's compute phase and must touch only state
// owned by that node (the memory-controller service queue of
// internal/txn), reading deterministically from the committed cycle
// state.
type Admission interface {
	Peek(class int) bool
	Admit(class int)
}

// sinkView models the processing element at the end of a local
// ejection port: it consumes one flit per cycle with effectively
// infinite buffering, so it always has credit — and, unless an
// Admission gate is installed, always has a VC.
type sinkView struct {
	outstanding int
	admit       Admission
}

// NewSinkView returns the ejection-side credit view.
func NewSinkView() CreditView { return &sinkView{} }

// NewSinkViewWith returns an ejection-side credit view whose VC
// grants are gated by the admission policy (nil behaves like
// NewSinkView). This is how a finite network-interface queue refuses
// ejection to a packet class — the real NIU buffer bound that makes
// protocol deadlock reachable.
func NewSinkViewWith(admit Admission) CreditView { return &sinkView{admit: admit} }

func (v *sinkView) CanSendFlit(vc int) bool { return true }

func (v *sinkView) OnSend(f *flit.Flit) {
	if f.IsHead() {
		v.outstanding++
	}
	if f.IsTail() {
		v.outstanding--
	}
}

func (v *sinkView) OnCredit(c flit.Credit) {}

func (v *sinkView) HasFreeVCIn(class int, escape bool) bool {
	return v.admit == nil || v.admit.Peek(class)
}

func (v *sinkView) AllocVCIn(class int, escape bool) (int, bool) {
	if v.admit != nil {
		if !v.admit.Peek(class) {
			return -1, false
		}
		v.admit.Admit(class)
	}
	return 0, true
}

func (v *sinkView) FreeSlots() int      { return 1 << 20 }
func (v *sinkView) OutstandingVCs() int { return v.outstanding }

// OutstandingFlits is always zero at the sink: the processing element
// consumes flits immediately and sends no credits back.
func (v *sinkView) OutstandingFlits() int { return 0 }

// GrantableVCIn offers VC 0 — the processing element consumes flits
// of any number of interleaved packets — unless the admission gate
// refuses the class this cycle.
func (v *sinkView) GrantableVCIn(class int, escape bool, hint int) int {
	if v.admit != nil && !v.admit.Peek(class) {
		return -1
	}
	return 0
}

// ClaimVCIn reserves the admission slot GrantableVCIn peeked.
func (v *sinkView) ClaimVCIn(class, vc int) {
	if v.admit != nil {
		v.admit.Admit(class)
	}
}

var (
	_ CreditView = (*genericView)(nil)
	_ CreditView = (*sharedView)(nil)
	_ CreditView = (*vicharView)(nil)
	_ CreditView = (*sinkView)(nil)
)
