package router

import (
	"testing"

	"vichar/internal/config"
	"vichar/internal/flit"
)

func headFlit(vc int) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{Size: 4}, Type: flit.Head, VC: vc}
}

func tailFlit(vc int) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{Size: 4}, Type: flit.Tail, VC: vc}
}

func TestNewCreditViewDispatch(t *testing.T) {
	mk := func(arch config.BufferArch) CreditView {
		cfg := config.Default()
		cfg.Arch = arch
		if arch == config.Generic {
			cfg.VCs, cfg.VCDepth, cfg.BufferSlots = 4, 4, 16
		}
		return NewCreditView(&cfg)
	}
	if _, ok := mk(config.Generic).(*genericView); !ok {
		t.Error("generic view type wrong")
	}
	if _, ok := mk(config.ViChaR).(*vicharView); !ok {
		t.Error("vichar view type wrong")
	}
	if _, ok := mk(config.DAMQ).(*sharedView); !ok {
		t.Error("damq view type wrong")
	}
	if _, ok := mk(config.FCCB).(*sharedView); !ok {
		t.Error("fccb view type wrong")
	}
}

func TestGenericViewCreditAccounting(t *testing.T) {
	v := newGenericView(nil, 2, 3, 0, true, 1)
	if v.FreeSlots() != 6 {
		t.Fatalf("fresh free slots %d", v.FreeSlots())
	}
	vc, ok := v.AllocVCIn(0, false)
	if !ok {
		t.Fatal("alloc failed on fresh view")
	}
	for i := 0; i < 3; i++ {
		if !v.CanSendFlit(vc) {
			t.Fatalf("no credit at flit %d", i)
		}
		f := headFlit(vc)
		if i == 2 {
			f = tailFlit(vc)
		}
		v.OnSend(f)
	}
	if v.CanSendFlit(vc) {
		t.Fatal("send allowed beyond depth")
	}
	v.OnCredit(flit.Credit{VC: vc})
	if !v.CanSendFlit(vc) {
		t.Fatal("credit not restored")
	}
}

func TestGenericViewAtomicAllocation(t *testing.T) {
	v := newGenericView(nil, 1, 4, 0, true, 1)
	vc, ok := v.AllocVCIn(0, false)
	if !ok || vc != 0 {
		t.Fatalf("alloc got %d/%v", vc, ok)
	}
	v.OnSend(headFlit(0))
	v.OnSend(tailFlit(0)) // tail sent: VC closed but 2 flits downstream
	if _, ok := v.AllocVCIn(0, false); ok {
		t.Fatal("atomic view re-allocated a non-drained VC")
	}
	v.OnCredit(flit.Credit{VC: 0})
	v.OnCredit(flit.Credit{VC: 0, ReleaseVC: true})
	if _, ok := v.AllocVCIn(0, false); !ok {
		t.Fatal("atomic view refused a fully drained VC")
	}
}

func TestGenericViewNonAtomicAllocation(t *testing.T) {
	v := newGenericView(nil, 1, 4, 0, false, 1)
	if _, ok := v.AllocVCIn(0, false); !ok {
		t.Fatal("fresh alloc failed")
	}
	v.OnSend(headFlit(0))
	if _, ok := v.AllocVCIn(0, false); ok {
		t.Fatal("allocated a VC whose packet is still open")
	}
	v.OnSend(tailFlit(0))
	if _, ok := v.AllocVCIn(0, false); !ok {
		t.Fatal("non-atomic view refused VC after tail sent")
	}
}

func TestGenericViewEscapePartition(t *testing.T) {
	v := newGenericView(nil, 4, 2, 1, true, 1)
	// Normal allocations never touch the escape VC (id 3).
	for i := 0; i < 3; i++ {
		vc, ok := v.AllocVCIn(0, false)
		if !ok || vc == 3 {
			t.Fatalf("normal alloc %d got %d/%v", i, vc, ok)
		}
	}
	if _, ok := v.AllocVCIn(0, false); ok {
		t.Fatal("normal class exhausted but alloc succeeded")
	}
	if !v.HasFreeVCIn(0, true) {
		t.Fatal("escape VC should be free")
	}
	vc, ok := v.AllocVCIn(0, true)
	if !ok || vc != 3 {
		t.Fatalf("escape alloc got %d/%v", vc, ok)
	}
}

func TestGenericViewGrantableClaim(t *testing.T) {
	v := newGenericView(nil, 4, 2, 0, true, 1)
	g := v.GrantableVCIn(0, false, 2)
	if g != 2 {
		t.Fatalf("hint ignored: got %d", g)
	}
	v.ClaimVCIn(0, 2)
	if v.GrantableVCIn(0, false, 2) == 2 {
		t.Fatal("claimed VC still grantable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double claim did not panic")
		}
	}()
	v.ClaimVCIn(0, 2)
}

func TestGenericViewPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(v *genericView)
	}{
		{"send without credit", func(v *genericView) {
			v.OnSend(headFlit(0))
			v.OnSend(headFlit(0)) // depth 1: second send has no credit
		}},
		{"credit unknown vc", func(v *genericView) { v.OnCredit(flit.Credit{VC: 9}) }},
		{"credit overflow", func(v *genericView) { v.OnCredit(flit.Credit{VC: 1}) }},
		{"claim out of range", func(v *genericView) { v.ClaimVCIn(0, 7) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := newGenericView(nil, 2, 1, 0, true, 1)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f(v)
		})
	}
}

func TestSharedViewPoolAccounting(t *testing.T) {
	v := newSharedView(nil, 4, 6, 0, 1)
	// 6 slots, 4 permanent per-queue reservations: 2 shared.
	if v.FreeSlots() != 2 {
		t.Fatalf("fresh shared slots %d, want 2", v.FreeSlots())
	}
	vc, _ := v.AllocVCIn(0, false)
	// The queue can absorb the shared pool plus its own reservation.
	for i := 0; i < 3; i++ {
		if !v.CanSendFlit(vc) {
			t.Fatalf("no credit at flit %d", i)
		}
		v.OnSend(headFlit(vc))
	}
	if v.CanSendFlit(vc) {
		t.Fatal("send beyond shared pool + reservation")
	}
	// Other queues still have their reservations.
	other := (vc + 1) % 4
	if !v.CanSendFlit(other) {
		t.Fatal("another queue lost its reserved slot")
	}
	// A departure refills the reservation first, then the pool.
	v.OnCredit(flit.Credit{VC: vc})
	if v.FreeSlots() != 0 || !v.resFree[vc] {
		t.Fatal("reservation not refilled first")
	}
	v.OnCredit(flit.Credit{VC: vc})
	if v.FreeSlots() != 1 {
		t.Fatal("shared credit not restored")
	}
}

// A queue's permanent reservation guarantees progress even when the
// shared pool is exhausted by other queues — the DAMQ anti-deadlock
// provision.
func TestSharedViewReservationGuarantee(t *testing.T) {
	v := newSharedView(nil, 2, 4, 0, 1) // 2 shared + 2 reserved
	v.OnSend(headFlit(0))
	v.OnSend(headFlit(0)) // queue 0 eats the shared pool
	if v.FreeSlots() != 0 {
		t.Fatal("shared pool should be empty")
	}
	if !v.CanSendFlit(1) {
		t.Fatal("queue 1 lost its guaranteed slot")
	}
	v.OnSend(headFlit(1))
	if v.CanSendFlit(1) {
		t.Fatal("queue 1 sent past its reservation")
	}
	if !v.CanSendFlit(0) {
		t.Fatal("queue 0's own reservation missing")
	}
}

func TestSharedViewVCLifecycle(t *testing.T) {
	v := newSharedView(nil, 2, 8, 0, 1)
	a, _ := v.AllocVCIn(0, false)
	b, ok := v.AllocVCIn(0, false)
	if !ok || a == b {
		t.Fatalf("allocs %d %d", a, b)
	}
	if v.OutstandingVCs() != 2 {
		t.Fatal("outstanding count wrong")
	}
	if _, ok := v.AllocVCIn(0, false); ok {
		t.Fatal("over-allocated fixed VCs")
	}
	v.OnSend(tailFlit(a)) // tail closes the VC for new packets
	if _, ok := v.AllocVCIn(0, false); !ok {
		t.Fatal("closed VC not re-allocatable (non-atomic queueing)")
	}
}

func TestViCharViewTokenFlow(t *testing.T) {
	v := newViCharView(nil, 16, 16, 0, 1)
	if v.FreeSlots() != 16 || v.OutstandingVCs() != 0 {
		t.Fatal("fresh vichar view wrong")
	}
	// Every token grant reserves one slot, so all 16 tokens fit — the
	// paper's Figure 5 extreme of vk single-slot VCs.
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		vc, ok := v.AllocVCIn(0, false)
		if !ok || seen[vc] {
			t.Fatalf("token %d: %d/%v", i, vc, ok)
		}
		seen[vc] = true
	}
	if _, ok := v.AllocVCIn(0, false); ok {
		t.Fatal("17th token granted")
	}
	if v.OutstandingVCs() != 16 {
		t.Fatal("outstanding wrong")
	}
	if v.FreeSlots() != 0 {
		t.Fatalf("shared pool %d with every slot reserved", v.FreeSlots())
	}
	// Each VC can still land exactly its one reserved flit.
	for vc := 0; vc < 16; vc++ {
		if !v.CanSendFlit(vc) {
			t.Fatalf("vc %d lost its reserved slot", vc)
		}
		v.OnSend(headFlit(vc))
	}
	if v.CanSendFlit(0) {
		t.Fatal("send past the reservation")
	}
	// A tail departure returns the flit's slot and the token.
	v.OnCredit(flit.Credit{VC: 5, ReleaseVC: true})
	if v.FreeSlots() != 1 || !v.HasFreeVCIn(0, false) {
		t.Fatalf("release credit not applied: free=%d", v.FreeSlots())
	}
	if vc, ok := v.AllocVCIn(0, false); !ok || vc != 5 {
		t.Fatalf("released token not re-dispensed: %d/%v", vc, ok)
	}
}

// A packet deeper than one flit flows through a VC by alternating its
// reservation with departures even when the shared pool is empty.
func TestViCharViewReservationCycling(t *testing.T) {
	v := newViCharView(nil, 2, 2, 0, 1)
	a, ok := v.AllocVCIn(0, false)
	b, ok2 := v.AllocVCIn(0, false)
	if !ok || !ok2 {
		t.Fatal("setup allocs failed")
	}
	v.OnSend(headFlit(a)) // consumes a's reservation (pool empty)
	v.OnSend(headFlit(b))
	if v.CanSendFlit(a) || v.CanSendFlit(b) {
		t.Fatal("over-capacity send allowed")
	}
	// a's flit departs downstream: reservation refills, next flit of
	// a can be sent. Repeat indefinitely: the packet streams through
	// a single slot.
	for i := 0; i < 5; i++ {
		v.OnCredit(flit.Credit{VC: a})
		if !v.CanSendFlit(a) {
			t.Fatalf("round %d: reservation not refilled", i)
		}
		v.OnSend(headFlit(a))
	}
	v.OnCredit(flit.Credit{VC: a, ReleaseVC: true})
	if v.OutstandingVCs() != 1 || v.FreeSlots() != 1 {
		t.Fatalf("release accounting wrong: out=%d free=%d", v.OutstandingVCs(), v.FreeSlots())
	}
}

func TestViCharViewEscapeTokens(t *testing.T) {
	v := newViCharView(nil, 8, 8, 2, 1)
	if v.HasFreeVCIn(0, true) != true {
		t.Fatal("escape tokens missing")
	}
	e, ok := v.AllocVCIn(0, true)
	if !ok || e < 6 {
		t.Fatalf("escape token %d/%v", e, ok)
	}
	// Normal tokens unaffected.
	for i := 0; i < 6; i++ {
		if _, ok := v.AllocVCIn(0, false); !ok {
			t.Fatalf("normal token %d missing", i)
		}
	}
	if _, ok := v.AllocVCIn(0, false); ok {
		t.Fatal("normal pool should be empty")
	}
}

func TestViCharViewPanics(t *testing.T) {
	v := newViCharView(nil, 2, 2, 0, 1)
	v.OnSend(headFlit(0))
	v.OnSend(headFlit(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("send without slot credit did not panic")
			}
		}()
		v.OnSend(headFlit(0))
	}()
	v.OnCredit(flit.Credit{VC: 0})
	v.OnCredit(flit.Credit{VC: 1})
	defer func() {
		if recover() == nil {
			t.Error("credit overflow did not panic")
		}
	}()
	v.OnCredit(flit.Credit{VC: 0})
}

func TestSinkViewAlwaysAvailable(t *testing.T) {
	v := NewSinkView()
	if !v.CanSendFlit(3) || !v.HasFreeVCIn(0, false) || !v.HasFreeVCIn(0, true) {
		t.Fatal("sink refused")
	}
	vc, ok := v.AllocVCIn(0, false)
	if !ok || vc != 0 {
		t.Fatalf("sink alloc %d/%v", vc, ok)
	}
	v.OnSend(headFlit(0))
	if v.OutstandingVCs() != 1 {
		t.Fatal("sink outstanding tracking wrong")
	}
	v.OnSend(tailFlit(0))
	if v.OutstandingVCs() != 0 {
		t.Fatal("sink outstanding not released")
	}
	if v.FreeSlots() <= 0 {
		t.Fatal("sink slots exhausted")
	}
}

func TestSharedViewGrantableClaim(t *testing.T) {
	v := newSharedView(nil, 4, 8, 1, 1) // queue 3 is the escape class
	// Normal class scans 0..2 from the hint.
	if got := v.GrantableVCIn(0, false, 2); got != 2 {
		t.Fatalf("hint ignored: %d", got)
	}
	v.ClaimVCIn(0, 2)
	if got := v.GrantableVCIn(0, false, 2); got == 2 {
		t.Fatal("claimed queue still grantable")
	}
	// Escape class only offers queue 3.
	if got := v.GrantableVCIn(0, true, 0); got != 3 {
		t.Fatalf("escape grantable %d, want 3", got)
	}
	v.ClaimVCIn(0, 0)
	v.ClaimVCIn(0, 1)
	if got := v.GrantableVCIn(0, false, 0); got != -1 {
		t.Fatalf("exhausted class still grants %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double claim did not panic")
		}
	}()
	v.ClaimVCIn(0, 1)
}

func TestSharedViewOutstanding(t *testing.T) {
	v := newSharedView(nil, 3, 6, 0, 1)
	if v.OutstandingVCs() != 0 {
		t.Fatal("fresh outstanding nonzero")
	}
	v.ClaimVCIn(0, 0)
	v.ClaimVCIn(0, 2)
	if v.OutstandingVCs() != 2 {
		t.Fatalf("outstanding %d, want 2", v.OutstandingVCs())
	}
	v.OnSend(tailFlit(0)) // tail closes the packet
	if v.OutstandingVCs() != 1 {
		t.Fatalf("outstanding %d after tail, want 1", v.OutstandingVCs())
	}
}

func TestSharedViewStrayCreditPanics(t *testing.T) {
	v := newSharedView(nil, 2, 4, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stray credit did not panic")
		}
	}()
	v.OnCredit(flit.Credit{VC: 0})
}

func TestSharedViewNeedsSlotPerQueue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized shared view did not panic")
		}
	}()
	newSharedView(nil, 8, 4, 0, 1)
}

func TestViCharViewStrayCreditPanics(t *testing.T) {
	v := newViCharView(nil, 4, 4, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("stray UBS credit did not panic")
		}
	}()
	v.OnCredit(flit.Credit{VC: 1})
}

func TestViCharViewOutOfRangeSend(t *testing.T) {
	v := newViCharView(nil, 4, 4, 0, 1)
	if v.CanSendFlit(-1) || v.CanSendFlit(9) {
		t.Fatal("out-of-range vc sendable")
	}
}
