package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"vichar/internal/buffers"
	"vichar/internal/flit"
	"vichar/internal/snap"
)

// --- Tracker (Slot / VC Availability Tracker) ---

func TestTrackerAcquireAll(t *testing.T) {
	tr := NewTracker(5)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		s := tr.Acquire()
		if s < 0 || s >= 5 || seen[s] {
			t.Fatalf("acquire %d returned %d (seen=%v)", i, s, seen)
		}
		seen[s] = true
	}
	if tr.Free() != 0 {
		t.Fatalf("free %d after exhausting", tr.Free())
	}
	if s := tr.Acquire(); s != -1 {
		t.Fatalf("all-zero tracker granted %d", s)
	}
}

func TestTrackerReleaseReacquire(t *testing.T) {
	tr := NewTracker(3)
	a := tr.Acquire()
	tr.Acquire()
	tr.Acquire()
	tr.Release(a)
	if tr.Free() != 1 || !tr.Available(a) {
		t.Fatal("release not reflected")
	}
	if got := tr.Acquire(); got != a {
		t.Fatalf("reacquire got %d, want the released %d", got, a)
	}
}

func TestTrackerDoubleReleasePanics(t *testing.T) {
	tr := NewTracker(2)
	s := tr.Acquire()
	tr.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	tr.Release(s)
}

func TestTrackerOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range release did not panic")
		}
	}()
	NewTracker(2).Release(5)
}

// Property: free count always equals the number of available bits and
// acquires never double-allocate.
func TestTrackerConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker(8)
		held := map[int]bool{}
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 {
				s := tr.Acquire()
				if len(held) == 8 {
					if s != -1 {
						return false
					}
				} else {
					if s < 0 || held[s] {
						return false
					}
					held[s] = true
				}
			} else if len(held) > 0 {
				for s := range held {
					delete(held, s)
					tr.Release(s)
					break
				}
			}
			if tr.Free() != 8-len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- VC Control Table ---

func TestTableAppendPopOrder(t *testing.T) {
	tab := NewTable(4)
	slots := []int{9, 2, 7, 0} // deliberately non-consecutive
	for _, s := range slots {
		tab.Append(1, s)
	}
	if tab.Len(1) != 4 || tab.ActiveRows() != 1 {
		t.Fatalf("len=%d active=%d", tab.Len(1), tab.ActiveRows())
	}
	for _, want := range slots {
		if got := tab.Head(1); got != want {
			t.Fatalf("head %d, want %d", got, want)
		}
		if got := tab.PopHead(1); got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
	}
	if tab.ActiveRows() != 0 || tab.Head(1) != -1 {
		t.Fatal("row not NULLed after draining")
	}
}

func TestTablePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop of empty row did not panic")
		}
	}()
	NewTable(2).PopHead(0)
}

func TestTableSlotsCopy(t *testing.T) {
	tab := NewTable(2)
	tab.Append(0, 3)
	s := tab.Slots(0)
	s[0] = 99
	if tab.Head(0) != 3 {
		t.Fatal("Slots returned aliased storage")
	}
	if tab.Slots(7) != nil {
		t.Fatal("out-of-range row returned slots")
	}
}

// --- Token Dispenser ---

func TestDispenserGrantReturn(t *testing.T) {
	d := NewDispenser(4, 0)
	got := map[int]bool{}
	for i := 0; i < 4; i++ {
		vc, ok := d.Grant(false)
		if !ok || got[vc] {
			t.Fatalf("grant %d: vc=%d ok=%v", i, vc, ok)
		}
		got[vc] = true
	}
	if d.InUse() != 4 {
		t.Fatalf("in use %d, want 4", d.InUse())
	}
	if _, ok := d.Grant(false); ok {
		t.Fatal("grant with all tokens out")
	}
	d.Return(2)
	if vc, ok := d.Grant(false); !ok || vc != 2 {
		t.Fatalf("after return got %d/%v", vc, ok)
	}
}

func TestDispenserEscapeSet(t *testing.T) {
	d := NewDispenser(8, 2)
	if d.FreeNormal() != 6 || d.FreeEscape() != 2 {
		t.Fatalf("free split %d/%d", d.FreeNormal(), d.FreeEscape())
	}
	// Escape tokens are the highest IDs and only granted on request.
	e1, ok1 := d.Grant(true)
	e2, ok2 := d.Grant(true)
	if !ok1 || !ok2 || e1 < 6 || e2 < 6 || e1 == e2 {
		t.Fatalf("escape grants %d,%d", e1, e2)
	}
	if !d.IsEscape(e1) || d.IsEscape(0) {
		t.Fatal("IsEscape misclassifies")
	}
	if _, ok := d.Grant(true); ok {
		t.Fatal("escape grant with escape set exhausted")
	}
	// Normal grants are unaffected.
	for i := 0; i < 6; i++ {
		if vc, ok := d.Grant(false); !ok || vc >= 6 {
			t.Fatalf("normal grant %d: %d/%v", i, vc, ok)
		}
	}
	d.Return(e1)
	if d.FreeEscape() != 1 {
		t.Fatal("escape return not reflected")
	}
}

func TestDispenserNoEscapeConfigured(t *testing.T) {
	d := NewDispenser(4, 0)
	if _, ok := d.Grant(true); ok {
		t.Fatal("escape grant without an escape set")
	}
	if d.FreeEscape() != 0 {
		t.Fatal("phantom escape tokens")
	}
}

func TestDispenserFCFSOrder(t *testing.T) {
	// Tokens are dispensed from the top-most available entry, so the
	// grant order after interleaved returns is deterministic.
	d := NewDispenser(3, 0)
	a, _ := d.Grant(false)
	b, _ := d.Grant(false)
	d.Return(a)
	c, _ := d.Grant(false)
	if c != a {
		t.Fatalf("expected the freed token %d, got %d", a, c)
	}
	d.Return(b)
	d.Return(c)
}

func TestDispenserBadReturnPanics(t *testing.T) {
	d := NewDispenser(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range return did not panic")
		}
	}()
	d.Return(4)
}

func TestDispenserConstructorPanics(t *testing.T) {
	for i, c := range []func(){
		func() { NewDispenser(0, 0) },
		func() { NewDispenser(4, 4) },
		func() { NewDispenser(4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

// --- UBS (Unified Buffer Structure) ---

func mkFlit(id uint64, vc int, typ flit.Type) *flit.Flit {
	return &flit.Flit{Pkt: &flit.Packet{ID: id, Size: 4}, Type: typ, VC: vc}
}

func TestUBSShape(t *testing.T) {
	b := NewUBS(16)
	if b.Slots() != 16 || b.MaxVCs() != 16 {
		t.Fatalf("shape %d/%d", b.Slots(), b.MaxVCs())
	}
	c := NewUBSWithVCs(16, 4)
	if c.Slots() != 16 || c.MaxVCs() != 4 {
		t.Fatalf("capped shape %d/%d", c.Slots(), c.MaxVCs())
	}
}

func TestUBSSingleVCFIFO(t *testing.T) {
	b := NewUBS(8)
	for i := uint64(0); i < 5; i++ {
		if err := b.Write(mkFlit(i, 3, flit.Body), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		f, err := b.Pop(3, 100)
		if err != nil || f.Pkt.ID != i {
			t.Fatalf("pop %d: %v (%v)", i, f, err)
		}
	}
}

// The UBS must let one VC's flits land in non-consecutive slots when
// other VCs interleave — the paper's key flexibility.
func TestUBSNonConsecutiveSlots(t *testing.T) {
	b := NewUBS(8)
	if err := b.Write(mkFlit(0, 0, flit.Head), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(mkFlit(1, 1, flit.Head), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(mkFlit(2, 0, flit.Body), 1); err != nil {
		t.Fatal(err)
	}
	s := b.SlotsOf(0)
	if len(s) != 2 || s[1]-s[0] == 1 {
		// slot 1 went to VC 1, so VC 0 holds slots {0, 2}.
		t.Fatalf("vc 0 slots %v, expected non-consecutive", s)
	}
	// FIFO order survives the scattering.
	f, err := b.Pop(0, 100)
	if err != nil || f.Pkt.ID != 0 {
		t.Fatalf("pop got %v (%v)", f, err)
	}
}

// A single VC may absorb the entire pool (few deep VCs under light
// traffic) and the pool exhausts exactly at capacity.
func TestUBSFullPoolOneVC(t *testing.T) {
	b := NewUBS(8)
	for i := uint64(0); i < 8; i++ {
		if err := b.Write(mkFlit(i, 0, flit.Body), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Write(mkFlit(99, 1, flit.Body), 1); !errors.Is(err, buffers.ErrFull) {
		t.Fatalf("overfull write returned %v", err)
	}
	if b.FreeSlotsFor(1) != 0 || b.Occupied() != 8 || b.InUseVCs() != 1 {
		t.Fatal("pool accounting wrong at capacity")
	}
}

// All slots as single-flit VCs (many shallow VCs under heavy
// traffic).
func TestUBSAllSingleFlitVCs(t *testing.T) {
	b := NewUBS(8)
	for vc := 0; vc < 8; vc++ {
		if err := b.Write(mkFlit(uint64(vc), vc, flit.Head), 1); err != nil {
			t.Fatal(err)
		}
	}
	if b.InUseVCs() != 8 {
		t.Fatalf("in-use VCs %d, want 8", b.InUseVCs())
	}
	for vc := 0; vc < 8; vc++ {
		f, err := b.Pop(vc, 10)
		if err != nil || f.Pkt.ID != uint64(vc) {
			t.Fatalf("vc %d pop %v (%v)", vc, f, err)
		}
	}
}

func TestUBSBadVC(t *testing.T) {
	b := NewUBSWithVCs(8, 4)
	if err := b.Write(mkFlit(0, 5, flit.Head), 1); !errors.Is(err, buffers.ErrBadVC) {
		t.Fatalf("write to capped-out vc returned %v", err)
	}
	if _, err := b.Pop(0, 10); !errors.Is(err, buffers.ErrEmpty) {
		t.Fatalf("pop of empty vc returned %v", err)
	}
}

func TestUBSSameCycleInvisibility(t *testing.T) {
	b := NewUBS(4)
	if err := b.Write(mkFlit(0, 0, flit.Head), 7); err != nil {
		t.Fatal(err)
	}
	if b.Front(0, 7) != nil {
		t.Fatal("flit visible in its write cycle")
	}
	if b.Front(0, 8) == nil {
		t.Fatal("flit invisible one cycle later")
	}
}

func TestUBSConstructorPanics(t *testing.T) {
	for i, c := range []func(){
		func() { NewUBS(0) },
		func() { NewUBSWithVCs(4, 0) },
		func() { NewUBSWithVCs(4, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

// Property: slot conservation — free + used == capacity after any
// random operation sequence, every VC keeps FIFO order, and no slot
// is double-allocated (checked implicitly by the tracker's panics).
func TestUBSConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewUBS(12)
		model := make([][]uint64, 12)
		occupied := 0
		id := uint64(0)
		now := int64(0)
		for step := 0; step < 600; step++ {
			now++
			vc := rng.Intn(12)
			if rng.Intn(2) == 0 && occupied < 12 {
				if err := b.Write(mkFlit(id, vc, flit.Body), now); err != nil {
					return false
				}
				model[vc] = append(model[vc], id)
				occupied++
				id++
			} else if f := b.Front(vc, now); f != nil {
				if len(model[vc]) == 0 || f.Pkt.ID != model[vc][0] {
					return false
				}
				if _, err := b.Pop(vc, now); err != nil {
					return false
				}
				model[vc] = model[vc][1:]
				occupied--
			}
			if b.Occupied() != occupied {
				return false
			}
			active := 0
			for v := range model {
				if b.Len(v) != len(model[v]) {
					return false
				}
				if len(model[v]) > 0 {
					active++
				}
			}
			if b.InUseVCs() != active {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- Checkpoint (format v3: live-only control-table rings) ---

// ubsHarness drives a UBS with single-flit packets and resolves the
// flit references of its snapshots.
type ubsHarness struct {
	b    *UBS
	pkts map[uint64]*flit.Packet
	now  int64
}

func newUBSHarness(slots int) *ubsHarness {
	return &ubsHarness{b: NewUBS(slots), pkts: map[uint64]*flit.Packet{}, now: 1}
}

// write steers a fresh one-flit packet with the given ID onto vc.
func (h *ubsHarness) write(t *testing.T, id uint64, vc int) {
	t.Helper()
	p := &flit.Packet{ID: id, Size: 1}
	h.pkts[id] = p
	f := flit.MakeFlits(p)[0]
	f.VC = vc
	if err := h.b.Write(f, h.now); err != nil {
		t.Fatalf("write packet %d to vc %d: %v", id, vc, err)
	}
	h.now++
}

// pop dequeues vc's head flit and returns its packet ID and the slot
// it left.
func (h *ubsHarness) pop(t *testing.T, vc int) (id uint64, slot int) {
	t.Helper()
	slot = h.b.table.Head(vc)
	f, err := h.b.Pop(vc, h.now)
	if err != nil {
		t.Fatalf("pop vc %d: %v", vc, err)
	}
	h.now++
	return f.Pkt.ID, slot
}

func (h *ubsHarness) resolve(id uint64, seq int) (*flit.Flit, error) {
	p, ok := h.pkts[id]
	if !ok || seq != 0 {
		return nil, errors.New("unknown flit")
	}
	return flit.MakeFlits(p)[0], nil
}

func saveUBS(b *UBS) []byte {
	w := snap.NewWriter()
	b.SaveState(w)
	return w.Finish()
}

// TestUBSSaveLoadWrappedRings round-trips a unified buffer whose
// control-table rows wrap across the ring end (head at stride-1, live
// entries spanning the wrap), with an emptied row whose head has
// moved, a row never used, and the pool partly occupied. The restored
// buffer must hold the same registers and live entries at the same
// ring positions, re-save byte-equal, and hand out the same slots as
// the original under an identical Write/Pop sequence.
func TestUBSSaveLoadWrappedRings(t *testing.T) {
	const slots = 8
	h := newUBSHarness(slots)
	id := uint64(0)
	next := func() uint64 { id++; return id }
	// Walk vc 0's head to stride-1, then fill three entries across the
	// wrap (ring positions 7, 0, 1).
	for i := 0; i < slots-1; i++ {
		h.write(t, next(), 0)
		h.pop(t, 0)
	}
	for i := 0; i < 3; i++ {
		h.write(t, next(), 0)
	}
	// vc 2 emptied after its head moved to 3; vc 1 and vc 5 partly
	// filled, interleaved so slots are non-consecutive.
	for i := 0; i < 3; i++ {
		h.write(t, next(), 2)
		h.write(t, next(), 1)
		h.pop(t, 2)
	}
	h.pop(t, 1)
	h.write(t, next(), 5)
	if got := h.b.table.head[0]; got != slots-1 {
		t.Fatalf("setup: vc 0 head %d, want %d", got, slots-1)
	}
	if h.b.Len(0) != 3 || h.b.Len(1) != 2 || h.b.Len(2) != 0 || h.b.Len(5) != 1 {
		t.Fatalf("setup: row lengths %d/%d/%d/%d", h.b.Len(0), h.b.Len(1), h.b.Len(2), h.b.Len(5))
	}

	blob := saveUBS(h.b)
	r, err := snap.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	g := &ubsHarness{b: NewUBS(slots), pkts: h.pkts, now: h.now}
	if err := g.b.LoadState(r, h.resolve); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	for vc := 0; vc < slots; vc++ {
		a, b := &h.b.table, &g.b.table
		if a.head[vc] != b.head[vc] || a.count[vc] != b.count[vc] {
			t.Fatalf("vc %d registers: head %d/%d, count %d/%d", vc, a.head[vc], b.head[vc], a.count[vc], b.count[vc])
		}
		for i := 0; i < a.count[vc]; i++ {
			pos := vc*a.stride + a.ringPos(vc, i)
			if a.flat[pos] != b.flat[pos] {
				t.Fatalf("vc %d entry %d at ring position %d: slot %d, restored %d", vc, i, pos, a.flat[pos], b.flat[pos])
			}
		}
		if h.b.headArrived[vc] != g.b.headArrived[vc] {
			t.Fatalf("vc %d head stamp %d, restored %d", vc, h.b.headArrived[vc], g.b.headArrived[vc])
		}
	}
	if h.b.table.active != g.b.table.active || h.b.Occupied() != g.b.Occupied() {
		t.Fatalf("active rows %d/%d, occupied %d/%d", h.b.table.active, g.b.table.active, h.b.Occupied(), g.b.Occupied())
	}
	if again := saveUBS(g.b); !bytes.Equal(blob, again) {
		t.Fatal("re-save of the restored buffer differs from the original blob")
	}

	// Identical operation sequences from here must pick identical
	// slots and dequeue identical packets.
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 400; step++ {
		vc := rng.Intn(slots)
		if h.b.Occupied() < slots && rng.Intn(2) == 0 {
			pid := next()
			h.write(t, pid, vc)
			g.write(t, pid, vc)
			if a, b := h.b.SlotsOf(vc), g.b.SlotsOf(vc); a[len(a)-1] != b[len(b)-1] {
				t.Fatalf("step %d: write to vc %d took slot %d, restored %d", step, vc, a[len(a)-1], b[len(b)-1])
			}
			continue
		}
		if h.b.Len(vc) == 0 {
			continue
		}
		ia, sa := h.pop(t, vc)
		ib, sb := g.pop(t, vc)
		if ia != ib || sa != sb {
			t.Fatalf("step %d: pop vc %d gave packet %d from slot %d, restored packet %d from slot %d", step, vc, ia, sa, ib, sb)
		}
	}
	if !bytes.Equal(saveUBS(h.b), saveUBS(g.b)) {
		t.Fatal("buffers diverged under an identical operation sequence")
	}
}

// TestTableLoadRejectsCorruptRegisters feeds the control-table loader
// well-formed (checksummed) sections whose head, count or live entry
// lies outside the ring: each must come back as an error, not a panic
// on a later ring access.
func TestTableLoadRejectsCorruptRegisters(t *testing.T) {
	const rows, stride = 2, 4
	cases := []struct {
		name              string
		head, count, slot uint32
	}{
		{"head at stride", stride, 0, 0},
		{"head far out", 1 << 31, 1, 0},
		{"count past stride", 0, stride + 1, 0},
		{"slot past stride", 1, 1, stride},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := snap.NewWriter()
			w.U32(rows)
			w.U32(tc.head)
			w.U32(tc.count)
			for i := uint32(0); i < tc.count && i < stride+1; i++ {
				w.U32(tc.slot)
			}
			w.U32(0) // row 1: empty
			w.U32(0)
			r, err := snap.Open(w.Finish())
			if err != nil {
				t.Fatal(err)
			}
			var tab Table
			tab.init(rows, stride, nil)
			if err := tab.load(r); err == nil {
				t.Fatalf("load accepted head %d, count %d, slot %d on a %d-entry ring", tc.head, tc.count, tc.slot, stride)
			}
		})
	}
}
