package core

import (
	"fmt"

	"vichar/internal/soa"
)

// Table is the VC Control Table, "the central hub of ViChaR's
// operation" (paper §3.2.2): one row per virtual channel ID, each row
// holding, in arrival order, the slot IDs of the flits that VC
// currently owns in the unified buffer. Rows are NULLed (emptied) to
// mark free VCs; a VC's slots may be non-consecutive, which is what
// frees ViChaR from the contiguity constraints of static buffers.
//
// Rows are fixed-stride ring buffers over one flat arena-backed array
// (vcs rows x stride entries): Append, Head and PopHead are all O(1)
// index arithmetic, and a router's whole table packs into a handful
// of cache lines instead of per-row heap slices.
//
// The Arriving Flit Pointer of a VC corresponds to appending to its
// row; the Departing Flit Pointer is the row's first entry.
type Table struct {
	flat   []int // vcs rows x stride ring entries
	head   []int // per row: ring index of the departing-flit pointer
	count  []int // per row: entries held
	stride int
	active int
}

// NewTable returns a control table with vcs rows, each able to hold
// vcs entries (the paper sizes it at vk rows so every slot can be its
// own VC; the UBS widens rows to its slot count via newTable).
func NewTable(vcs int) *Table {
	t := &Table{}
	t.init(vcs, vcs, nil)
	return t
}

// init readies a (possibly embedded) table of vcs rows x stride
// entries, drawing storage from the arena when one is supplied.
func (t *Table) init(vcs, stride int, a *soa.Arena) {
	if vcs < 1 {
		panic(fmt.Sprintf("core: control table needs at least one row, got %d", vcs))
	}
	if stride < 1 {
		panic(fmt.Sprintf("core: control table rows need at least one entry, got %d", stride))
	}
	t.stride = stride
	t.flat = a.TakeInts(vcs * stride)
	t.head = a.TakeInts(vcs)
	t.count = a.TakeInts(vcs)
}

// Rows returns the number of VC rows.
func (t *Table) Rows() int { return len(t.head) }

// ActiveRows returns the number of rows currently holding at least
// one slot ID (in-use VCs with buffered flits).
func (t *Table) ActiveRows() int { return t.active }

// Len returns the number of slots row vc currently holds.
func (t *Table) Len(vc int) int {
	if vc < 0 || vc >= len(t.head) {
		return 0
	}
	return t.count[vc]
}

// Append records that the newest flit of VC vc was steered into slot.
func (t *Table) Append(vc, slot int) {
	if vc < 0 || vc >= len(t.head) {
		//vichar:invariant the UBS validates VC ids before steering a flit; an out-of-range row is bookkeeping corruption
		panic(fmt.Sprintf("core: control table append to row %d of %d", vc, len(t.head)))
	}
	n := t.count[vc]
	if n == t.stride {
		//vichar:invariant a row holds at most the buffer's slot count; overflowing it means tracker/table divergence
		panic(fmt.Sprintf("core: control table row %d overflows its %d-entry ring", vc, t.stride))
	}
	if n == 0 {
		t.active++
	}
	t.flat[vc*t.stride+t.ringPos(vc, n)] = slot
	t.count[vc] = n + 1
}

// Head returns the slot ID of VC vc's departing-flit pointer (its
// first non-NULL entry), or -1 when the row is empty.
func (t *Table) Head(vc int) int {
	if vc < 0 || vc >= len(t.head) || t.count[vc] == 0 {
		return -1
	}
	return t.flat[vc*t.stride+t.head[vc]]
}

// PopHead NULLs out VC vc's first entry (its flit departed) and
// returns the freed slot ID. It panics on an empty row — the router
// must not dequeue from an empty VC.
func (t *Table) PopHead(vc int) int {
	slot, _ := t.PopHeadNext(vc)
	return slot
}

// PopHeadNext is PopHead that also reports the row's new head slot
// (-1 when the row emptied), saving the departure path a second
// head lookup.
func (t *Table) PopHeadNext(vc int) (slot, next int) {
	if vc < 0 || vc >= len(t.head) || t.count[vc] == 0 {
		//vichar:invariant the router must not dequeue from an empty VC; Front gates every Pop
		panic(fmt.Sprintf("core: control table pop from empty row %d", vc))
	}
	h := t.head[vc]
	slot = t.flat[vc*t.stride+h]
	h++
	if h == t.stride {
		h = 0
	}
	t.head[vc] = h
	n := t.count[vc] - 1
	t.count[vc] = n
	if n == 0 {
		t.active--
		return slot, -1
	}
	return slot, t.flat[vc*t.stride+h]
}

// Slots returns a copy of VC vc's slot list in FIFO order; intended
// for tests and diagnostics.
func (t *Table) Slots(vc int) []int {
	if vc < 0 || vc >= len(t.head) {
		return nil
	}
	//vichar:alloc diagnostic copy for tests and the invariant audit; not on the steady-state tick path
	out := make([]int, t.count[vc])
	for i := range out {
		out[i] = t.flat[vc*t.stride+t.ringPos(vc, i)]
	}
	return out
}

// ringPos returns the ring index of row vc's i-th entry (0 = head),
// for i < stride.
func (t *Table) ringPos(vc, i int) int {
	pos := t.head[vc] + i
	if pos >= t.stride {
		pos -= t.stride
	}
	return pos
}
