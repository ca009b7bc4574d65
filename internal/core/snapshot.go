package core

import (
	"fmt"

	"vichar/internal/flit"
	"vichar/internal/snap"
)

// This file implements the checkpoint half of ViChaR's control
// structures. Everything here loads *in place*: the slot array,
// tracker bitmaps and control-table rings are arena-backed and
// aliased by live pointers, so restore copies values into the
// existing arrays rather than replacing them.

// save writes the tracker's bitmap and free count.
func (t *Tracker) save(w *snap.Writer) {
	w.U64s(t.words)
	w.Int(t.free)
}

// load restores a tracker of identical size in place.
func (t *Tracker) load(r *snap.Reader) error {
	r.U64sInto(t.words)
	free := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if free < 0 || free > t.n {
		return fmt.Errorf("core: snapshot tracker free count %d outside [0,%d]", free, t.n)
	}
	t.free = free
	return nil
}

// save writes each row's head and count registers followed by only
// its count live ring entries, in ring order. Entries past count are
// dead — Append overwrites a position before Head or PopHeadNext can
// read it — so they do not travel; the active-row count is derived
// from the counts.
func (t *Table) save(w *snap.Writer) {
	w.U32(uint32(len(t.head)))
	for vc := range t.head {
		w.U32(uint32(t.head[vc]))
		w.U32(uint32(t.count[vc]))
		for i := 0; i < t.count[vc]; i++ {
			w.U32(uint32(t.flat[vc*t.stride+t.ringPos(vc, i)]))
		}
	}
}

// load restores a table of identical shape in place: the registers,
// and each live entry at the ring position it was saved from, so the
// physical layout and every later read match the saved table. A UBS
// row is as wide as the slot pool, so a live entry naming a slot at
// or past stride is corrupt.
func (t *Table) load(r *snap.Reader) error {
	if n := int(r.U32()); n != len(t.head) {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("core: snapshot table has %d rows, constructed %d", n, len(t.head))
	}
	active := 0
	for vc := range t.head {
		head, count := r.U32(), r.U32()
		if err := r.Err(); err != nil {
			return err
		}
		if head >= uint32(t.stride) || count > uint32(t.stride) {
			return fmt.Errorf("core: snapshot table row %d head %d, count %d outside a %d-entry ring", vc, head, count, t.stride)
		}
		t.head[vc], t.count[vc] = int(head), int(count)
		for i := 0; i < t.count[vc]; i++ {
			slot := r.U32()
			if slot >= uint32(t.stride) {
				return fmt.Errorf("core: snapshot table row %d names slot %d of %d", vc, slot, t.stride)
			}
			t.flat[vc*t.stride+t.ringPos(vc, i)] = int(slot)
		}
		if count > 0 {
			active++
		}
	}
	t.active = active
	return r.Err()
}

// SaveState serializes the Token Dispenser's availability bitmaps.
func (d *Dispenser) SaveState(w *snap.Writer) {
	w.Section("dispenser")
	d.normal.save(w)
	w.Bool(d.hasEscape)
	if d.hasEscape {
		d.escape.save(w)
	}
}

// LoadState restores a dispenser constructed with the same token
// shape.
func (d *Dispenser) LoadState(r *snap.Reader) error {
	if err := r.Section("dispenser"); err != nil {
		return err
	}
	if err := d.normal.load(r); err != nil {
		return err
	}
	if has := r.Bool(); has != d.hasEscape {
		return fmt.Errorf("core: snapshot dispenser escape set %v, constructed %v", has, d.hasEscape)
	}
	if d.hasEscape {
		if err := d.escape.load(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// ForEachFlit calls fn for every flit stored in the unified buffer.
func (b *UBS) ForEachFlit(fn func(*flit.Flit)) {
	for _, f := range b.slots {
		if f != nil {
			fn(f)
		}
	}
}

// SaveState serializes the unified buffer's mutable contents: slot
// occupancy (as flit references) with each occupied slot's arrival
// stamp, the readiness overlay, the Slot Availability Tracker, the VC
// Control Table and each live row's cached head stamp. The stamps of
// free slots are dead (Write sets a slot's stamp before any read) and
// an empty row's head stamp is always neverReady, its constructed
// value, so neither travels.
func (b *UBS) SaveState(w *snap.Writer) {
	w.Section("ubs")
	w.Int(len(b.slots))
	for i, f := range b.slots {
		w.Flit(f)
		if f != nil {
			w.I64(b.arrived[i])
		}
	}
	w.U64s(b.readyMask)
	w.U64s(b.pendMask)
	w.I64(b.pendCycle)
	b.tracker.save(w)
	b.table.save(w)
	for vc, at := range b.headArrived {
		if b.table.Len(vc) > 0 {
			w.I64(at)
		}
	}
}

// LoadState restores contents saved by SaveState into a UBS
// constructed with the same slot and VC-row counts.
func (b *UBS) LoadState(r *snap.Reader, resolve snap.Resolver) error {
	if err := r.Section("ubs"); err != nil {
		return err
	}
	if n := r.Int(); n != len(b.slots) {
		return fmt.Errorf("core: snapshot has %d UBS slots, buffer has %d", n, len(b.slots))
	}
	for i := range b.slots {
		f, err := r.Flit(resolve)
		if err != nil {
			return err
		}
		b.slots[i] = f
		if f != nil {
			b.arrived[i] = r.I64()
		}
	}
	r.U64sInto(b.readyMask)
	r.U64sInto(b.pendMask)
	b.pendCycle = r.I64()
	if err := b.tracker.load(r); err != nil {
		return err
	}
	if err := b.table.load(r); err != nil {
		return err
	}
	for vc := range b.headArrived {
		b.headArrived[vc] = neverReady
		if b.table.Len(vc) > 0 {
			b.headArrived[vc] = r.I64()
		}
	}
	return r.Err()
}
