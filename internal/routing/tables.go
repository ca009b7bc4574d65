// Route-compute memoization (DESIGN.md §17): a routing function is a
// pure function of (cur, dst), so the whole mesh's routing decisions
// can be precomputed at construction time into flat byte tables. The
// router's RC stage then becomes an array load (deterministic
// functions) or an unpack of one packed candidate word (adaptive
// functions) instead of coordinate arithmetic behind an interface
// dispatch per head flit.
package routing

import (
	"fmt"

	"vichar/internal/soa"
	"vichar/internal/topology"
)

// Tables memoizes one routing function plus the escape network over
// every (cur, dst) node pair of a mesh. One Tables is built per
// network (arena-backed, shared by all routers); lookups are
// allocation-free beyond the caller's reusable scratch.
type Tables struct {
	n int
	// ports[cur*n+dst] is the single output port of a deterministic
	// function; nil for adaptive functions.
	ports []uint8
	// cands[cur*n+dst] is the packed candidate word of an adaptive
	// function: bits 0-2 hold the first port, bits 3-5 the second,
	// bits 6-7 the candidate count. The word stores explicit ports in
	// emission order (X direction first) rather than a plain port
	// bitmask: ascending-bit iteration over a bitmask would visit
	// North (port 0) before East (port 1) and silently reorder the
	// allocator's tie-breaks. nil for deterministic functions.
	cands []uint8
	// escape[cur*n+dst] is the never-wrapping escape-network port
	// (EscapePort); nil when it would duplicate ports exactly (XY on
	// a mesh), in which case lookups fall through to ports.
	escape []uint8
}

// NewTables builds the memoization tables with plain allocations.
func NewTables(f Function, m topology.Mesh) *Tables { return NewTablesIn(nil, f, m) }

// NewTablesIn is NewTables drawing the tables from the arena's byte
// pool (nil-arena safe), so they sit beside the rest of the network's
// hot state. The arena must be sized with TableBytes. The tables have
// a closed form for the two built-in functions only; any other
// function panics.
func NewTablesIn(a *soa.Arena, f Function, m topology.Mesh) *Tables {
	n := m.Nodes()
	t := &Tables{n: n}
	switch f.(type) {
	case XY:
		t.ports = a.TakeBytes(n * n)
	case MinimalAdaptive:
		t.cands = a.TakeBytes(n * n)
	default:
		panic(fmt.Sprintf("routing: no route-table form for %s", f))
	}
	if !sharesEscapeTable(f, m) {
		t.escape = a.TakeBytes(n * n)
	}
	t.fill(m)
	return t
}

// fill fills the tables of the two built-in functions from per-axis
// direction rows. Both are dimension-separable: the port toward dst
// depends only on the X pair (cx, dx) and the Y pair (cy, dy).
// xDir/yDir therefore run W² + H² times per axis rule (the function's
// own, plus the never-wrapping escape rule), and each table row — one
// current node, one destination row dy — is the current column's X
// row with the destination column patched: no per-pair coordinate
// division or interface dispatch. TestTablesEquivalence pins the
// bytes to the live functions exhaustively.
func (t *Tables) fill(m topology.Mesh) {
	w, h := m.Width, m.Height
	fx, fy := axisRows(m)
	mesh := m
	mesh.Torus = false
	ex, ey := axisRows(mesh)
	for cur := 0; cur < t.n; cur++ {
		cx, cy := cur%w, cur/w
		for dy := 0; dy < h; dy++ {
			lo := cur*t.n + dy*w
			if t.ports != nil {
				portRow(t.ports[lo:lo+w], fx[cx*w:], fy[cy*h+dy], cx, cy == dy)
			} else {
				candRow(t.cands[lo:lo+w], fx[cx*w:], fy[cy*h+dy], cx, cy == dy)
			}
			if t.escape != nil {
				portRow(t.escape[lo:lo+w], ex[cx*w:], ey[cy*h+dy], cx, cy == dy)
			}
		}
	}
}

// axisRows returns the X and Y direction rows of mesh m's axis rule:
// x[cx*W+dx] = xDir(m, cx, dx) and y[cy*H+dy] = yDir(m, cy, dy).
// Diagonal entries (no offset along the axis) are never read.
func axisRows(m topology.Mesh) (x, y []uint8) {
	w, h := m.Width, m.Height
	x = make([]uint8, w*w)
	for c := 0; c < w; c++ {
		for d := 0; d < w; d++ {
			x[c*w+d] = packPort(xDir(m, c, d))
		}
	}
	y = make([]uint8, h*h)
	for c := 0; c < h; c++ {
		for d := 0; d < h; d++ {
			y[c*h+d] = packPort(yDir(m, c, d))
		}
	}
	return x, y
}

// portRow fills one dimension-ordered table row: the X port toward
// every destination column but the current one, where the Y port y
// (or Local, on the current row) takes over.
func portRow(dst, x []uint8, y uint8, cx int, sameRow bool) {
	copy(dst, x[:len(dst)])
	if sameRow {
		y = topology.Local
	}
	dst[cx] = y
}

// candRow fills one minimal-adaptive table row of packed candidate
// words: X direction first, then Y when the destination row differs;
// the Y port alone (or Local, on the current row) in the current
// column.
func candRow(dst, x []uint8, y uint8, cx int, sameRow bool) {
	if sameRow {
		for i := range dst {
			dst[i] = 1<<6 | x[i]
		}
		dst[cx] = 1<<6 | topology.Local
		return
	}
	for i := range dst {
		dst[i] = 2<<6 | y<<3 | x[i]
	}
	dst[cx] = 1<<6 | y
}

// sharesEscapeTable reports whether the function's own table already
// is the escape network, making a separate escape table redundant: XY
// on a mesh is exactly EscapePort (dimension order, no wraparound).
func sharesEscapeTable(f Function, m topology.Mesh) bool {
	_, isXY := f.(XY)
	return isXY && !m.Torus
}

// packPort narrows a port index into a table byte (3-bit fields in
// the packed candidate word).
func packPort(p int) uint8 {
	if p < 0 || p > 7 {
		//vichar:invariant only reachable from table construction; a 5-port router's port ids always fit 3 bits
		panic(fmt.Sprintf("routing: port %d does not fit a packed table entry", p))
	}
	return uint8(p)
}

// AppendCandidates appends the memoized candidates for (cur, dst) to
// out: identical contents and order to the underlying function's
// AppendCandidates (pinned exhaustively by TestTablesEquivalence).
func (t *Tables) AppendCandidates(out []int, cur, dst int) []int {
	if t.ports != nil {
		//vichar:alloc grows the caller's scratch to capacity 1 on the first routing computation, then reuses it
		return append(out, int(t.ports[cur*t.n+dst]))
	}
	w := t.cands[cur*t.n+dst]
	//vichar:alloc grows the caller's scratch to capacity ≤ 2 on early routing computations, then reuses it
	out = append(out, int(w&7))
	if w>>6 > 1 {
		//vichar:alloc grows the caller's scratch to capacity ≤ 2 on early routing computations, then reuses it
		out = append(out, int(w>>3&7))
	}
	return out
}

// CandidateMask returns the candidates for (cur, dst) as a bitmask
// over output ports, for order-insensitive membership tests.
func (t *Tables) CandidateMask(cur, dst int) uint8 {
	if t.ports != nil {
		return 1 << (t.ports[cur*t.n+dst] & 7)
	}
	w := t.cands[cur*t.n+dst]
	m := uint8(1) << (w & 7)
	if w>>6 > 1 {
		m |= 1 << (w >> 3 & 7)
	}
	return m
}

// EscapePort returns the memoized escape-network port for (cur, dst).
func (t *Tables) EscapePort(cur, dst int) int {
	if t.escape != nil {
		return int(t.escape[cur*t.n+dst])
	}
	return int(t.ports[cur*t.n+dst])
}

// Bytes returns the tables' total memory footprint in bytes.
func (t *Tables) Bytes() int { return len(t.ports) + len(t.cands) + len(t.escape) }

// TableBytes is the closed-form byte count NewTablesIn takes from the
// arena for the function on the mesh; router.NewArena sizes the byte
// pool with it (TestArenaSizingExact pins the formula).
func TableBytes(f Function, m topology.Mesh) int {
	n := m.Nodes()
	if sharesEscapeTable(f, m) {
		return n * n
	}
	return 2 * n * n
}
