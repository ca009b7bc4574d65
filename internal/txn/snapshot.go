package txn

import (
	"fmt"

	"vichar/internal/rng"
	"vichar/internal/snap"
)

// SaveState serializes the engine into the checkpoint writer: global
// transaction counts and latency samples, each requester's rng
// position, window and pending table (IDs ascending), and each
// responder's admission and service-queue state. Node roles are
// derived from the configuration at restore, so only per-role payloads
// are written.
func (e *Engine) SaveState(w *snap.Writer) {
	w.Section("txn")
	w.I64(e.issued)
	w.I64(e.retired)
	w.I64s(e.samples)
	for _, id := range e.requesters {
		q := &e.reqs[id]
		w.I64(q.stream.Seed())
		w.U64(q.stream.Draws())
		w.Int(q.flight)
		w.Int(q.issued)
		w.Int(len(q.pending))
		for _, req := range e.pendingIDs(id) {
			w.U64(req)
			w.I64(q.pending[req])
		}
	}
	for _, id := range e.targets {
		r := e.resps[id]
		w.Int(r.reserved)
		w.Int(r.egress)
		w.Int(len(r.queue))
		for _, s := range r.queue {
			w.I64(s.readyAt)
			w.U8(s.kind)
			w.U64(s.req)
			w.Int(s.dst)
		}
	}
}

// LoadState restores the engine from the checkpoint reader. The
// engine must have been built with New over the same configuration
// that produced the snapshot.
func (e *Engine) LoadState(r *snap.Reader) error {
	if err := r.Section("txn"); err != nil {
		return err
	}
	e.issued = r.I64()
	e.retired = r.I64()
	e.samples = r.I64sAppend(e.samples[:0])
	for _, id := range e.requesters {
		q := &e.reqs[id]
		seed := r.I64()
		draws := r.U64()
		q.flight = r.Int()
		q.issued = r.Int()
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if n < 0 || n > q.flight {
			return fmt.Errorf("txn: node %d: %d pending entries for %d in flight", id, n, q.flight)
		}
		q.stream = rng.Reposition(q.stream, seed, draws)
		q.pending = make(map[uint64]int64, n)
		for i := 0; i < n; i++ {
			req := r.U64()
			q.pending[req] = r.I64()
		}
	}
	for _, id := range e.targets {
		resp := e.resps[id]
		resp.reserved = r.Int()
		resp.egress = r.Int()
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if n < 0 || n > resp.depth {
			return fmt.Errorf("txn: node %d: %d queued services beyond depth %d", id, n, resp.depth)
		}
		resp.queue = resp.queue[:0]
		for i := 0; i < n; i++ {
			resp.queue = append(resp.queue, service{
				readyAt: r.I64(),
				kind:    r.U8(),
				req:     r.U64(),
				dst:     r.Int(),
			})
		}
	}
	return r.Err()
}
