package rng

import (
	"math/rand"
	"testing"
)

// TestSequenceMatchesMathRand pins the shim's contract with the golden
// fixture wall: a Stream must produce exactly the sequence of
// rand.New(rand.NewSource(seed)) across the method mix the traffic
// generator uses.
func TestSequenceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 42, -7, 1_000_003} {
		s := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			switch i % 3 {
			case 0:
				if got, want := s.Float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, got, want)
				}
			case 1:
				if got, want := s.Intn(97), ref.Intn(97); got != want {
					t.Fatalf("seed %d draw %d: Intn %v != %v", seed, i, got, want)
				}
			case 2:
				if got, want := s.Int63n(1_000_003), ref.Int63n(1_000_003); got != want {
					t.Fatalf("seed %d draw %d: Int63n %v != %v", seed, i, got, want)
				}
			}
		}
	}
}

// TestRestoreFastForward checks the checkpoint contract: capturing
// (Seed, Draws) at any point and restoring yields a stream whose
// future output is identical to the original's.
func TestRestoreFastForward(t *testing.T) {
	s := New(99)
	// Consume a mixed prefix; Int63n's rejection sampling makes the
	// draw count a source-level, not call-level, quantity.
	for i := 0; i < 1234; i++ {
		s.Float64()
		s.Int63n(3)
		s.Intn(1 << 30)
	}
	seed, draws := s.Seed(), s.Draws()
	r := Restore(seed, draws)
	if r.Draws() != draws {
		t.Fatalf("restored draw count %d, want %d", r.Draws(), draws)
	}
	for i := 0; i < 5000; i++ {
		if got, want := r.Float64(), s.Float64(); got != want {
			t.Fatalf("draw %d after restore: %v != %v", i, got, want)
		}
		if got, want := r.Int63n(41), s.Int63n(41); got != want {
			t.Fatalf("draw %d after restore: Int63n %v != %v", i, got, want)
		}
	}
	if r.Draws() != s.Draws() {
		t.Fatalf("draw counters diverged: %d != %d", r.Draws(), s.Draws())
	}
}

// TestDrawsCountsSourceSteps verifies the counter advances at least
// once per API call and restores to zero on a fresh stream.
func TestDrawsCountsSourceSteps(t *testing.T) {
	s := New(5)
	if s.Draws() != 0 {
		t.Fatalf("fresh stream has %d draws", s.Draws())
	}
	s.Float64()
	if s.Draws() != 1 {
		t.Fatalf("Float64 consumed %d source steps, want 1", s.Draws())
	}
	before := s.Draws()
	s.Intn(10)
	if s.Draws() <= before {
		t.Fatal("Intn did not advance the draw counter")
	}
}

// TestAdvanceMatchesRestore pins the in-place restore path: advancing
// a fresh stream to the draw count of a mixed Float64/Intn/Int63n
// prefix must land on exactly the state Restore reaches, and on the
// original stream's.
func TestAdvanceMatchesRestore(t *testing.T) {
	s := New(2024)
	for i := 0; i < 777; i++ {
		s.Float64()
		s.Intn(1 << 30)
		s.Int63n(1_000_003)
	}
	a := New(2024)
	a.Advance(s.Draws())
	r := Restore(2024, s.Draws())
	if a.Draws() != s.Draws() || r.Draws() != s.Draws() {
		t.Fatalf("draw counts: advanced %d, restored %d, original %d", a.Draws(), r.Draws(), s.Draws())
	}
	for i := 0; i < 3000; i++ {
		want := s.Int63n(1 << 40)
		if got := a.Int63n(1 << 40); got != want {
			t.Fatalf("draw %d: advanced stream %d, original %d", i, got, want)
		}
		if got := r.Int63n(1 << 40); got != want {
			t.Fatalf("draw %d: restored stream %d, original %d", i, got, want)
		}
	}
}

// TestRepositionPaths checks both branches of Reposition: a stream of
// the right seed short of the target is advanced in place (same
// object); one past the target, or of another seed, is replaced by a
// fresh Restore. Every path lands on the target position.
func TestRepositionPaths(t *testing.T) {
	check := func(name string, s *Stream) {
		t.Helper()
		c := Restore(7, 500)
		if s.Seed() != 7 || s.Draws() != 500 {
			t.Fatalf("%s: position (%d, %d), want (7, 500)", name, s.Seed(), s.Draws())
		}
		for i := 0; i < 100; i++ {
			if got, want := s.Float64(), c.Float64(); got != want {
				t.Fatalf("%s: draw %d is %v, want %v", name, i, got, want)
			}
		}
	}
	behind := New(7)
	behind.Float64()
	got := Reposition(behind, 7, 500)
	if got != behind {
		t.Fatal("a stream behind the target was replaced instead of advanced in place")
	}
	check("in place", got)
	for _, c := range []struct {
		name string
		s    *Stream
	}{{"past target", Restore(7, 600)}, {"other seed", New(8)}} {
		got := Reposition(c.s, 7, 500)
		if got == c.s {
			t.Fatalf("%s: stream reused", c.name)
		}
		check(c.name, got)
	}
	check("nil", Reposition(nil, 7, 500))
}
