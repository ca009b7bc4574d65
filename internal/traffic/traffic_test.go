package traffic

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"vichar/internal/rng"
	"vichar/internal/snap"

	"vichar/internal/config"
	"vichar/internal/topology"
)

func cfgWith(proc config.TrafficProcess, dest config.DestPattern, rate float64, seed int64) *config.Config {
	cfg := config.Default()
	cfg.Traffic = proc
	cfg.Dest = dest
	cfg.InjectionRate = rate
	cfg.Seed = seed
	return &cfg
}

// countPackets runs the generator for cycles and returns total packet
// creations and per-node counts.
func countPackets(g *Generator, mesh topology.Mesh, cycles int64) (total int64, perNode []int64) {
	perNode = make([]int64, mesh.Nodes())
	for now := int64(1); now <= cycles; now++ {
		g.Tick(now, func(src, dst, size int) {
			total++
			perNode[src]++
		})
	}
	return total, perNode
}

func TestUniformRandomRateAccuracy(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.NormalRandom, 0.30, 1)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	const cycles = 20_000
	total, _ := countPackets(g, mesh, cycles)
	gotRate := float64(total) * float64(cfg.PacketSize) / (cycles * float64(mesh.Nodes()))
	if math.Abs(gotRate-0.30) > 0.01 {
		t.Fatalf("offered load %.4f, want 0.30 ± 0.01", gotRate)
	}
}

func TestSelfSimilarRateAccuracy(t *testing.T) {
	cfg := cfgWith(config.SelfSimilar, config.NormalRandom, 0.25, 2)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	const cycles = 60_000
	total, _ := countPackets(g, mesh, cycles)
	gotRate := float64(total) * float64(cfg.PacketSize) / (cycles * float64(mesh.Nodes()))
	// Heavy-tailed sources converge slowly; allow a loose band.
	if math.Abs(gotRate-0.25) > 0.05 {
		t.Fatalf("self-similar offered load %.4f, want 0.25 ± 0.05", gotRate)
	}
}

// Self-similar traffic must be burstier than Bernoulli at equal mean
// rate: the variance of per-window packet counts should be clearly
// larger.
func TestSelfSimilarBurstiness(t *testing.T) {
	const rate, cycles, window = 0.25, 40_000, 100
	variance := func(proc config.TrafficProcess) float64 {
		cfg := cfgWith(proc, config.NormalRandom, rate, 3)
		cfg.Width, cfg.Height = 2, 2 // few sources: bursts stay visible
		mesh := topology.New(cfg.Width, cfg.Height)
		g := New(cfg, mesh)
		var counts []float64
		cur := 0.0
		for now := int64(1); now <= cycles; now++ {
			g.Tick(now, func(src, dst, size int) { cur++ })
			if now%window == 0 {
				counts = append(counts, cur)
				cur = 0
			}
		}
		mean := 0.0
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		v := 0.0
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		return v / float64(len(counts))
	}
	vUR := variance(config.UniformRandom)
	vSS := variance(config.SelfSimilar)
	if vSS < 2*vUR {
		t.Fatalf("self-similar variance %.2f not clearly above Bernoulli %.2f", vSS, vUR)
	}
}

func TestDeterminism(t *testing.T) {
	for _, proc := range []config.TrafficProcess{config.UniformRandom, config.SelfSimilar} {
		cfg := cfgWith(proc, config.NormalRandom, 0.2, 77)
		mesh := topology.New(cfg.Width, cfg.Height)
		record := func() [][2]int {
			g := New(cfg, mesh)
			var events [][2]int
			for now := int64(1); now <= 3000; now++ {
				g.Tick(now, func(src, dst, size int) { events = append(events, [2]int{src, dst}) })
			}
			return events
		}
		a, b := record(), record()
		if len(a) != len(b) {
			t.Fatalf("%v: runs produced %d vs %d events", proc, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: event %d diverged: %v vs %v", proc, i, a[i], b[i])
			}
		}
	}
}

// TestSeedReproducibilityAllPatterns extends TestDeterminism across
// every destination pattern and the variable-size packet protocol:
// the full (src, dst, size) event stream must replay bit-for-bit from
// Config.Seed alone. All generator randomness flows from per-node
// streams seeded off Config.Seed — the static ambient-entropy lint
// rule keeps it that way; this test catches everything else (e.g. an
// iteration-order dependence in the source scan).
func TestSeedReproducibilityAllPatterns(t *testing.T) {
	patterns := []config.DestPattern{
		config.NormalRandom, config.Tornado, config.Transpose,
		config.BitComplement, config.Hotspot,
	}
	for _, dest := range patterns {
		for _, proc := range []config.TrafficProcess{config.UniformRandom, config.SelfSimilar} {
			cfg := cfgWith(proc, dest, 0.2, 99)
			cfg.PacketSizeMax = cfg.PacketSize + 3
			mesh := topology.New(cfg.Width, cfg.Height)
			record := func() [][3]int {
				g := New(cfg, mesh)
				var events [][3]int
				for now := int64(1); now <= 2000; now++ {
					g.Tick(now, func(src, dst, size int) { events = append(events, [3]int{src, dst, size}) })
				}
				return events
			}
			a, b := record(), record()
			if len(a) != len(b) {
				t.Fatalf("%v/%v: runs produced %d vs %d events", proc, dest, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v/%v: event %d diverged: %v vs %v", proc, dest, i, a[i], b[i])
				}
			}
		}
	}
}

func TestSeedsDecorrelate(t *testing.T) {
	cfg1 := cfgWith(config.UniformRandom, config.NormalRandom, 0.2, 1)
	cfg2 := cfgWith(config.UniformRandom, config.NormalRandom, 0.2, 2)
	mesh := topology.New(cfg1.Width, cfg1.Height)
	count := func(cfg *config.Config) int64 {
		g := New(cfg, mesh)
		var events int64
		var first int64 = -1
		for now := int64(1); now <= 500; now++ {
			g.Tick(now, func(src, dst, size int) {
				events++
				if first < 0 {
					first = now*1000 + int64(src)
				}
			})
		}
		return first
	}
	if count(cfg1) == count(cfg2) {
		t.Fatal("different seeds produced identical first event")
	}
}

func TestNormalRandomNeverSelf(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.NormalRandom, 0.5, 5)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	for now := int64(1); now <= 2000; now++ {
		g.Tick(now, func(src, dst, size int) {
			if src == dst {
				t.Fatalf("self-addressed packet at node %d", src)
			}
			if dst < 0 || dst >= mesh.Nodes() {
				t.Fatalf("destination %d out of range", dst)
			}
		})
	}
}

func TestNormalRandomCoversAllDestinations(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.NormalRandom, 0.5, 6)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	seen := map[int]bool{}
	for i := 0; i < 20_000; i++ {
		seen[g.Destination(0)] = true
	}
	if len(seen) != mesh.Nodes()-1 {
		t.Fatalf("node 0 reached %d destinations of %d", len(seen), mesh.Nodes()-1)
	}
}

func TestTornadoPattern(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Tornado, 0.2, 7)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	// Tornado on a width-8 mesh: dst x = (x + 3) mod 8, same y.
	for src := 0; src < mesh.Nodes(); src++ {
		dst := g.Destination(src)
		sx, sy := mesh.XY(src)
		dx, dy := mesh.XY(dst)
		if dy != sy || dx != (sx+3)%8 {
			t.Fatalf("tornado %d(%d,%d) -> %d(%d,%d)", src, sx, sy, dst, dx, dy)
		}
	}
}

func TestTornadoTinyMesh(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Tornado, 0.2, 8)
	cfg.Width, cfg.Height = 2, 2
	mesh := topology.New(2, 2)
	g := New(cfg, mesh)
	for src := 0; src < 4; src++ {
		if dst := g.Destination(src); dst == src {
			t.Fatalf("tornado self-addressed on 2x2 at node %d", src)
		}
	}
}

func TestZeroRateGeneratesNothing(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.NormalRandom, 0, 9)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	total, _ := countPackets(g, mesh, 2000)
	if total != 0 {
		t.Fatalf("zero rate produced %d packets", total)
	}
}

func TestSelfSimilarAtPeakPanics(t *testing.T) {
	cfg := cfgWith(config.SelfSimilar, config.NormalRandom, 1.0, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("self-similar at the ON-peak did not panic")
		}
	}()
	New(cfg, topology.New(cfg.Width, cfg.Height))
}

func TestParetoProperties(t *testing.T) {
	rng := newTestRand(11)
	const mean = 40.0
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		d := pareto(rng, 1.9, mean)
		if d < 1 {
			t.Fatal("pareto draw below 1")
		}
		sum += float64(d)
	}
	got := sum / n
	// alpha=1.9 has finite mean but huge variance; accept a wide band.
	if got < mean*0.7 || got > mean*1.6 {
		t.Fatalf("pareto mean %.1f, want ≈%.1f", got, mean)
	}
}

// newTestRand builds the same RNG type the generator uses.
func newTestRand(seed int64) *rng.Stream { return rng.New(seed) }

func TestTransposePattern(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Transpose, 0.2, 12)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	for src := 0; src < mesh.Nodes(); src++ {
		dst := g.Destination(src)
		sx, sy := mesh.XY(src)
		dx, dy := mesh.XY(dst)
		if sx == sy {
			// Diagonal nodes transpose onto themselves; the generator
			// must redraw so the node still offers load.
			if dst == src {
				t.Fatalf("transpose diagonal (%d,%d) -> itself", sx, sy)
			}
			continue
		}
		if dx != sy || dy != sx {
			t.Fatalf("transpose (%d,%d) -> (%d,%d)", sx, sy, dx, dy)
		}
	}
}

func TestBitComplementPattern(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.BitComplement, 0.2, 13)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	for src := 0; src < mesh.Nodes(); src++ {
		if dst := g.Destination(src); dst != mesh.Nodes()-1-src {
			t.Fatalf("bit complement %d -> %d", src, dst)
		}
	}
}

func TestHotspotPattern(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Hotspot, 0.2, 14)
	cfg.HotspotFraction = 0.5
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	hits := 0
	const draws = 10_000
	for i := 0; i < draws; i++ {
		if g.Destination(0) == g.HotNode() {
			hits++
		}
	}
	// 50% directed plus the uniform component's occasional hot pick.
	frac := float64(hits) / draws
	if frac < 0.45 || frac > 0.60 {
		t.Fatalf("hotspot fraction %.3f, want ≈0.5", frac)
	}
	// The hot node itself never self-addresses.
	for i := 0; i < 1000; i++ {
		if g.Destination(g.HotNode()) == g.HotNode() {
			t.Fatal("hot node self-addressed")
		}
	}
}

func TestHotspotDefaultFraction(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Hotspot, 0.2, 15)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	hits := 0
	const draws = 20_000
	for i := 0; i < draws; i++ {
		if g.Destination(0) == g.HotNode() {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.08 || frac > 0.16 {
		t.Fatalf("default hotspot fraction %.3f, want ≈0.1", frac)
	}
}

func TestVariablePacketSizes(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.NormalRandom, 0.2, 16)
	cfg.PacketSize, cfg.PacketSizeMax = 2, 6
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	seen := map[int]int{}
	for i := 0; i < 20_000; i++ {
		s := g.PacketSize(3)
		if s < 2 || s > 6 {
			t.Fatalf("size %d outside [2,6]", s)
		}
		seen[s]++
	}
	for s := 2; s <= 6; s++ {
		if seen[s] == 0 {
			t.Fatalf("size %d never drawn", s)
		}
	}
}

// The offered flit rate must stay calibrated when packet sizes vary.
func TestVariableSizeRateAccuracy(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.NormalRandom, 0.30, 17)
	cfg.PacketSize, cfg.PacketSizeMax = 2, 6 // mean 4
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	var flits int64
	const cycles = 20_000
	for now := int64(1); now <= cycles; now++ {
		g.Tick(now, func(src, dst, size int) { flits += int64(size) })
	}
	got := float64(flits) / (cycles * float64(mesh.Nodes()))
	if math.Abs(got-0.30) > 0.015 {
		t.Fatalf("variable-size offered load %.4f, want 0.30", got)
	}
}

// Every destination pattern must deliver the configured offered load
// at every node. Fixed permutations self-map some sources (Transpose
// on the mesh diagonal, Bit-Complement on an odd mesh's center);
// before the redraw fallback those nodes silently never injected.
func TestOfferedLoadDeliveredAllPatterns(t *testing.T) {
	patterns := []struct {
		name string
		dest config.DestPattern
	}{
		{"normal-random", config.NormalRandom},
		{"tornado", config.Tornado},
		{"transpose", config.Transpose},
		{"bit-complement", config.BitComplement},
		{"hotspot", config.Hotspot},
	}
	meshes := []struct {
		name          string
		width, height int
	}{
		{"4x4", 4, 4},
		{"3x3", 3, 3}, // odd: Bit-Complement self-maps the center node
	}
	const (
		rate   = 0.20
		cycles = 20_000
	)
	for _, m := range meshes {
		for _, pat := range patterns {
			t.Run(m.name+"/"+pat.name, func(t *testing.T) {
				cfg := cfgWith(config.UniformRandom, pat.dest, rate, 99)
				cfg.Width, cfg.Height = m.width, m.height
				mesh := topology.New(cfg.Width, cfg.Height)
				g := New(cfg, mesh)
				perNode := make([]int64, mesh.Nodes())
				for now := int64(1); now <= cycles; now++ {
					g.Tick(now, func(src, dst, size int) {
						if src == dst {
							t.Fatalf("self-addressed packet at node %d", src)
						}
						perNode[src]++
					})
				}
				for node, pkts := range perNode {
					got := float64(pkts) * float64(cfg.PacketSize) / cycles
					if math.Abs(got-rate) > 0.03 {
						t.Fatalf("node %d offered load %.4f, want %.2f ± 0.03", node, got, rate)
					}
				}
			})
		}
	}
}

// TestTransposeIsPermutation pins the satellite fix for transpose on
// rectangles: on the (square) meshes Validate admits, the
// deterministic part of the pattern must be a bijection — no
// off-diagonal node may be targeted by two sources or by none.
func TestTransposeIsPermutation(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Transpose, 0.2, 20)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	hits := make([]int, mesh.Nodes())
	for src := 0; src < mesh.Nodes(); src++ {
		x, y := mesh.XY(src)
		if x == y {
			continue // diagonal falls back to a uniform redraw
		}
		hits[g.Destination(src)]++
	}
	for node, n := range hits {
		x, y := mesh.XY(node)
		want := 1
		if x == y {
			want = 0
		}
		if n != want {
			t.Fatalf("node %d (%d,%d) targeted %d times, want %d", node, x, y, n, want)
		}
	}
}

// TestTransposeDeliveredLoadHistogram checks delivered load, not just
// the mapping: every off-diagonal node must receive approximately the
// per-node offered load — the rectangular-mesh bug concentrated
// double load on some nodes and none on others.
func TestTransposeDeliveredLoadHistogram(t *testing.T) {
	const rate, cycles = 0.30, 20_000
	cfg := cfgWith(config.UniformRandom, config.Transpose, rate, 21)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	recv := make([]int64, mesh.Nodes())
	for now := int64(1); now <= cycles; now++ {
		g.Tick(now, func(src, dst, size int) { recv[dst]++ })
	}
	for node, c := range recv {
		x, y := mesh.XY(node)
		if x == y {
			continue // diagonal receives only diagonal fallbacks
		}
		got := float64(c) * float64(cfg.PacketSize) / cycles
		if got < 0.6*rate || got > 1.5*rate {
			t.Fatalf("node %d (%d,%d) delivered load %.4f, want ≈%.2f", node, x, y, got, rate)
		}
	}
}

// TestTransposeRejectsRectangle mirrors Config.Validate's check at
// the generator constructor for callers that bypass validation.
func TestTransposeRejectsRectangle(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Transpose, 0.2, 22)
	cfg.Width, cfg.Height = 8, 4
	defer func() {
		if recover() == nil {
			t.Fatal("transpose on an 8x4 mesh did not panic")
		}
	}()
	New(cfg, topology.New(8, 4))
}

// TestSelfSimilarWarmStartUnbiased pins the satellite fix for the
// warm-start bias: at a low configured rate the initial OFF phase
// must come from the rate's own Pareto OFF distribution (mean ≈1960
// cycles at rate 0.02), so the first few hundred cycles cannot begin
// with every source bursting at the ON peak, as the old fixed
// Int63n(meanOn) phase guaranteed.
func TestSelfSimilarWarmStartUnbiased(t *testing.T) {
	const rate, window = 0.02, 500
	cfg := cfgWith(config.SelfSimilar, config.NormalRandom, rate, 23)
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	var total int64
	for now := int64(1); now <= window; now++ {
		g.Tick(now, func(src, dst, size int) { total++ })
	}
	early := float64(total) * float64(cfg.PacketSize) / (window * float64(mesh.Nodes()))
	// The biased warm start measured ≈0.1+ here (every source ON
	// within its first 40 cycles); the unbiased one stays near the
	// configured rate.
	if early > 5*rate {
		t.Fatalf("early-window offered load %.4f is %.1fx the configured %.2f — warm-start bias", early, early/rate, rate)
	}
}

// TestHotspotFractionHonored checks the zero-value fix: the generator
// uses the configured fraction exactly, so a (validation-bypassing)
// zero yields no directed hotspot traffic at all rather than a
// silent 0.1.
func TestHotspotFractionHonored(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.Hotspot, 0.2, 24)
	cfg.HotspotFraction = 0
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	hits := 0
	const draws = 20_000
	for i := 0; i < draws; i++ {
		if g.Destination(0) == g.HotNode() {
			hits++
		}
	}
	// Only the uniform component may land on the hot node: 1/63.
	if frac := float64(hits) / draws; frac > 0.03 {
		t.Fatalf("hot fraction %.3f with HotspotFraction=0, want only the uniform component", frac)
	}
}

// TestGeneratorStateRoundTrip drives a generator, checkpoints it,
// restores into a freshly constructed one, and requires the two event
// streams to stay identical — the traffic half of the simulator's
// bit-identical resume contract.
func TestGeneratorStateRoundTrip(t *testing.T) {
	for _, proc := range []config.TrafficProcess{config.UniformRandom, config.SelfSimilar} {
		cfg := cfgWith(proc, config.Hotspot, 0.22, 25)
		cfg.PacketSizeMax = cfg.PacketSize + 3
		mesh := topology.New(cfg.Width, cfg.Height)
		g := New(cfg, mesh)
		for now := int64(1); now <= 5_000; now++ {
			g.Tick(now, func(src, dst, size int) {})
		}
		w := snap.NewWriter()
		g.SaveState(w)
		data := w.Finish()

		r, err := snap.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		g2 := New(cfg, mesh)
		if err := g2.LoadState(r); err != nil {
			t.Fatal(err)
		}
		for now := int64(5_001); now <= 10_000; now++ {
			var a, b [][3]int
			g.Tick(now, func(src, dst, size int) { a = append(a, [3]int{src, dst, size}) })
			g2.Tick(now, func(src, dst, size int) { b = append(b, [3]int{src, dst, size}) })
			if len(a) != len(b) {
				t.Fatalf("%v cycle %d: %d vs %d events", proc, now, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v cycle %d event %d: %v vs %v", proc, now, i, a[i], b[i])
				}
			}
		}
	}
}

// TestLoadStateStreamPaths pins which way LoadState repositions the
// node streams, and that both ways resume bit-identically. A freshly
// constructed open-loop Bernoulli generator is behind every saved
// position, so its streams advance in place (same objects). A
// self-similar generator rewound to an earlier checkpoint has drawn
// past the saved position of every node that left an ON/OFF period
// since, so those streams are reseeded.
func TestLoadStateStreamPaths(t *testing.T) {
	cases := []struct {
		name    string
		proc    config.TrafficProcess
		runTo   int64 // cycles the loading generator runs before LoadState
		reseeds bool  // whether some stream must take the reseed path
	}{
		{"bernoulli-fresh", config.UniformRandom, 0, false},
		{"selfsimilar-rewind", config.SelfSimilar, 6_000, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfgWith(tc.proc, config.NormalRandom, 0.3, 41)
			mesh := topology.New(cfg.Width, cfg.Height)
			g := New(cfg, mesh)
			countPackets(g, mesh, 5_000)
			w := snap.NewWriter()
			g.SaveState(w)
			r, err := snap.Open(w.Finish())
			if err != nil {
				t.Fatal(err)
			}
			g2 := New(cfg, mesh)
			countPackets(g2, mesh, tc.runTo)
			before := append([]*rng.Stream(nil), g2.rngs...)
			if err := g2.LoadState(r); err != nil {
				t.Fatal(err)
			}
			reseeded := 0
			for i := range before {
				past := before[i].Draws() > g.rngs[i].Draws()
				if reused := g2.rngs[i] == before[i]; reused == past {
					t.Fatalf("node %d: stream reused = %v with %d draws against %d saved",
						i, reused, before[i].Draws(), g.rngs[i].Draws())
				}
				if past {
					reseeded++
				}
			}
			if (reseeded > 0) != tc.reseeds {
				t.Fatalf("%d streams reseeded, want reseeds = %v", reseeded, tc.reseeds)
			}
			for now := int64(5_001); now <= 8_000; now++ {
				var a, b [][3]int
				g.Tick(now, func(src, dst, size int) { a = append(a, [3]int{src, dst, size}) })
				g2.Tick(now, func(src, dst, size int) { b = append(b, [3]int{src, dst, size}) })
				if len(a) != len(b) {
					t.Fatalf("cycle %d: %d vs %d events", now, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("cycle %d event %d: %v vs %v", now, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// bernoulliOracle is the per-cycle reference for the uniform-random
// lookahead: every cycle it draws each node's trial Float64() < p and,
// on success, the packet's Destination and PacketSize, in that order.
// It draws through a Generator that is never ticked, so that
// generator's SaveState writes the raw per-cycle draw counts.
type bernoulliOracle struct {
	g *Generator
	p float64
}

func newBernoulliOracle(cfg *config.Config, mesh topology.Mesh) *bernoulliOracle {
	g := New(cfg, mesh)
	return &bernoulliOracle{g: g, p: g.pktProb}
}

func (o *bernoulliOracle) tick(emit func(src, dst, size int)) {
	for node, s := range o.g.rngs {
		if o.p > 0 && s.Float64() < o.p {
			emit(node, o.g.Destination(node), o.g.PacketSize(node))
		}
	}
}

// trafficEvent is one packet creation: (cycle, src, dst, size).
type trafficEvent [4]int64

func saveBytes(g *Generator) []byte {
	w := snap.NewWriter()
	g.SaveState(w)
	return w.Finish()
}

// TestLookaheadMatchesPerCycleOracle requires the lookahead generator
// to emit exactly the per-cycle oracle's packet events and to write
// the same checkpoint bytes at every 97th cycle, most of them cut in
// the middle of a pre-drawn gap.
func TestLookaheadMatchesPerCycleOracle(t *testing.T) {
	const cycles = 20_000
	for _, rate := range []float64{1e-4, 0.002, 0.35, 1.0} {
		for _, dest := range []config.DestPattern{config.NormalRandom, config.Hotspot} {
			for _, variable := range []bool{false, true} {
				cfg := cfgWith(config.UniformRandom, dest, rate, 43)
				if rate == 1.0 {
					cfg.PacketSize = 1 // p = 1 with fixed sizes
				}
				if variable {
					cfg.PacketSizeMax = cfg.PacketSize + 3
				}
				name := fmt.Sprintf("rate=%g/%v/variable=%v", rate, dest, variable)
				t.Run(name, func(t *testing.T) {
					mesh := topology.New(cfg.Width, cfg.Height)
					g, o := New(cfg, mesh), newBernoulliOracle(cfg, mesh)
					var got, want []trafficEvent
					midGap := 0
					for now := int64(1); now <= cycles; now++ {
						g.Tick(now, func(src, dst, size int) {
							got = append(got, trafficEvent{now, int64(src), int64(dst), int64(size)})
						})
						o.tick(func(src, dst, size int) {
							want = append(want, trafficEvent{now, int64(src), int64(dst), int64(size)})
						})
						if now%97 != 0 {
							continue
						}
						if a, b := saveBytes(g), saveBytes(o.g); !bytes.Equal(a, b) {
							t.Fatalf("cycle %d: checkpoint differs from the per-cycle oracle's", now)
						}
						for node := range g.next {
							if g.first[node] <= now && g.next[node] > now {
								midGap++
							}
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%d events, oracle %d", len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("event %d: %v, oracle %v", i, got[i], want[i])
						}
					}
					if len(want) == 0 {
						t.Fatal("oracle emitted nothing; the case checks no event")
					}
					if rate < 1 && midGap == 0 {
						t.Fatal("no checkpoint cut a pre-drawn gap")
					}
				})
			}
		}
	}
}

// TestLookaheadRestoreAtOtherRate loads a mid-gap checkpoint into a
// generator built at another rate, which has itself ticked and so
// holds a lookahead of its own: it must emit exactly what the
// per-cycle oracle emits when its rate switches at the checkpoint
// cycle, so no pre-drawn packet crosses a checkpoint either way.
func TestLookaheadRestoreAtOtherRate(t *testing.T) {
	const cut, end = 2_777, 8_000
	for _, rates := range [][2]float64{{0.002, 0.2}, {0.2, 0.002}} {
		t.Run(fmt.Sprintf("%g->%g", rates[0], rates[1]), func(t *testing.T) {
			cfg := cfgWith(config.UniformRandom, config.Hotspot, rates[0], 47)
			cfg.PacketSizeMax = cfg.PacketSize + 2
			mesh := topology.New(cfg.Width, cfg.Height)
			g, o := New(cfg, mesh), newBernoulliOracle(cfg, mesh)
			for now := int64(1); now <= cut; now++ {
				g.Tick(now, func(src, dst, size int) {})
				o.tick(func(src, dst, size int) {})
			}
			midGap := 0
			for node := range g.next {
				if g.first[node] <= cut && g.next[node] > cut+1 {
					midGap++
				}
			}
			if midGap == 0 {
				t.Fatal("the checkpoint cuts no pre-drawn gap")
			}
			blob := saveBytes(g)
			if !bytes.Equal(blob, saveBytes(o.g)) {
				t.Fatal("checkpoint differs from the per-cycle oracle's")
			}

			branch := *cfg
			branch.InjectionRate = rates[1]
			r, err := snap.Open(blob)
			if err != nil {
				t.Fatal(err)
			}
			g2 := New(&branch, mesh)
			countPackets(g2, mesh, 1_000)
			if err := g2.LoadState(r); err != nil {
				t.Fatal(err)
			}
			o.p = g2.pktProb
			events := 0
			for now := int64(cut + 1); now <= end; now++ {
				var a, b []trafficEvent
				g2.Tick(now, func(src, dst, size int) {
					a = append(a, trafficEvent{now, int64(src), int64(dst), int64(size)})
				})
				o.tick(func(src, dst, size int) {
					b = append(b, trafficEvent{now, int64(src), int64(dst), int64(size)})
				})
				if len(a) != len(b) {
					t.Fatalf("cycle %d: %d events, oracle %d", now, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("cycle %d event %d: %v, oracle %v", now, i, a[i], b[i])
					}
				}
				events += len(a)
			}
			if events == 0 {
				t.Fatal("the branch emitted nothing; the case checks no event")
			}
		})
	}
}

// TestLookaheadTinyRateBounded pins the scan horizon: at a rate
// Validate accepts but that almost never fires, 100 cycles of a 32x32
// generator draw at most one horizon of trials per stream (about 4M
// draws in all, tens of milliseconds) rather than billions. The bound
// is on draws, not wall time, so it holds under the race detector and
// on a loaded host.
func TestLookaheadTinyRateBounded(t *testing.T) {
	cfg := cfgWith(config.UniformRandom, config.NormalRandom, 1e-9, 53)
	cfg.Width, cfg.Height = 32, 32
	mesh := topology.New(cfg.Width, cfg.Height)
	g := New(cfg, mesh)
	total, _ := countPackets(g, mesh, 100)
	if total != 0 {
		t.Fatalf("rate 1e-9 emitted %d packets in 100 cycles", total)
	}
	for node, s := range g.rngs {
		if s.Draws() > scanHorizon {
			t.Fatalf("node %d drew %d trials ahead, horizon %d", node, s.Draws(), scanHorizon)
		}
	}
}

// BenchmarkGeneratorTick reports the traffic layer's cost per
// simulated cycle (one Tick over every node) at steady state, on the
// two uniform-random benchmark cells: a busy 8x8 mesh and a sparse
// 32x32 one.
func BenchmarkGeneratorTick(b *testing.B) {
	cells := []struct {
		name string
		side int
		rate float64
	}{
		{"8x8/rate=0.35", 8, 0.35},
		{"32x32/rate=0.002", 32, 0.002},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			cfg := cfgWith(config.UniformRandom, config.NormalRandom, c.rate, 3)
			cfg.Width, cfg.Height = c.side, c.side
			mesh := topology.New(c.side, c.side)
			g := New(cfg, mesh)
			packets := 0
			emit := func(src, dst, size int) { packets++ }
			now := int64(0)
			for ; now < 10_000; now++ {
				g.Tick(now+1, emit)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				g.Tick(now, emit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
		})
	}
}
