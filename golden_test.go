package vichar_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vichar"
)

// update rewrites the golden fixtures instead of comparing:
//
//	go test . -run TestGoldenResults -update
//
// Review the diff before committing — a changed fixture means the
// simulator's observable behavior changed.
var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/golden")

// goldenConfig is the fixture platform: a 4x4 mesh under the quick
// protocol, small enough that all five runs finish in seconds but
// busy enough that every pipeline stage, allocator and link sees
// traffic. Workers is left serial; TestWorkersBitIdentical separately
// guarantees any worker count produces these exact results.
func goldenConfig(arch vichar.BufferArch) vichar.Config {
	cfg := vichar.DefaultConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Arch = arch
	cfg.InjectionRate = 0.25
	cfg.WarmupPackets = 30
	cfg.MeasurePackets = 200
	cfg.Seed = 1719
	return cfg
}

// TestGoldenResults is the regression wall: complete Results of one
// deterministic run per buffer architecture (plus one faulted run),
// compared byte-for-byte against committed fixtures. Any behavioral
// change — an arbitration tweak, a counter added, a float reordered —
// shows up as a fixture diff that must be reviewed and regenerated
// deliberately with -update. Each case runs a second time with the
// metrics registry and flit tracer on, against the same fixture:
// observability must never perturb the simulation.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name string
		cfg  vichar.Config
	}{
		{"generic", goldenConfig(vichar.Generic)},
		{"vichar", goldenConfig(vichar.ViChaR)},
		{"damq", goldenConfig(vichar.DAMQ)},
		{"fccb", goldenConfig(vichar.FCCB)},
	}
	faulty := goldenConfig(vichar.ViChaR)
	faulty.Audit = true
	faulty.Faults = vichar.Faults{
		Seed:        5,
		DropRate:    0.002,
		CorruptRate: 0.001,
		StallRate:   0.0005,
	}
	cases = append(cases, struct {
		name string
		cfg  vichar.Config
	}{"vichar-faults", faulty})

	// One transaction-layer run per architecture: the NIU request/
	// response protocol, class-separated VC partition and memory-edge
	// responders all feed the fixture, including the Results.Txn
	// latency block.
	for _, arch := range []struct {
		name string
		arch vichar.BufferArch
	}{
		{"txn-generic", vichar.Generic},
		{"txn-vichar", vichar.ViChaR},
		{"txn-damq", vichar.DAMQ},
		{"txn-fccb", vichar.FCCB},
	} {
		cfg := goldenConfig(arch.arch)
		cfg.InjectionRate = 0
		cfg.Txn = vichar.Txn{
			Enabled:    true,
			Rate:       0.04,
			ReadFrac:   0.7,
			WriteFrac:  0.25,
			AtomicFrac: 0.05,
			PostedFrac: 0.5,
			MemEdge:    true,
		}
		cases = append(cases, struct {
			name string
			cfg  vichar.Config
		}{arch.name, cfg})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := goldenJSON(t, c.cfg)
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test . -run TestGoldenResults -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("results diverged from %s\ngot:\n%s\nwant:\n%s\n(if the change is intended, regenerate with: go test . -run TestGoldenResults -update)",
					path, got, want)
			}
			obs := c.cfg
			obs.Metrics = true
			obs.TraceEvents = 1 << 12
			if got := goldenJSON(t, obs); !bytes.Equal(got, want) {
				t.Fatalf("results with metrics and tracing on diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// goldenJSON runs cfg and renders its Results in fixture form.
func goldenJSON(t *testing.T, cfg vichar.Config) []byte {
	t.Helper()
	res, err := vichar.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(got, '\n')
}
