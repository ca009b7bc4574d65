package main

import (
	"fmt"

	"vichar"
)

// heldOutSeed is the seed kept out of tuning: a claimed gain must also
// hold on it (README.md, "Seeds").
const heldOutSeed = 7_919_017

// workload is one named benchmark input. config builds the simulator
// configuration from the seed; the remaining fields size the run's
// protocol: the cold fill to the warm cut, the packets measured per
// steady-state window, and the length of the audited pass.
type workload struct {
	name   string
	why    string
	config func(seed int64) vichar.Config
	// fillCycles is the warm cut: cycles stepped from cycle 0 before
	// the snapshot every window restores.
	fillCycles int64
	// measure is the measured-packet quota of one window.
	measure int
	// auditCycles is how far the audited pass steps from the warm cut.
	auditCycles int64
	// replicas is the number of independent trajectories a run
	// measures, each from its own seed (replicaSeed). The simulated
	// metrics are medians over the replicas, and the windows rotate
	// through them.
	replicas int
}

// replicaSeed is the traffic seed of replica i of a run with the given
// seed. Replica 0 runs the seed itself; the others run seeds hashed
// from it (SplitMix64), so runs with neighbouring seeds share no
// replica.
func replicaSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// vic16 is the paper's 5-port router with a 16-slot ViChaR buffer per
// port.
func vic16(seed int64) vichar.Config {
	cfg := vichar.DefaultConfig()
	cfg.Arch = vichar.ViChaR
	cfg.Seed = seed
	cfg.Workers = 1
	return cfg
}

// workloads returns the benchmark's workloads; tiny shrinks every
// protocol length (not the network) for the benchmark's own tests.
func workloads(tiny bool) []workload {
	ws := []workload{
		{
			name: "ur-knee-8x8",
			why:  "8x8 ViC-16 XY at the Fig 12(a) knee, 0.35 flits/node/cycle open loop: every router busy, router compute dominates",
			config: func(seed int64) vichar.Config {
				cfg := vic16(seed)
				cfg.InjectionRate = 0.35
				return cfg
			},
			fillCycles:  3_000,
			measure:     20_000,
			auditCycles: 1_000,
			// At the knee one trajectory's p99 latency is heavy-tailed
			// over seeds: a rare congestion episode moves a 20,000-packet
			// p99 from ~140 to over 400 cycles, and a 100,000-packet
			// window still varies ~10% between seeds. The median over
			// nine trajectories varies ~4%.
			replicas: 9,
		},
		{
			name: "ur-sparse-32x32",
			why:  "32x32 ViC-16 XY at 0.002 flits/node/cycle open loop: ~11% of routers active, worklist/traffic/setup/tables/checkpoint dominate",
			config: func(seed int64) vichar.Config {
				cfg := vic16(seed)
				cfg.Width, cfg.Height = 32, 32
				cfg.InjectionRate = 0.002
				return cfg
			},
			fillCycles:  2_000,
			measure:     2_500,
			auditCycles: 150,
			replicas:    1,
		},
		{
			name: "txn-edge-gen-8x8",
			why:  "8x8 GEN-16 adaptive, DRAM-edge read/write/atomic transactions at 0.04 req/node/cycle closed loop: generic VA, class VCs, txn engine",
			config: func(seed int64) vichar.Config {
				cfg := vichar.DefaultConfig()
				cfg.Arch = vichar.Generic
				cfg.Routing = vichar.MinimalAdaptive
				cfg.EscapeVCs = 2 // one per message class
				cfg.Seed = seed
				cfg.Workers = 1
				// The transaction layer is the only traffic source.
				cfg.InjectionRate = 0
				cfg.Txn = vichar.Txn{
					Enabled:    true,
					Rate:       0.04,
					ReadFrac:   0.70,
					WriteFrac:  0.25,
					AtomicFrac: 0.05,
					PostedFrac: 0.5,
					MemEdge:    true,
				}
				return cfg
			},
			fillCycles: 3_000,
			// 60,000 packets hold ~30,000 transactions: enough that the
			// transaction p99 varies by ~5% between seeds, not ~10%. It
			// still varied by 8% over some sets of ten seeds; the median
			// over three trajectories steadies it.
			measure:     60_000,
			auditCycles: 1_000,
			replicas:    3,
		},
	}
	if tiny {
		for i := range ws {
			ws[i].fillCycles = 300
			ws[i].measure = 200
			ws[i].auditCycles = 20
			ws[i].replicas = min(ws[i].replicas, 2)
		}
	}
	return ws
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string, tiny bool) (workload, error) {
	for _, w := range workloads(tiny) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
