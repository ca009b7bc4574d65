# Development entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-hot alloc-check snapshot-check test race race-kernel race-obs race-faults race-txn cover shape bench bench-kernel bench-obs bench-compare bench-smoke experiments paper synth examples loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific determinism, invariant & hot-path purity rules
# (cmd/vichar-lint): no map ranges or ambient entropy in the simulator
# core, no dropped errors, panics only in constructors or at annotated
# invariants, no allocation on the tick path beyond the committed
# lint.baseline ratchet, nil-guarded probes, and shard-owned writes in
# phase functions (DESIGN.md §9, §13). Runs go vet first.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/vichar-lint ./...

# The hot-path purity contract cross-checked against the compiler:
# the AST pass's hot set and explanations must account for every heap
# decision `go build -gcflags='-m -m'` reports in a hot function.
lint-hot:
	$(GO) run ./cmd/vichar-lint -escape-audit ./...

# The runtime half of the purity contract: Network.Step performs zero
# heap allocations at steady state for all four buffer architectures.
alloc-check:
	$(GO) test ./internal/network/ -run TestStepAllocFree -count=1 -v

# The bit-identical resume contract (DESIGN.md §15): snapshot at C,
# restore, run to completion — results, latencies, counters and flit
# events byte-equal to the straight-through run for every
# architecture, with faults and metrics on, in-process and across a
# process boundary and across worker counts, plus corruption
# rejection and the mid-hold cut. Format v3 carries no dead state:
# checkpoint bytes per idle router stay under a ceiling
# (TestSnapshotBytesTrackLiveState), live-only control-table rings
# round-trip across the ring wrap, in-place RNG advance matches a
# reseeded restore, and the traffic lookahead writes the per-cycle
# draw counts and never carries a pre-drawn packet across a restore.
snapshot-check:
	$(GO) test . -run 'TestSnapshot|TestRestore|TestRunCheckpointed' -count=1
	$(GO) test ./internal/network/ -run 'TestSnapshot' -count=1
	$(GO) test ./internal/core/ -run 'TestUBSSaveLoadWrappedRings|TestTableLoadRejectsCorruptRegisters' -count=1
	$(GO) test ./internal/rng/ ./internal/traffic/ -run 'TestAdvanceMatchesRestore|TestRepositionPaths|TestLoadStateStreamPaths|TestGeneratorStateRoundTrip|TestLookahead' -count=1
	$(GO) test ./internal/snap/ -count=1
	$(GO) test ./experiments/ -run 'TestBranchSweep' -count=1

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The parallel-stepper contract under the race detector: the sharded
# two-phase kernel, its determinism tests and the composed experiment
# parallelism.
race-kernel:
	$(GO) test -race ./internal/network/ -run 'TestWorkers|TestDeterministic'
	$(GO) test -race ./experiments/ -run 'TestJobWorkers|TestKernelWorkers'

# The observability layer under the race detector: registry merges and
# tracer drains in the kernel's serial phase racing against HTTP-style
# snapshot readers, plus the instrumented determinism contract.
race-obs:
	$(GO) test -race ./internal/metrics/
	$(GO) test -race ./internal/network/ -run 'TestMetrics|TestFlit|TestWorkersBitIdentical'

# The fault-injection subsystem under the race detector: the fault
# plan, the faulted link/router paths in the kernel, and the faulted
# bit-identical-workers contract.
race-faults:
	$(GO) test -race ./internal/faults/ ./internal/routing/
	$(GO) test -race ./internal/network/ -run 'TestHardLinkFailure|TestTransientFault|TestScheduledStall|TestWorkersBitIdentical'

# The transaction layer under the race detector: the serial engine
# tick and ejection-side admission gates against the sharded kernel,
# the protocol-deadlock wall, and the transaction-loaded bit-identical
# workers and snapshot contracts.
race-txn:
	$(GO) test -race ./internal/txn/ ./internal/network/ -run 'TestTxn|TestWorkersBitIdentical'
	$(GO) test -race . -run 'TestSnapshotResumeBitIdentical|FuzzParseTxn'

# Coverage floor for the simulator proper (commands and examples are
# thin shells and excluded). CI fails if total statement coverage
# drops below COVER_FLOOR.
COVER_FLOOR ?= 75.0
COVER_PKGS = . ./internal/... ./experiments/...

cover:
	$(GO) test -coverprofile=coverage.out $(COVER_PKGS)
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, floor; exit 1 } \
		printf "coverage %.1f%% meets the %.1f%% floor\n", t, floor }'

# Just the statistical assertions of the paper's claims.
shape:
	$(GO) test . -run TestShape -v

# One benchmark per paper table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem

# The two-phase cycle kernel sweep (all four architectures, workers
# 1/2/max near saturation plus a single-threaded near-idle point on an
# 8x8 mesh), persisted as BENCH_kernel.json with host provenance. The
# harness warns when the artifact it is about to replace (or
# VICHAR_BENCH_BASELINE) was recorded with a different GOMAXPROCS.
bench-kernel:
	VICHAR_BENCH_JSON=$(CURDIR)/BENCH_kernel.json $(GO) test . -run TestKernelBenchArtifact -v

# Re-measure the kernel sweep into a scratch artifact and print a
# benchstat-style delta report against the checked-in
# BENCH_kernel.json, without touching it.
bench-compare:
	VICHAR_BENCH_JSON=$(CURDIR)/results/BENCH_kernel_new.json \
		VICHAR_BENCH_BASELINE=$(CURDIR)/BENCH_kernel.json \
		sh -c 'mkdir -p results && $(GO) test . -run TestKernelBenchArtifact -v'
	$(GO) run ./cmd/vichar-benchcmp BENCH_kernel.json results/BENCH_kernel_new.json

# One fast iteration of every kernel benchmark cell — CI's guard that
# the benchmark harness itself can never silently rot — followed by
# the throughput-regression gate: the smoke sweep is written as an
# artifact and compared against the committed
# results/BENCH_kernel_pre.json lineage; a saturated-rate cell losing
# more than 10% of its router-cycles/s fails the build. Shared-host
# noise is one-sided slow, so each cell keeps the fastest of three
# one-iteration repetitions (VICHAR_BENCH_BEST_OF) — a lower bound on
# true cost that keeps the gate from flaking on load spikes while a
# structural regression still fails every repetition.
bench-smoke:
	mkdir -p results
	VICHAR_BENCH_JSON=$(CURDIR)/results/BENCH_kernel_smoke.json \
		VICHAR_BENCH_BASELINE=$(CURDIR)/results/BENCH_kernel_pre.json \
		VICHAR_BENCH_BEST_OF=3 \
		$(GO) test . -run TestKernelBenchArtifact -benchtime 1x
	$(GO) run ./cmd/vichar-benchcmp -max-loss 10 \
		results/BENCH_kernel_pre.json results/BENCH_kernel_smoke.json

# CPU profile of the saturated single-threaded ViChaR kernel cell —
# the PR-over-PR optimization loop's instrument. Writes the raw
# profile to results/kernel.prof and checks in the top-10 flat/cum
# report as results/PROFILE_kernel.txt so the hot-spot ranking is
# reviewable without rerunning the profiler.
profile:
	mkdir -p results
	$(GO) test . -run 'TestNone$$' -bench 'BenchmarkKernel/ViC/rate=0.40/workers=1' \
		-benchtime 20x -cpuprofile results/kernel.prof -o results/kernel.test
	{ echo "# Top-10 flat (self) CPU, BenchmarkKernel ViChaR rate=0.40 workers=1"; \
	  $(GO) tool pprof -top -nodecount=10 results/kernel.test results/kernel.prof; \
	  echo; \
	  echo "# Top-10 cumulative CPU"; \
	  $(GO) tool pprof -top -cum -nodecount=10 results/kernel.test results/kernel.prof; \
	} > results/PROFILE_kernel.txt
	@echo wrote results/PROFILE_kernel.txt

# Observability overhead sweep (disabled / metrics / metrics+trace on
# the kernel benchmark platform), persisted as BENCH_obs.json. Set
# VICHAR_OBS_SEED_NS=<ns/run> to also record drift vs a pre-metrics
# baseline measured on the same machine.
bench-obs:
	VICHAR_OBS_JSON=$(CURDIR)/BENCH_obs.json $(GO) test . -run TestObsBenchArtifact -v

# Regenerate every figure/table at quick scale into results/.
experiments:
	$(GO) run ./cmd/vichar-experiments -all -extras -csv results

# The paper's full 300k-message protocol (slow).
paper:
	$(GO) run ./cmd/vichar-experiments -all -paper -csv results-paper

synth:
	$(GO) run ./cmd/vichar-synth

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bufferpressure
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/powerbudget
	$(GO) run ./examples/tracereplay

# Non-test Go line count, perfbench/ excluded: the net figure every
# simplification change reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

clean:
	rm -rf results results-paper test_output.txt bench_output.txt coverage.out
