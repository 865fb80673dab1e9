GO ?= go

.PHONY: all build test golden bench bench-sim bench-compare

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# golden regenerates the committed canonical-report corpus under
# internal/check/testdata/golden (every suite app on both evaluation GPUs).
# On an unchanged tree it rewrites nothing — the profiler is deterministic
# and the canonical form zeroes wall-clock. Run it after an intentional
# simulator or analysis change and review the resulting diff like any other
# code change.
golden:
	$(GO) run ./cmd/goldengen

# bench runs one workload of the repository benchmark (BENCHMARK.json,
# bench/README.md): the detail document on standard output, the result line
# last. `make bench WORKLOAD=replay SECONDS=20 SEED=1`.
WORKLOAD ?= replay
SECONDS ?= 20
SEED ?= 1

bench:
	bash bench/run.sh --workload $(WORKLOAD) --seconds $(SECONDS) --seed $(SEED)

# bench-sim measures the fast-forward launch engine against the naive
# cycle loop: the Go micro-benchmarks on the synthetic memory-bound kernel
# and the SM hot path, then benchsim on real suite applications (appending
# an entry to the BENCH_sim.json trajectory and failing if any gated
# reference app falls below its required speedup).
# Floors recalibrated (gups 3.0 -> 2.0, maxflops 1.0 -> 0.95) for the
# sliced-L2/DRAM device model and single-run jitter.
BENCH_REFS ?= altis/gups:2.0,altis/maxflops:0.95
BENCH_REPS ?= 3
BENCH_ENGINE ?= sliced-ff
BENCH_PROFILE ?=

bench-sim:
	$(GO) test -run xxx -bench 'BenchmarkLaunch(Naive|FastForward)' -benchmem ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkIssue(ALU|Memory)' -benchmem ./internal/sm/
	$(GO) run ./cmd/benchsim -reps $(BENCH_REPS) -refs '$(BENCH_REFS)' -engine $(BENCH_ENGINE) \
		$(if $(BENCH_PROFILE),-cpuprofile $(BENCH_PROFILE)) -out BENCH_sim.json

# bench-compare benchmarks HEAD against a baseline checkout's report:
# point BASELINE at a directory containing a BENCH_sim.json (for example a
# git worktree of the commit to compare against) and the target prints
# per-app fast-forward deltas. The HEAD run is written to a scratch file so
# the tracked trajectory is not modified by comparisons.
BASELINE ?=

bench-compare:
	@test -n "$(BASELINE)" || { echo "usage: make bench-compare BASELINE=<dir with BENCH_sim.json>"; exit 1; }
	@test -f "$(BASELINE)/BENCH_sim.json" || { echo "bench-compare: $(BASELINE)/BENCH_sim.json not found"; exit 1; }
	$(GO) run ./cmd/benchsim -reps $(BENCH_REPS) -refs '$(BENCH_REFS)' -engine head \
		-compare $(BASELINE)/BENCH_sim.json -out /tmp/BENCH_sim_head.json
