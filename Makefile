GO ?= go

.PHONY: all build test golden bench

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
