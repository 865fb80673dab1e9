GO ?= go

.PHONY: all vet build test bench-build verify golden conformance bench loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-build compiles bench/, a module of its own that imports the root
# packages and that `./...` therefore never sees: a root-API change can break
# it with build and test green. CI's "Build bench module" step runs this
# target, so the local check and the CI check are the same command.
bench-build:
	cd bench && $(GO) vet . && $(GO) build -o /dev/null .

# vet is CI's whole static check (its test job runs this target): gofmt lists
# no file, and go vet passes for the host and for arm64. A host whose
# compiler may fuse x*y+z must build and vet the model's arithmetic too;
# cross-vetting needs no emulator.
vet:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# verify is what to run before sending a change.
verify: vet build test bench-build

# golden regenerates the committed canonical-report corpus under
# internal/check/testdata/golden (every suite app and the srad dynamic run on
# both evaluation GPUs) and figures_full.txt, the paper's tables printed from
# it. On an unchanged tree it rewrites nothing — the profiler is
# deterministic and the canonical form zeroes wall-clock. Run it after an
# intentional simulator or analysis change and review both diffs like any
# other code change.
golden:
	$(GO) run ./cmd/goldengen
	$(GO) run ./cmd/figures -fig all > figures_full.txt

# conformance is CI's conformance job, the tier-1 conformance tests without
# their sampling: GOLDEN_FULL=1 runs every corpus app on the full device
# models. It runs the engine-equivalence and app tests (production against
# reference device, internal/workloads), the replay oracle on the full Top-Down
# schedule (internal/cupti), the cached autotune profile against the uncached
# one, the golden corpus on new and reused profilers, and the metamorphic and
# checks-clean tests.
conformance:
	GOLDEN_FULL=1 $(GO) test -run 'TestEngineEquivalence|AppsRun|TestCUDASamplesRun' -v -timeout 60m ./internal/workloads/
	GOLDEN_FULL=1 $(GO) test -run 'TestDeterminismReplayOracle' -v -timeout 60m ./internal/cupti/
	GOLDEN_FULL=1 $(GO) test -run 'TestDeterminismAutotuneCache|TestGolden|TestReusedProfilerReproducesGoldens|TestMetamorphicProperties|TestChecksCleanProfile' -v -timeout 60m .

# bench runs one workload of the repository benchmark (BENCHMARK.json,
# bench/README.md): the detail document on standard output, the result line
# last. `make bench WORKLOAD=replay SECONDS=20 SEED=1`.
WORKLOAD ?= replay
SECONDS ?= 20
SEED ?= 1

bench:
	bash bench/run.sh --workload $(WORKLOAD) --seconds $(SECONDS) --seed $(SEED)

# loc prints the non-test Go lines of every package and their total — the
# size figures CHANGES.md and ROADMAP.md quote — then the byte size of each
# design document, so doc growth shows beside code growth. bench/ is a module
# of its own and `./...` does not reach it.
DOCS = DESIGN.md README.md EXPERIMENTS.md

loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] && printf '%6d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'
	@for f in $(DOCS); do printf '%6d bytes %s\n' "$$(wc -c < $$f)" "$$f"; done
