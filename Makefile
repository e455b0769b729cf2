# Local targets mirror the workflows exactly: `make ci` runs every gate
# the push/PR workflow (.github/workflows/ci.yml) enforces — including
# the bench-smoke/bench-gate job via `ci-bench` — and `make nightly`
# runs the scheduled slow-path gates of nightly.yml (full non-short
# suite, hyperscale benchmark, manifest determinism check).

GO ?= go

.PHONY: build test test-short test-race-subsys benchmark-module cover-check bench bench-quick \
	bench-gate bench-baseline bench-hyperscale manifest-check vet fmt-check ci ci-bench nightly

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detected pass over the event-engine order properties, the
# invariant checkers, the workload subsystem (trace parsing,
# generators) and the cluster index property tests, then a short fuzz
# of each external-input parser (trace CSV/JSON, churn CSV, fault CSV)
# — fast enough for the check gate, where the full -race suite is not.
# `go test -fuzz` takes one target per run, hence the loop.
FUZZ_TARGETS = FuzzParseTraceCSV FuzzParseTraceJSON FuzzParseChurnCSV FuzzParseFaultCSV
test-race-subsys:
	$(GO) test -race ./internal/sim/... ./internal/simtest/... ./internal/workload/... ./internal/cluster/...
	@set -e; for f in $(FUZZ_TARGETS); do \
		echo "fuzz $$f (3s)"; \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 3s ./internal/workload; \
	done

# The benchmark (benchmark/, run by benchmark/run.sh) is a Go module of
# its own that the root `go test ./...` never compiles: vet and test it
# here so a change to a simulator API it uses fails in CI, not at
# benchmark time.
benchmark-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Coverage floor over the library packages: the short tier with a
# profile, gated against the committed floor in bench/coverage-floor.txt.
# The floor is a ratchet, not a target — raise it when coverage rises,
# never lower it to make a PR pass. Uses only go tool cover + awk so the
# gate runs on the bare CI image.
COVER_OUT ?= /tmp/dilu-cover.out
cover-check:
	$(GO) test -short -coverprofile $(COVER_OUT) ./internal/...
	@total=$$($(GO) tool cover -func $(COVER_OUT) | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat bench/coverage-floor.txt); \
	echo "total coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the committed floor $$floor%"; exit 1; }

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# One-iteration sweep of the suite benchmarks with allocation counts, in
# benchstat-comparable form (-short keeps the hyperscale sizes out; run
# `make bench` for the full sweep). Compare against the committed
# baseline with
#   make bench-quick > /tmp/new.txt && benchstat bench/baseline.txt /tmp/new.txt
# (single-iteration numbers are noisy; treat benchstat deltas under ~20%
# as noise and re-run with -count before acting on them).
bench-quick:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -benchmem .

# Pinned-benchmark regression gate: re-run the pinned benchmarks (best
# of -count 3 as the noise floor) and fail on >10% ns/op regression
# against bench/baseline.txt. cmd/bench-gate is the dependency-free
# benchstat stand-in. The -bench regex is derived from
# PINNED_TOP so the run set and the gated set cannot drift.
# Recipes avoid `test | tee` because the default shell has no pipefail —
# a crashing benchmark must fail the target even mid-log.
#
# The hyperscale pin is a sub-benchmark path, so it runs in a `go test`
# of its own with an anchored per-level regex: a multi-level -bench
# pattern would silently drop every top-level benchmark that has no
# sub-benchmarks.
PINNED_TOP = BenchmarkSchedulerThroughput BenchmarkFigure17_LargeScale BenchmarkSuiteQuickSerial BenchmarkGatewaySubmit BenchmarkGrayFailure BenchmarkColdStartStages BenchmarkLLMContinuousBatch
PINNED_BENCHMARKS = $(PINNED_TOP) BenchmarkHyperscalePlacement/nodes=10000/inst=32000
empty :=
space := $(empty) $(empty)
PINNED_BENCH_RE = ^($(subst $(space),|,$(strip $(PINNED_TOP))))$$
# pinned-run appends -count 3 of every pinned benchmark to $(1).
define pinned-run
	$(GO) test -run '^$$' -bench '$(PINNED_BENCH_RE)' -benchtime 1x -count 3 -benchmem . \
		>> $(1) || { cat $(1); exit 1; }
	$(GO) test -run '^$$' -bench '^BenchmarkHyperscalePlacement$$/^nodes=10000$$/^inst=32000$$' -benchtime 1x -count 3 -benchmem . \
		>> $(1) || { cat $(1); exit 1; }
endef
BENCH_GATE_OUT ?= /tmp/dilu-bench-gate.txt
bench-gate:
	@: > $(BENCH_GATE_OUT)
	$(call pinned-run,$(BENCH_GATE_OUT))
	@cat $(BENCH_GATE_OUT)
	$(GO) run ./cmd/bench-gate -baseline bench/baseline.txt -new $(BENCH_GATE_OUT) -max-regress 0.10 $(PINNED_BENCHMARKS)

# Refresh the committed baseline after an intentional perf change: the
# full -short sweep for benchstat visibility, plus -count 3 of the
# pinned benchmarks so the gate's best-of-3 comparison is symmetric
# (bench-gate takes the per-name minimum across the whole file — a
# single unlucky baseline sample would otherwise inflate the tolerated
# regression by the run-to-run noise margin).
bench-baseline:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -benchmem . > bench/baseline.txt
	$(call pinned-run,bench/baseline.txt)

# Hyperscale placement benchmark (40k GPUs / 32k instances): too heavy
# for the per-PR bench smoke (-short keeps it out), pinned nightly so
# the sub-linear placement claim stays guarded by automation.
BENCH_NIGHTLY_OUT ?= /tmp/dilu-bench-nightly.txt
bench-hyperscale:
	$(GO) test -run '^$$' -bench '^BenchmarkHyperscalePlacement$$' -benchtime 1x -benchmem . \
		> $(BENCH_NIGHTLY_OUT) || { cat $(BENCH_NIGHTLY_OUT); exit 1; }
	@cat $(BENCH_NIGHTLY_OUT)

# Full-registry manifest determinism check: every driver (slow tier
# included) runs serially and on all cores at the golden scale; the two
# manifests must be byte-identical. This is the whole-registry extension
# of the committed quick/trace golden tests.
# The token-level drivers then get their own dedicated axis: continuous
# batching joins/preempts mid-stream and KV charge/release races would
# show up exactly here, so they are byte-compared in isolation too.
LLM_DRIVERS = llm_continuous_batch llm_kvcache_pressure
MANIFEST_DIR ?= /tmp
manifest-check:
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 1 -q -manifest $(MANIFEST_DIR)/dilu-manifest-serial.json
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 0 -q -manifest $(MANIFEST_DIR)/dilu-manifest-parallel.json
	cmp $(MANIFEST_DIR)/dilu-manifest-serial.json $(MANIFEST_DIR)/dilu-manifest-parallel.json
	@echo "manifest determinism: serial == parallel"
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 1 -q -manifest $(MANIFEST_DIR)/dilu-manifest-llm-serial.json $(LLM_DRIVERS)
	$(GO) run ./cmd/dilu-bench -scale 0.1 -parallel 0 -q -manifest $(MANIFEST_DIR)/dilu-manifest-llm-parallel.json $(LLM_DRIVERS)
	cmp $(MANIFEST_DIR)/dilu-manifest-llm-serial.json $(MANIFEST_DIR)/dilu-manifest-llm-parallel.json
	@echo "LLM driver determinism: serial == parallel"

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# ci-bench is the local mirror of the workflow's bench-smoke job: the
# one-iteration suite sweep, then the pinned-benchmark gate.
ci-bench: bench-quick bench-gate

ci: build vet fmt-check test-short test-race-subsys benchmark-module cover-check ci-bench

# nightly mirrors .github/workflows/nightly.yml: the slow path the
# per-PR workflow skips.
nightly: test bench-hyperscale manifest-check
