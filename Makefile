# Convenience targets for the Sprite process-migration reproduction.

GO ?= go

.PHONY: all build vet lint test perfbench-test race cover bench bench-baseline bench-wallclock chaos shootout fleet scale experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# spritelint (DESIGN.md §11, §14): the project's own go/analysis-style
# suite — five intraprocedural analyzers (walltime, globalrand, maporder,
# failpointreg, metricname) plus the interprocedural simtaint and deadcode
# analyzers built on the whole-tree call graph and function summaries —
# run over the whole tree. Built once into bin/ so repeated runs reuse
# the build cache; the whole-tree pattern also enables deadcode, the
# dead-failpoint audit and the stale-allow audit (-deadallow).
lint:
	$(GO) build -o bin/spritelint ./cmd/spritelint
	./bin/spritelint -deadallow ./...

# Dump the SCC-condensed whole-tree call graph the interprocedural
# analyzer runs over (DESIGN.md §14) — one line per function with its
# resolved callees — for offline inspection of why a summary converged
# the way it did.
lint-graph:
	$(GO) build -o bin/spritelint ./cmd/spritelint
	./bin/spritelint -graph ./...

test:
	$(GO) test ./...

# The host-time benchmark harness (perfbench/, see BENCHMARK.json) is a
# nested module outside ./..., so `make test` never builds it. Vet and
# test it here so an API change in the simulator that breaks the harness
# fails CI instead of the next benchmark run.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The simulator parks goroutines and hands control across channels, so the
# race detector is the test that the one-activity-at-a-time discipline holds.
race:
	$(GO) test -race ./...

# Minimum total coverage enforced; raise as the suite grows.
COVER_MIN ?= 60
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	ok=$$(awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN{print (t>=m)?"yes":"no"}'); \
	if [ "$$ok" != "yes" ]; then \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; \
	fi

# Benchmarks, in two parts:
#   1. Go micro-benchmarks across the tree, benchstat-compatible (pipe two
#      runs through `benchstat old.txt new.txt` to compare).
#   2. The migration macro-benchmark, emitting BENCH_migration.json and
#      failing on a >20% total-time regression against the checked-in
#      baseline (bench/BENCH_migration.json). Virtual time is
#      deterministic, so the gate is exact, not statistical.
BENCH_BASELINE ?= bench/BENCH_migration.json
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./... | tee bench.txt
	$(GO) run ./cmd/migbench -out BENCH_migration.json -baseline $(BENCH_BASELINE)

# Refresh the checked-in migration baseline (run after intentional
# performance changes, and commit the result).
bench-baseline:
	$(GO) run ./cmd/migbench -out $(BENCH_BASELINE)

# Wall-clock benchmarks of the simulator, RPC, VM, and metrics hot paths —
# the code whose real (not virtual) speed bounds how fast experiments run.
# Repeated runs (BENCH_COUNT) make the output benchstat-ready: save one
# run, make a change, run again, and `benchstat old.txt
# bench-wallclock.txt`.
BENCH_COUNT ?= 6
bench-wallclock:
	$(GO) test -run '^$$' -bench=. -benchmem -count=$(BENCH_COUNT) \
		./internal/sim ./internal/rpc ./internal/vm ./internal/metrics | tee bench-wallclock.txt

# Crash-storm chaos suite (DESIGN.md §10) under the race detector: every
# migration strategy in both batch modes survives a storm of host crashes
# and instant reboots with all jobs completing and invariants green. Emits
# RECOVERY_metrics.json — per-configuration recovery counters — plus the
# recovery demo's full metrics snapshot for the CI artifact.
chaos:
	SPRITE_CHAOS_SNAPSHOT=$(CURDIR)/RECOVERY_metrics.json \
		$(GO) test -race -run 'TestCrashStorm|TestCrashAnyHostAtAnyFailpoint|TestGoldenCrashScenarios' -v ./internal/recovery
	$(GO) run ./cmd/spritesim -experiment E15 -snapshot RECOVERY_demo.json

# Host-selection churn suite (DESIGN.md §12) under the race detector —
# reboot storms, flapping, and partitions against all four selector
# architectures, audited by the claim ledger — plus the load-vector
# property tests and the misplacement-rate gate against
# bench/BENCH_hostsel.json. Then the full-scale E16 shoot-out, emitting
# HOSTSEL_shootout.json for the CI artifact.
shootout:
	$(GO) test -race -run 'Churn|Gossip|LoadVector|Merge|Decay|VectorBound|EvictionHint|EpochAdvance|NewestHalf|RebootReleases' -v ./internal/hostsel
	$(GO) test -race -run 'GossipMisplaceGate' ./internal/experiments
	$(GO) run ./cmd/spritesim -experiment E16 -snapshot HOSTSEL_shootout.json

# Fleet-management chaos suite (DESIGN.md §13): the drain state machine's
# transition matrix, the 50-seed eviction-storm fuzz family (drain-safety
# audit + shrinking), and the byte-exact rerun-determinism check, all
# under the race detector; then the fleet economy gate against
# bench/BENCH_fleet.json and the full E18 sweep, emitting FLEET_storms.json
# for the CI artifact.
fleet:
	$(GO) test -race -run 'TestDrainStateMachine|TestManagerDeterministic|TestFleetFuzz|TestFleetScenarioDeterminism|TestFleetKernelEquivalence' -v ./internal/fleet ./internal/fault
	$(GO) test -race -run 'TestFleetEconomyGate' ./internal/experiments
	$(GO) run ./cmd/spritesim -experiment E18 -snapshot FLEET_storms.json

# The 10,000-host scale tier (nightly CI): E16's combined-churn schedule —
# reboot storm, flapping hosts, two partitions, competing requesters — at
# fleet scale. Emits HOSTSEL_10k.json.
scale:
	$(GO) run ./cmd/spritesim -experiment E16 -hosts 10000 -snapshot HOSTSEL_10k.json

# Regenerate every reproduced table (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/spritesim -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pmake
	$(GO) run ./examples/eviction
	$(GO) run ./examples/loadsharing
	$(GO) run ./examples/ipc
	$(GO) run ./examples/recovery

clean:
	$(GO) clean ./...
