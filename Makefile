# Development / CI entry points. `make check` is the gate every change
# must pass: vet, build, the full test suite, a race-detector pass over
# the concurrency-heavy packages (the root index with its lock-free
# snapshot stress test, the serving layer, the durable store, the
# multi-server harness, the fault-injection proxy, and the shard
# failover client), a crash-recovery smoke (kill -9 a churning child,
# recover, compare against the serial oracle; plus crash-at-every-write
# snapshot atomicity), a seeded whole-stack simulation smoke under the
# race detector, a short fuzz run over the corpus text format, a
# one-iteration benchmark smoke run, and vet plus the tests of the
# serving benchmark (perfbench/). The race pass runs -short so the
# heavyweight load comparison stays affordable under the detector and
# the fault-injection latency schedules stay under ~2s.

GO ?= go

.PHONY: check vet build test race recovery-smoke simsmoke migratesmoke \
	overloadsmoke adaptsmoke soak cover fuzzsmoke benchsmoke perfbenchtest bench \
	bench-reshard bench-overload bench-adapt clean

check: vet build test race recovery-smoke simsmoke migratesmoke overloadsmoke adaptsmoke fuzzsmoke benchsmoke perfbenchtest

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short . ./internal/core ./internal/server ./internal/multiserver \
		./internal/faultnet ./internal/shard ./internal/durable ./internal/diskfault \
		./internal/rewrite ./internal/sim ./internal/simclock ./internal/setcover \
		./internal/optimize

# The crash-recovery stress skips under -short (it forks and SIGKILLs a
# child), so the smoke target runs it explicitly, under the race
# detector, together with the crash-at-every-write atomicity sweep.
recovery-smoke:
	$(GO) test -race -run 'TestCrashRecoveryStress|TestSnapshotAtomicUnderCrash' \
		-v . ./internal/diskfault

# Seeded deterministic simulation smoke: a few fixed seeds through the
# whole stack (in-memory, durable with torn-crash restarts, compressed
# snapshots, sharded+replicated serving behind fault proxies) against
# the brute-force oracle, under the race detector. Fully deterministic,
# so it doubles as a regression gate for the seeds in
# internal/sim/sim_test.go (see TESTING.md for the replay workflow).
simsmoke:
	$(GO) test -race -short -run 'TestSim' ./internal/sim

# Elastic-resharding regression gate: the pinned migration seeds and the
# handcrafted split/migrate/merge scenario from internal/sim, which
# interleave live handoffs with replica kills, partitions, and
# mid-handoff mutations, under the race detector.
migratesmoke:
	$(GO) test -race -run 'TestSimElastic' -v ./internal/sim

# Overload-armor regression gate: the sim overload scenario (every
# query re-run under a tight cost budget and held to the truncation
# contract against the oracle), panic containment (a poisoned backend
# answers a typed error frame and keeps serving), the budget/quarantine
# HTTP path, and the adversarial-flood acceptance test, under the race
# detector.
overloadsmoke:
	$(GO) test -race -run 'TestSimOverloadBudget' -v ./internal/sim
	$(GO) test -race -run 'TestPanicContainment|TestDeadline|TestBudgetBackendFlagsOverWire' \
		./internal/multiserver
	$(GO) test -race -run 'TestSearchBudgetTruncation|TestSearchPanicContainment|TestLimiterShed|TestQuarantine|TestOverloadFlood' \
		-v ./internal/server

# Continuous-adaptation regression gate: the pinned adapt sim seeds
# (synchronous rounds interleaved with inserts, deletes, Optimize calls,
# and torn-crash restarts, oracle-checked) plus ddmin over adapt
# schedules, the root adapt control-loop tests (incremental ≡ batch
# greedy, RCU apply, recalibration), and the closed-loop drift
# acceptance test through the HTTP server, under the race detector.
adaptsmoke:
	$(GO) test -race -run 'TestSimAdaptRegressionSeeds|TestSimShrinkWithAdaptOps' \
		-v ./internal/sim
	$(GO) test -race -run 'TestAdapt|TestExportDelta|TestApplyPlacement|TestStartStopAdapt|TestRecordQueryCost|TestIncremental|TestGaps|TestPlacement' \
		. ./internal/setcover ./internal/optimize
	$(GO) test -race -run 'TestAdaptUnderDrift' -v ./internal/server

# Longer randomized soak: more ops per schedule and a block of seeds
# that rotates daily (seedbase = days since epoch), so successive days
# explore fresh schedules while any day's failure stays reproducible
# from the seed printed in the log. Override SOAK_OPS / SOAK_SEEDS /
# SOAK_SEEDBASE to pin.
SOAK_OPS ?= 3000
SOAK_SEEDS ?= 8
SOAK_SEEDBASE ?= $(shell expr $$(date +%s) / 86400)
soak:
	$(GO) test -run 'TestSim$$' -timeout 30m ./internal/sim \
		-sim.ops=$(SOAK_OPS) -sim.seeds=$(SOAK_SEEDS) -sim.seedbase=$(SOAK_SEEDBASE) -v

# Coverage over the full module; writes cover.out and prints the total.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# Ten seconds of coverage-guided fuzzing each over the corpus text
# format round-trip property (Read ∘ Write = id on accepted inputs), the
# bounded-Levenshtein trie walk (walk ≡ naive DP over every stored
# word), and the columnar signature prefilter (prefiltered scan ≡ naive
# per-record subset scan under random insert/remove churn).
fuzzsmoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadAds -fuzztime=10s ./internal/corpus
	$(GO) test -run='^$$' -fuzz=FuzzLevenshteinWalk -fuzztime=10s ./internal/rewrite
	$(GO) test -run='^$$' -fuzz=FuzzSignaturePrefilter -fuzztime=10s ./internal/core

# One iteration of every root benchmark (keeps them compiling and
# running without timing anything), then the benchmark regression gate
# over the committed perf reports. BENCHGATE_ALLOW grants each copy-out
# variant exactly one extra alloc/op versus BENCH_PR3.json: the
# exclusion-set string arena copied out per query was added after PR3's
# recording. Any regression beyond that documented delta fails.
BENCHGATE_ALLOW = -allow-allocs snapshot=1 -allow-allocs snapshot-append=1
# The PR10 gate compares the committed pre-drift and post-drift adapt
# recordings by p99 modeled-cost ratio: the adapting index must hold
# within 1.3x of its pre-drift baseline while the frozen control must
# degrade by at least 1.5x (or the drift scenario measured nothing).
# QPS across drift phases is not a regression pair, hence the loose cap.
BENCHGATE_ADAPT = -max-qps-drop 0.9 \
	-max-p99cost-ratio adapt-drift=1.3 -min-p99cost-ratio adapt-static-drift=1.5
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) run ./cmd/benchgate -old BENCH_PR3.json -new BENCH_PR8.json $(BENCHGATE_ALLOW)
	$(GO) run ./cmd/benchgate -old BENCH_PR9_BASE.json -new BENCH_PR9.json -max-qps-drop 0.03
	$(GO) run ./cmd/benchgate -old BENCH_PR10_BASE.json -new BENCH_PR10.json $(BENCHGATE_ADAPT)

# perfbench/ is a module of its own (it imports this one through a
# replace directive), so the root ./... patterns never reach it: vet and
# test it in place, which also fails the gate when an API change breaks
# the benchmark's build.
perfbenchtest:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Reproducible before/after numbers for the broad-match read path;
# writes BENCH_PR8.json (quoted in README "Performance"), then gates the
# fresh recording against the prior report so a regression cannot be
# committed silently.
bench:
	$(GO) run ./cmd/adbench -experiment perf -ads 20000 -queries 5000 \
		-stream 50000 -out BENCH_PR8.json
	$(GO) run ./cmd/benchgate -old BENCH_PR3.json -new BENCH_PR8.json $(BENCHGATE_ALLOW)

# Serving quality across a live topology change (split, migrate, merge
# under closed-loop load); writes BENCH_PR7.json, quoted in README
# "Online resharding". Acceptance: p99(during) <= 2x p99(before), zero
# hard query failures.
bench-reshard:
	$(GO) run ./cmd/adbench -experiment reshard -ads 20000 -queries 5000 \
		-stream 20000 -reshard-out BENCH_PR7.json

# Overload armor before/after: budget-off vs budget-on serial QPS on
# the same streams (BENCH_PR9_BASE.json / BENCH_PR9.json) plus the
# adversarial flood through the armored server, then the ≤3%
# steady-state overhead gate over the fresh recording.
bench-overload:
	$(GO) run ./cmd/adbench -experiment overload
	$(GO) run ./cmd/benchgate -old BENCH_PR9_BASE.json -new BENCH_PR9.json -max-qps-drop 0.03

# Continuous adaptation under workload drift: an adapting index vs a
# frozen control on the same hub corpus whose traffic shifts mid-run
# (BENCH_PR10_BASE.json pre-drift, BENCH_PR10.json post-drift), then the
# p99 modeled-cost ratio gate over the fresh recording.
bench-adapt:
	$(GO) run ./cmd/adbench -experiment adapt
	$(GO) run ./cmd/benchgate -old BENCH_PR10_BASE.json -new BENCH_PR10.json $(BENCHGATE_ADAPT)

clean:
	$(GO) clean ./...
