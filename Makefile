# Tier-1 verification for the Mosaic repo. `make check` is the gate every
# change must pass: vet, the static audit, staticcheck, build, the plain test
# suite, the same suite under the race detector (every fan-out runs on
# internal/par), and a doubled determinism run to catch any
# seed-dependent flakiness. CI (.github/workflows/ci.yml) runs
# `make check` plus the fuzz-smoke, bench-check, scenario-conformance,
# and coverage stages below.

GO ?= go
FUZZTIME ?= 20s
# pkg:target pairs — go test runs one fuzz target at a time, per package.
# Every fuzz target in the tree, no more (TestFuzzTargetsListed): the
# wire-facing decoders, the scenario parser, the event-record renderer
# held to fmt.Sprintf, and the differential targets
# that hold each optimized hot-path stage to its naive twin in
# internal/refmodel.
FUZZ_TARGETS = internal/phy:FuzzFramerDecodeStream internal/phy:FuzzHammingFECDecode \
	internal/phy:FuzzParseFramesNeverPanics internal/scenario:FuzzScenarioSpec \
	internal/scenario:FuzzScenarioSource \
	internal/eventlog:FuzzEventRender \
	internal/refmodel:FuzzRSLiteDecode internal/refmodel:FuzzMACDeframe \
	internal/refmodel:FuzzDiffScrambler internal/refmodel:FuzzDiffBSCSkip \
	internal/refmodel:FuzzDiffRSEncode internal/refmodel:FuzzDiffRSDecode \
	internal/refmodel:FuzzDiffRSVector internal/refmodel:FuzzDiffFramer \
	internal/refmodel:FuzzDiffStriper internal/refmodel:FuzzDiffMACLLR \
	internal/refmodel:FuzzDiffMACSR internal/refmodel:FuzzDiffMACVC \
	internal/refmodel:FuzzDiffPipeline

# fuzz_loop runs every FUZZ_TARGETS pair for -fuzztime $(1), with the
# extra go test flags $(2).
fuzz_loop = for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t\#\#*:}; \
		echo "== fuzz $$pkg $$fn ($(strip $(1) $(2))) =="; \
		$(GO) test $(2) -run '^$$' -fuzz "^$$fn$$" -fuzztime $(1) ./$$pkg/ || exit 1; \
	done

.PHONY: check vet audit build test race determinism staticcheck bench bench-check bench-layers coverage fuzz-smoke verify-deep soak-fleetd scenario-conformance loc

check: vet audit staticcheck build test race determinism

vet:
	$(GO) vet ./...

# The one static gate: the tree's named rules (audit_rules_test.go — each
# violation prints `RULE-ID file:line: why`; the arm64 FMA compile of
# internal/netsim is one of them) and the typed half of the dead-weight
# audit (audit_typed_test.go). It type-checks the whole tree with
# go/types, seconds rather than milliseconds, so it sits behind a build
# tag and runs here instead of in `go test ./...`. The syntactic half of
# the dead-weight audit (audit_test.go) is tier-1.
audit:
	$(GO) test -tags audit -run TestTypedAudit -count=1 .

# staticcheck is advisory locally (skipped when the binary is absent —
# the repo must build with only the Go toolchain installed); CI's lint
# job installs it and runs this target, so it is enforced there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI enforces it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The doubled PHY determinism run plus the sharded flow engine's
# worker-invariance goldens: the E24 fleet table (and its epoch
# event-log sha) at 1 worker vs GOMAXPROCS, the netsim fleet
# scenario at 1/3/GOMAXPROCS workers, the fleetd service's
# scripted-scenario event-log sha (1/3/GOMAXPROCS pool workers, plus
# the 50-iteration concurrent-admission invariance run), and the
# scenario-library goldens: every registered scenario experiment
# (E26/E27) renders a byte-identical table at 1 worker vs GOMAXPROCS,
# 50 shuffles of a spec's component arrays keep the event-log sha, and a
# spec of every workload and environment kind keeps its log, windows and
# fault counts at 1/2/3/8 workers (its epoch round draws the next epoch's
# arrivals beside the barrier).
# The soak and MAC-session golden shas (both harnesses cross every
# superframe through the link supervisor) run at 1/2/3/4/NumCPU/all
# PHY workers. The flow engine's and the experiment tables' lines run a
# second time with GODEBUG=cpu.fma=off, which takes the FMA path out of
# the math assembly (math.Exp on amd64): the same goldens must hold
# without it.
determinism:
	$(GO) test -run TestDeterminism -count=2 ./internal/phy/
	$(GO) test -run 'TestSoakDeterminismAcrossWorkerCounts' -count=1 ./internal/faultinject/
	$(GO) test -run 'TestSessionDeterminismAcrossWorkerCounts' -count=1 ./internal/mac/
	$(GO) test -run 'TestFleetSimWorkerInvariance' -count=1 ./internal/netsim/
	$(GO) test -run 'TestE24DeterministicAcrossWorkers|TestScenarioTablesDeterministicAcrossWorkers' -count=1 ./internal/experiments/
	GODEBUG=cpu.fma=off $(GO) test -run 'TestFleetSimWorkerInvariance' -count=1 ./internal/netsim/
	GODEBUG=cpu.fma=off $(GO) test -run 'TestE24DeterministicAcrossWorkers|TestScenarioTablesDeterministicAcrossWorkers' -count=1 ./internal/experiments/
	$(GO) test -run 'TestFleetdDeterministicAcrossWorkers|TestConcurrentAdmissionDeterministic' -count=1 ./internal/fleetd/
	$(GO) test -run 'TestCompositionOrderInvariant50Iterations|TestRunDeterministicAcrossWorkers' -count=1 ./internal/scenario/

# Not part of check: the time-and-allocation benchmarks. E10 exercises
# the whole pipeline (7 reach points, construction + exchange); the
# steady-state Exchange — clean, and at BER 2e-4 where the RS decode
# path runs — the MAC round trips and one woken par.Pool round in the
# exchange's shape (PoolRoundWoken) are pinned allocation-free, as are the
# noisy tick's two per-error and per-frame paths: one dirty RS(68,64)
# block's decode (RSDecodeDirty) and an ack-only superframe's idle scan
# (DeframeIdle); E12Degradation gates FlowSim's event loop (five
# 3,000-flow fat-tree runs); FleetSimEpochSteady pins the flow engine's epoch at a
# constant population (its allocs/op must not scale with the flows held);
# ScenarioStorm prices 100 epochs of the repo benchmark's storm spec
# through the scenario engine (epoch rounds plus FleetSim steps);
# FleetdAdmit pins the cost of admitting one link into
# a live fleet and stepping it through an epoch. Every benchmark runs -count=$(BENCH_COUNT) and
# benchguard folds the repeats min-of-N (min ns/op and B/op, max allocs/op)
# before gating, so scheduler noise cannot fail a healthy run. The fast
# benchmarks get a larger -benchtime so their ns/op figure is a real
# measurement rather than timer noise. E10 runs 100 ops a repeat: its
# seven links borrow one exchange scratch, and each time sync.Pool misses
# (about one op in five) a ≈ 2.4 MB scratch is rebuilt, so at 3 ops a
# repeat its B/op read 2.1–4.5 MB and at 100 ops 2.3–2.7 MB.
BENCH_COUNT ?= 5
bench:
	@$(GO) test -bench 'BenchmarkE10EndToEnd$$' -benchmem -benchtime 100x -count=$(BENCH_COUNT) -run '^$$' . && \
	$(GO) test -bench 'BenchmarkExchangeSteadyState$$|BenchmarkExchangeNoisySteadyState$$|BenchmarkMACFrameRoundTrip$$|BenchmarkMACFrameRoundTripSR$$|BenchmarkPoolRoundWoken$$' \
		-benchmem -benchtime 1000x -count=$(BENCH_COUNT) -run '^$$' . && \
	$(GO) test -bench 'BenchmarkRSDecodeDirty$$|BenchmarkDeframeIdle$$' -benchmem -benchtime 20000x -count=$(BENCH_COUNT) -run '^$$' . && \
	$(GO) test -bench 'BenchmarkE12Degradation$$|BenchmarkE24FleetFlows$$' -benchmem -benchtime 1x -count=$(BENCH_COUNT) -run '^$$' -timeout 30m . && \
	$(GO) test -bench 'BenchmarkFleetSimEpochSteady$$' -benchmem -benchtime 200x -count=$(BENCH_COUNT) -run '^$$' . && \
	$(GO) test -bench 'BenchmarkScenarioStorm$$' -benchmem -benchtime 10x -count=$(BENCH_COUNT) -run '^$$' . && \
	$(GO) test -bench 'BenchmarkFleetdAdmit$$' -benchmem -benchtime 500x -count=$(BENCH_COUNT) -run '^$$' .

# CI bench-regression gate: run the baselined benchmarks, keep the raw
# `go test -bench` text in BENCH_RAW.txt (so a regression can be diagnosed
# from the individual -count repeats), record
# the min-of-N aggregate in BENCH_E10.json, and fail if any baselined
# benchmark regresses allocs/op or (where pinned) B/op >10% or ns/op >25%
# (a baseline of exactly 0 allocs allows no allocations at all).
# After an intentional change re-pin and commit the run with it, so
# `git log -p BENCH_*.json` is the performance history:
#   make bench > BENCH_RAW.txt && go run ./cmd/benchguard -in BENCH_RAW.txt \
#       -baseline ci/bench_baseline.json -update -out BENCH_E10.json
bench-check:
	$(MAKE) --no-print-directory bench | tee BENCH_RAW.txt | $(GO) run ./cmd/benchguard \
		-baseline ci/bench_baseline.json -out BENCH_E10.json

# The per-layer ledger: the repo benchmark's five workloads, untraced and
# traced, three times over at fixed work (-rounds 8, so every counted
# metric repeats exactly from row to row and only the timings move),
# every metric folded to its median into the "after" row of
# BENCH_LAYERS.json (committed; other rows are kept). A change that
# claims a gain commits a "before" row measured on its parent tree — run
# the same loop in a checkout of the parent and pipe it through this
# tree's `benchguard -layers before` — beside the "after" row this target
# writes. The fold then prints metric | before | after | ratio per
# workload and fails if a count (a metric all three runs agree on exactly;
# runtime.* and driver.* excepted) differs from the "before" row: a change
# that was only to make the simulator faster must leave what it simulated
# alone. ~2 min per run on this tree.
bench-layers:
	@for i in 1 2 3; do $(GO) run ./benchmark -all -trace 1 -rounds 8 || exit 1; done | \
		$(GO) run ./cmd/benchguard -layers after -out BENCH_LAYERS.json

# Coverage gate for the packages the vectorized kernels, the fault
# machinery, the one worker pool, the ARQ core, the flow engine, the
# scenario engine and the one event log live in: the PHY, the coding
# stack, faultinject, par, the MAC, netsim, scenario and eventlog must
# stay at or above $(COVER_MIN)% statement coverage combined. COVER.out is
# uploaded as a CI artifact.
COVER_MIN ?= 85
coverage:
	$(GO) test -coverprofile=COVER.out -covermode=atomic ./internal/phy/... ./internal/coding/... ./internal/faultinject/... ./internal/par/... ./internal/mac/... ./internal/netsim/... ./internal/scenario/... ./internal/eventlog/...
	@total=$$($(GO) tool cover -func=COVER.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t + 0 < min + 0) { printf "coverage: FAIL — %.1f%% below minimum %d%%\n", t, min; exit 1 } \
		printf "coverage: OK — %.1f%% >= %d%%\n", t, min }'

# Deep differential verification: every fuzz target — each optimized
# hot-path stage against its naive reference model (internal/refmodel),
# the pipeline target across 1, 2 and GOMAXPROCS workers, and the
# wire-facing decoders — runs 200 fuzzer inputs past its seed corpus
# under the race detector, then the deep flow-engine trace suite. Not
# part of check (minutes); run it to certify a perf-oriented change, or
# let CI's verify-deep job do it. A failing input is written to the
# package's testdata/fuzz/<target>/ (the CI artifact) and replays with
# `go test -run '<target>/<file>' ./<pkg>/`.
verify-deep:
	@$(call fuzz_loop,200x,-race)
	MOSAIC_VERIFY_DEEP=1 $(GO) test -race -run TestFlowSimDeepProperties -timeout 60m ./internal/netsim/

# The mosaicfleetd acceptance soak: >=2000 concurrent serving links
# stepped continuously for SOAK_SECONDS under the race detector while
# concurrent clients throw scrape, fault, and admission traffic at the
# HTTP API. Passes only with zero races, zero dropped serving links,
# and /healthz answering 200 throughout (503 allowed only inside the
# induced overload window). The final /metrics exposition lands in
# FLEETD_METRICS.prom for the CI artifact upload. Not part of check
# (it holds the wall clock for a minute); CI runs it as its own job.
SOAK_SECONDS ?= 60
soak-fleetd:
	MOSAIC_FLEETD_SOAK=1 MOSAIC_FLEETD_SOAK_SECONDS=$(SOAK_SECONDS) \
		FLEETD_METRICS_OUT=$(CURDIR)/FLEETD_METRICS.prom \
		$(GO) test -race -run 'TestFleetSoak$$' -v -timeout 20m ./internal/fleetd/

# The scenario conformance harness under the race detector: for every
# registered scenario, byte-identical event logs at 1/3/GOMAXPROCS
# workers, netsim flow conservation and max-min bottleneck saturation
# on every epoch, and injected fault counts inside the closed-form
# 6-sigma envelope. The rendered per-scenario experiment tables land in
# SCENARIO_TABLES.txt for the CI artifact upload.
scenario-conformance:
	$(GO) test -race -run 'TestLibraryConformance' -v -count=1 ./internal/scenario/
	$(GO) run ./cmd/mosaicbench -exp E26,E27 > SCENARIO_TABLES.txt
	@echo "scenario-conformance: tables written to SCENARIO_TABLES.txt"

# CI fuzz smoke: each pkg:target pair gets a short budget (go test runs
# one fuzz target at a time, so this is a loop, not a single invocation).
fuzz-smoke:
	@$(call fuzz_loop,$(FUZZTIME))

# The design-economy ledger: non-test Go lines (wc -l) per top-level
# package and in total, with benchmark/ (the measuring harness, not the
# system) listed apart. ROADMAP's "non-test line count goes down" is read
# off the committed LOC.txt (CI's lint job also prints and uploads it).
loc:
	@wc -l $$($(GO) list -f '{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | sed 's|$(CURDIR)/|./|g') | awk ' \
		$$2 == "total" { next } \
		{ n = split($$2, p, "/"); key = (n == 2) ? "(root)" : p[2]; \
		  if ((key == "internal" || key == "cmd") && n > 3) key = key "/" p[3]; \
		  lines[key] += $$1 } \
		END { for (k in lines) if (k != "benchmark") { total += lines[k]; printf "%7d  %s\n", lines[k], k | "sort -k2"; } \
		  close("sort -k2"); \
		  printf "%7d  total (excluding benchmark)\n%7d  benchmark\n", total, lines["benchmark"] }' | tee LOC.txt
