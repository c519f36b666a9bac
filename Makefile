# Tier-1 verification for the Mosaic repo. `make check` is the gate every
# change must pass: vet, the substrate grep gate, build, the plain test
# suite, the same suite under the race detector (every fan-out runs on
# internal/par), and a doubled determinism run to catch any
# seed-dependent flakiness. CI (.github/workflows/ci.yml) runs
# `make check` plus the fuzz-smoke, bench-check, scenario-conformance,
# and coverage stages below.

GO ?= go
FUZZTIME ?= 20s
# pkg:target pairs — go test runs one fuzz target at a time, per package.
# Every fuzz target in the tree, no more (TestFuzzTargetsListed): the
# wire-facing decoders, the scenario parser, and the differential targets
# that hold each optimized hot-path stage to its naive twin in
# internal/refmodel.
FUZZ_TARGETS = internal/phy:FuzzFramerDecodeStream internal/phy:FuzzHammingFECDecode \
	internal/phy:FuzzParseFramesNeverPanics internal/scenario:FuzzScenarioSpec \
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

.PHONY: check vet substrate audit build test race determinism staticcheck bench bench-check bench-layers coverage fuzz-smoke verify-deep soak-fleetd scenario-conformance loc

check: vet substrate audit staticcheck build test race determinism

vet:
	$(GO) vet ./...

# The typed half of the dead-weight audit (audit_typed_test.go): go/types
# over the whole tree, seconds rather than milliseconds, so it sits behind
# a build tag and runs here instead of in `go test ./...`. The syntactic
# half (audit_test.go) is tier-1.
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

# One execution substrate, one event log, one superframe boundary, one
# clock per link: non-test Go under internal/ and cmd/ writes
# a `go` statement (`go func` or `go f(`) or holds a sync.WaitGroup only
# in internal/par, and hashes with sha256 only in internal/eventlog. The
# allow-list is one goroutine in each of httpx (the server),
# mosaicfleetd (the epoch ticker) and linksoak (the served soak), and E23's copper
# stall-record hash (records, not a line log). The link supervisor is
# the single owner of the reactive-sparing boundary: nothing calls
# Monitor.FailedChannels or keeps a `handled` map (phy.Link.SpareFailed
# asks the mapper), only faultinject/supervisor.go installs a
# transition-hook closure, only the supervisor formats the remap line,
# and the Poisson gap is drawn only inside internal/netsim
# (FlowSim.OfferPoisson). Capacity renegotiation is a plain Bridge.Sync
# call at that boundary, and nothing is scheduled — links, sessions and
# flows are all stepped with the caller holding the clock: no sim import
# in fleetd/link.go, no sim.Engine/NewEngine/Canceler identifier and no
# .Schedule( or .After( call anywhere, no container/heap in internal/sim,
# no BeginBatch/CommitBatch. There is one stats mirror: a cumulative stat
# becomes a counter by the growth-since-last-sync line in
# internal/telemetry/mirror.go and nowhere else (no other
# `.Add(now - prev)`, no syncDelta helper), every other collector is a row
# table beside the struct it reads — so internal/telemetry names no
# mosaic_fleetd_/mosaic_mac_ series and declares no
# MACStats/MACVCStats/MACCollector or Fleet*Collector type — and capacity
# leaves a mac.Bridge one way, Fraction() (no CapacitySink,
# no DiscardCapacity). Flows are pointer-free slab
# records addressed by handle: non-test internal/netsim names no
# *incFlow, keeps no map[int]*T flow table, sorts flows only as integer
# (ID, handle) keys (no slices.SortFunc comparator over flows), and
# Topology.Path routes from up-link lists built once (no per-route
# `var out []int`). Neither FlowSim nor FleetSim sorts or queues to find
# a completion: a link's flows sit in an ID-ordered index, so
# internal/netsim names no compFlows, noteReRated or reRated list,
# incremental.go (the flush path)
# calls slices.Sort exactly once — the integer-key repair of an index a
# reroute broke — and slices.SortFunc never; and both read finish
# times off the slab, so non-test internal/netsim declares no heap or
# queue type, imports no container/heap and keeps no per-flow version
# counter (`ver`) to invalidate queued entries. A link exchange
# works on bytes with tables that fit in L1: non-test internal/phy names
# no linecode.Block, DecodeBlock, AppendFrameBlocks, AppendExtract or
# dataExtractor (the encode and parse stages go between frame bytes and
# stream bytes through linecode.AppendFrame/AppendIdle/Classify, and
# ScanStream has one decode path), and non-test internal/coding/rs names
# no contrib (the encoder's tables are eight 2 KB slices, not a row per
# data position). Waiting stays inside the runner: only internal/par
# yields with runtime.Gosched or spins on an atomic in a loop condition
# (a second one elsewhere is a second scheduler). A serving link keeps
# its state, not its scratch: phy.Link declares no linkScratch or
# probeScratch field (an exchange or probe borrows one for the call) and
# mac.Pair no ExchangeBuf field (a Tick borrows its arena), and
# newFlowGraph sizes its per-link arrays to its own link range, never to
# the topology (no len(t.Links), no Topology argument). FleetSim.Step
# walks the cross-key list it keeps across epochs and never rebuilds it
# from the slab (no range fs.cross.v in Step). Admission is the shards'
# work, not the caller's: FleetSim.Inject routes and leaves the flow on
# its shards' pending lists (no admit( or addFlow( call in Inject).
# Every link-stack operation has one face, the one the hot path runs:
# non-test internal/phy and internal/mac declare no allocating twin —
# no DecodeStream, SnapshotInto, NewEndpointVC, Send or Transmit, no
# Encode(plain/Decode(encoded FEC method — and the exchange hands its
# frames to no emit callback (no `emit func(frame` in phy/link.go).
# Every count has one owner: a MAC endpoint's aggregate Stats are the
# sum of its VC counters (non-test internal/mac bumps no e.stats twin of
# a VC counter and declares no syncGauges), the telemetry registry keeps
# one metric index (no counters, gauges or hists map field), and the
# soak series are a row table over the Result (no soakMetrics type).
# There is one door into the fleet: no non-test code imports
# container/heap, and fleetd's HTTP routes apply an Op through
# Fleet.Apply (api.go calls no s.fleet.Create/Degrade/Renegotiate/Retire).
# The flow engine's digests hold on every GOARCH: compiled for arm64 with
# -S, internal/netsim (with what it inlines) fuses no multiply into an add
# or subtract — an explicit float64(...) rounds each product first —
# except in invariants.go, whose two tolerance comparisons
# (cap*(1+1e-9)+1 and capacity*(1-1e-9)-1) only bound CheckInvariants'
# verdict and reach no digest; and the compile must print its assembly,
# so a failed build cannot pass.
SUBSTRATE_SRC = find internal cmd -name '*.go' ! -name '*_test.go'
SUPERVISOR = internal/faultinject/supervisor.go
MIRROR = internal/telemetry/mirror.go
FLUSH = internal/netsim/incremental.go
GOROUTINE = '\bgo (func|[A-Za-z_][A-Za-z0-9_.]*\()|sync\.WaitGroup'
FUSED = '\bF(N)?M(ADD|SUB)[SD]\b'
substrate:
	@bad=$$( { $(SUBSTRATE_SRC) ! -path 'internal/par/*' \
			! -path internal/telemetry/httpx/httpx.go ! -path cmd/mosaicfleetd/main.go ! -path cmd/linksoak/main.go \
			-exec grep -nE $(GOROUTINE) {} + ; \
		$(SUBSTRATE_SRC) ! -path 'internal/eventlog/*' ! -path internal/experiments/e23.go \
			-exec grep -nF 'sha256.Sum256(' {} + ; \
		for f in internal/telemetry/httpx/httpx.go cmd/mosaicfleetd/main.go cmd/linksoak/main.go; do \
			[ "$$(grep -cE $(GOROUTINE) $$f)" -le 1 ] || echo "$$f: more than its one goroutine"; \
		done; \
		$(SUBSTRATE_SRC) -exec grep -nE '\.FailedChannels\(|handled[A-Za-z]*[ :=]+(make\()?map\[' {} + ; \
		$(SUBSTRATE_SRC) ! -path $(SUPERVISOR) -exec grep -nF 'SetTransitionHook(func' {} + ; \
		grep -HnF '"mosaic/internal/sim"' internal/fleetd/link.go ; \
		$(SUBSTRATE_SRC) -exec grep -nE '\bsim\.((New)?Engine|Canceler)\b|\.(Schedule|After)\(|\b(Begin|Commit)Batch\b' {} + ; \
		grep -HnE '\b((New)?Engine|Canceler)\b|"container/heap"' internal/sim/*.go ; \
		$(SUBSTRATE_SRC) -path 'internal/telemetry/*' -exec grep -nE '^type (MACStats|MACVCStats|MACCollector|Fleet[A-Za-z]*Collector)\b|"mosaic_(fleetd|mac)_' {} + ; \
		$(SUBSTRATE_SRC) ! -path $(MIRROR) -exec grep -nE '\.Add\([^()]* - |syncDelta\(' {} + ; \
		[ "$$(grep -cE '\.Add\([^()]* - ' $(MIRROR))" -eq 1 ] || echo "$(MIRROR): want exactly one delta-advance line"; \
		grep -rnE --include='*.go' 'CapacitySink|DiscardCapacity' . ; \
		$(SUBSTRATE_SRC) ! -path $(SUPERVISOR) -exec grep -nF '"sf=%d remap %v"' {} + ; \
		$(SUBSTRATE_SRC) ! -path 'internal/netsim/*' -exec grep -nF '.NextGapSec(' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/netsim/*' -exec grep -nE '\*incFlow|map\[int\]\*|SortFunc\(.*func\(a, b \*?(flow|flowSlot|handle)\)' {} + ; \
		grep -HnF 'var out []int' internal/netsim/topology.go ; \
		$(SUBSTRATE_SRC) -path 'internal/netsim/*' -exec grep -nE 'compFlows|noteReRated|reRated' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/netsim/*' -exec grep -nE '^type [A-Za-z]*([Hh]eap|[Qq]ueue)\b|"container/heap"|\bver\b' {} + ; \
		grep -Hn 'slices\.Sort' $(FLUSH) | grep -vF 'slices.Sort(keys)' ; \
		[ "$$(grep -cF 'slices.Sort(keys)' $(FLUSH))" -eq 1 ] || echo "$(FLUSH): want exactly one slices.Sort(keys), the index repair"; \
		$(SUBSTRATE_SRC) -path 'internal/phy/*' -exec grep -nE 'linecode\.Block\b|DecodeBlock|AppendFrameBlocks|AppendExtract|dataExtractor' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/coding/rs/*' -exec grep -nw 'contrib' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/phy/*' -exec awk '/^type Link struct/,/^}/ { if (/linkScratch|probeScratch/) print FILENAME ":" FNR ": " $$0 }' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/mac/*' -exec awk '/^type Pair struct/,/^}/ { if (/ExchangeBuf/) print FILENAME ":" FNR ": " $$0 }' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/netsim/*' -exec awk '/^func newFlowGraph\(/,/^}/ { if (/len\(t\.Links\)|Topology/) print FILENAME ":" FNR ": " $$0 }' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/netsim/*' -exec awk '/^func \(fs \*FleetSim\) Step\(/,/^}/ { if (/range fs\.cross\.v/) print FILENAME ":" FNR ": " $$0 }' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/netsim/*' -exec awk '/^func \(fs \*FleetSim\) Inject\(/,/^}/ { if (/admit\(|addFlow\(/) print FILENAME ":" FNR ": " $$0 }' {} + ; \
		$(SUBSTRATE_SRC) ! -path 'internal/par/*' -exec grep -nE 'runtime\.Gosched|for [^{]*\.(Load|CompareAndSwap)\(' {} + ; \
		$(SUBSTRATE_SRC) \( -path 'internal/phy/*' -o -path 'internal/mac/*' \) -exec grep -nE '^func (\([^)]*\) )?(DecodeStream|SnapshotInto|NewEndpointVC)\(|^func \([^)]*\) (Send|Transmit)\(|(^func \([^)]*\) |^[[:space:]]+)(Encode\(plain|Decode\(encoded)' {} + ; \
		grep -HnF 'emit func(frame' internal/phy/link.go ; \
		$(SUBSTRATE_SRC) -path 'internal/mac/*' -exec grep -nE 'e\.stats\.(PacketsQueued|DataTx|Retransmits|Delivered|Duplicates|Discarded|Reordered|CreditStalls|Timeouts)\b|^func (\([^)]*\) )?syncGauges\(' {} + ; \
		$(SUBSTRATE_SRC) -path 'internal/telemetry/*' -exec grep -nE '^[[:space:]]+(counters|gauges|hists)[[:space:]]+map\[' {} + ; \
		grep -HnE '^type soakMetrics\b' internal/faultinject/*.go ; \
		$(SUBSTRATE_SRC) -exec grep -nF '"container/heap"' {} + ; \
		grep -HnE 's\.fleet\.(Create|Degrade|Renegotiate|Retire)\(' internal/fleetd/api.go ; \
		for pat in 'SetTransitionHook(func' '"sf=%d remap %v"'; do \
			[ "$$(grep -cF "$$pat" $(SUPERVISOR))" -eq 1 ] || echo "$(SUPERVISOR): want exactly one $$pat"; \
		done; \
		asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/netsim 2>&1); \
		echo "$$asm" | grep -q '^mosaic/internal/netsim\..* STEXT' || echo "internal/netsim: the arm64 -S compile printed no assembly"; \
		echo "$$asm" | grep -E $(FUSED) | grep -vF 'internal/netsim/invariants.go:'; } ); \
	if [ -n "$$bad" ]; then \
		echo "substrate: FAIL — use internal/par for fan-out, internal/eventlog for log digests, faultinject.Supervisor for the superframe boundary, a plain Bridge.Sync after its sparing step for renegotiation, a step loop with the caller holding the clock (no scheduler: FlowSim.RunUntil, Session.Step, FleetSim.Step) to drive anything, a telemetry.Row table beside the stats struct (internal/mac for MAC series, internal/fleetd for fleet series; telemetry.Mirror does the delta) for metrics, Bridge.Fraction() to hand capacity to a flow simulator, slab handles, integer sort keys (not flow pointers), ID-ordered link indices (no per-flush sort) and finish times read off the slab (no heap, queue or version counter) in internal/netsim, linecode.AppendFrame/AppendIdle/Classify on the byte stream (no linecode.Block staging, no extract-then-decode fork) in internal/phy, sliced tables (no per-position contrib rows) in internal/coding/rs, internal/par for any wait on another goroutine (no Gosched or atomic spin loop elsewhere), and buffers borrowed for the call (no scratch field on phy.Link, no ExchangeBuf on mac.Pair) with flow graphs sized to their own link range (no len(t.Links) in newFlowGraph), and a cross-key list kept across epochs (no range fs.cross.v key rebuild in FleetSim.Step), and arrivals admitted by their shards in phase A (no admit or addFlow call in FleetSim.Inject), and one face per link-stack operation in internal/phy and internal/mac (no DecodeStream, SnapshotInto, NewEndpointVC, Send, Transmit or FEC Encode/Decode twin, no emit callback in the exchange), and one owner per count (an endpoint's aggregate Stats sum its VC counters, no e.stats twin of a VC counter and no syncGauges in internal/mac; one metric index in the telemetry registry, no counters/gauges/hists map; the soak series a row table over the Result, no soakMetrics), and one door into the fleet (no container/heap import outside tests; the HTTP routes in internal/fleetd/api.go apply an Op through Fleet.Apply, never Create/Degrade/Renegotiate/Retire), and no fused multiply-add on arm64 in internal/netsim outside invariants.go (round the product with float64(...)):"; \
		echo "$$bad"; exit 1; \
	fi; \
	echo "substrate: OK — goroutines only in internal/par, sha256 only in internal/eventlog, sparing/hook/remap line only in the link supervisor, nothing scheduled (no sim.Engine, no Schedule/After call, no batch mode), one stats mirror (no hand-written delta sync, no MAC or fleet collector in telemetry), capacity leaves a bridge through Fraction() only, netsim flows pointer-free, no flush sorts and no completion queue (no heap, no version counter in netsim), a link exchange stages no Blocks and forks no decode path, RS encode tables are sliced, Gosched and spin-waits only in internal/par, a link and a pair hold no per-call scratch, flow graphs are pod-sized, phase B walks a kept cross-key list, Inject admits nothing, phy and mac keep one face per operation, every count has one owner (no endpoint twin of a VC counter, one registry index, no soakMetrics), one door into the fleet (no container/heap, the API's routes go through Fleet.Apply), netsim fuses no FMA on arm64"

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
# exchange's shape (PoolRoundWoken) are pinned allocation-free; E12Degradation gates FlowSim's event loop (five
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
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' -exec wc -l {} + | awk ' \
		$$2 == "total" { next } \
		{ n = split($$2, p, "/"); key = (n == 2) ? "(root)" : p[2]; \
		  if ((key == "internal" || key == "cmd") && n > 3) key = key "/" p[3]; \
		  lines[key] += $$1 } \
		END { for (k in lines) if (k != "benchmark") { total += lines[k]; printf "%7d  %s\n", lines[k], k | "sort -k2"; } \
		  close("sort -k2"); \
		  printf "%7d  total (excluding benchmark)\n%7d  benchmark\n", total, lines["benchmark"] }' | tee LOC.txt
