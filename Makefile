GO ?= go

.PHONY: build test check bench bench-e21 profile-replay serve-smoke torture clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: gofmt cleanliness, vet, the full test
# suite (which includes the replay smoke TestReplaySmoke and the
# exported-API scan TestNoTestOnlyExports, which skips under -short so
# the race pass does not type-check the tree), a race-enabled short
# pass (the engine/runner/chaos tests are where races would hide), fuzz
# smokes over the crash-recovery scanner, the invariant auditor, the packed
# trace format and the stored front output, the golden-audit gates (the
# quick experiment matrix must be conservation-clean, and under a
# report-miscounting tamper every experiment that builds its own
# machine — E4, E9, E10, E11, E20 — must fail with the violated
# invariant), the sampling validation
# gate (1/8 set sampling within 2% on every standard machine), the
# uncached exact-replay gates (the front stage's output — every
# frame's events, busy cycles and L1 meter counts — must equal a
# reference front built on standalone LRU caches at every L1
# associativity from 1 to 32 ways, prefetcher off and on; under every
# replacement policy the cache's tags and seqs arrays
# must agree on which slots are valid, and every powered valid line's
# rebuilt block address must probe back to its own slot, the address
# space's top block included; a replay split into RunFrom pieces must
# be bit-identical to one uninterrupted run on every standard machine;
# every branch of sim.Run — arena or generator, an arena that keeps
# every front output or one that keeps none, cold or warm,
# exact or 1/8-sampled, standard machines and prefetch-on, idle and
# wide-L1 ones — must match the arena-free run, with a cold dynamic
# run keeping its epoch-0 allocation; whole reports, through a stored
# front-stage output and through the pipelined stages, must hash to
# digests recorded before the front/back split; replays that differ in
# one front-key field, run back to back on one arena, must each match
# their arena-free run; and the standard machines on three apps, exact
# and 1/8-sampled, must leave exactly their six front outputs in the
# arena, charged at their own sizes; and the L2-level stream read from a
# front output must number each standard machine's L2 accesses per
# domain, prefetcher off and on, and through a standalone LRU cache
# reproduce baseline-sram's L2 hits and misses) and the benchmark
# module's vet and tests (bench/ is its own Go module, so the root
# ./... never compiles it).
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/engine/ ./internal/runner/ ./internal/tracestore/ ./internal/lru/ ./internal/sim/ ./internal/sample/ ./internal/checkpoint/ ./internal/faultfs/ ./internal/invariant/ ./internal/jobs/ ./internal/cpu/ ./internal/trace/ ./internal/mem/ ./internal/core/ ./internal/cache/ ./internal/energy/ ./internal/sttram/ ./cmd/mcserved/ ./cmd/mcsweep/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 5s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzAuditReport -fuzztime 5s ./internal/invariant/
	$(GO) test -run '^$$' -fuzz FuzzPackedRoundTrip -fuzztime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzFrontOutputRoundTrip -fuzztime 5s ./internal/mem/
	$(GO) test -run 'TestGoldenAuditQuickMatrix|TestHandBuiltRunsAudited' -count=1 ./internal/experiments/
	$(GO) test -run TestSampleValidationQuickMatrix -count=1 ./internal/experiments/
	$(GO) test -run TestAccessFrameMatchesCacheModel -count=1 ./internal/mem/
	$(GO) test -run 'TestSidecarsMirrorLines|TestTopOfAddressSpace' -count=1 ./internal/cache/
	$(GO) test -run 'TestRunFromSegmentComposition|TestRunSegmentedExact|TestRunArenaMatchesGenerator|TestRunReportDigests|TestFrontKeyAliasing|TestArenaHoldsOnlyFrontOutputs|TestL2StreamMatchesBackStage' -count=1 ./internal/sim/
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench runs the repository benchmark (bench/, described by
# BENCHMARK.json) once per workload with its default seed and window;
# each run prints a host line and a result line of end-to-end metrics.
BENCH_WORKLOADS = sweep-shared sweep-unique sweep-sampled daemon-jobs

bench:
	@for w in $(BENCH_WORKLOADS); do bash bench/run.sh --workload $$w || exit 1; done

# profile-replay captures a CPU profile of the replay benchmark and
# dumps the pprof top table into results/ — the artifact the README's
# profiling notes and DESIGN.md's kernel-floor analysis reference.
profile-replay:
	@mkdir -p results
	$(GO) test -run '^$$' -bench BenchmarkReplay -benchtime 2s \
		-cpuprofile results/replay.prof -o results/replay.test .
	$(GO) tool pprof -top -nodecount 20 results/replay.test results/replay.prof \
		| tee results/replay_pprof_top.txt

# bench-e21 regenerates the retention-fault sensitivity sweep.
bench-e21:
	$(GO) test -bench=BenchmarkE21RetentionFaults -benchmem

# torture is the crash-consistency harness: it enumerates every
# filesystem op of a checkpointed sweep and of the daemon job
# lifecycle, injects ENOSPC / fsync-EIO / short writes / simulated
# power loss at each one, reboots onto healthy storage and requires a
# byte-identical CSV or a structured error — never a silent partial.
# Race-enabled and bounded (single-digit seconds).
torture:
	$(GO) test -race -count=1 ./internal/faultfs/ ./internal/faultfs/torture/

# serve-smoke boots cmd/mcserved against a scratch store, submits a
# tiny sweep over HTTP, streams the results, downloads the CSV, checks
# /healthz, /readyz and /metrics, and requires a clean SIGTERM drain;
# then it drives a full-disk episode and a per-cell deadline episode.
serve-smoke:
	sh scripts/serve_smoke.sh

clean:
	$(GO) clean ./...
