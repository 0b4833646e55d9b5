GO ?= go

.PHONY: build test check bench bench-e21 profile-replay serve-smoke torture clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: gofmt cleanliness, vet, the full test
# suite (which includes the contention and replay smokes,
# TestContentionSmoke and TestReplaySmoke, and the exported-API scan
# TestNoTestOnlyExports, which skips under -short so the race pass does
# not type-check the tree), a race-enabled short pass (the
# engine/runner/chaos tests are where races would hide), fuzz smokes
# over the crash-recovery scanner, the invariant auditor and the packed
# trace format, the golden-audit gate (the quick experiment matrix must
# be conservation-clean under strict audit), the sampling validation
# gate (1/8 set sampling within 2% on every standard machine), the
# uncached exact-replay gates (a replay split into RunFrom pieces must
# be bit-identical to one uninterrupted run on every standard machine,
# and every branch of sim.Run — arena or generator, hot or packed-only
# tier, cold or warm, exact or 1/8-sampled — must match the arena-free
# run, with a cold dynamic run keeping its epoch-0 allocation) and the
# benchmark module's vet and tests (bench/ is its own Go module, so the
# root ./... never compiles it).
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/engine/ ./internal/runner/ ./internal/tracestore/ ./internal/shardlru/ ./internal/sim/ ./internal/sample/ ./internal/checkpoint/ ./internal/faultfs/ ./internal/invariant/ ./internal/jobs/ ./internal/cpu/ ./internal/trace/ ./internal/mem/ ./internal/core/ ./internal/cache/ ./internal/energy/ ./internal/sttram/ ./cmd/mcserved/ ./cmd/mcsweep/
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 5s ./internal/checkpoint/
	$(GO) test -run '^$$' -fuzz FuzzAuditReport -fuzztime 5s ./internal/invariant/
	$(GO) test -run '^$$' -fuzz FuzzPackedRoundTrip -fuzztime 5s ./internal/trace/
	$(GO) test -run TestGoldenAuditQuickMatrix -count=1 ./internal/experiments/
	$(GO) test -run TestSampleValidationQuickMatrix -count=1 ./internal/experiments/
	$(GO) test -run 'TestRunFromSegmentComposition|TestRunSegmentedExact|TestRunArenaMatchesGenerator' -count=1 ./internal/sim/
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
	$(GO) test -run '^$$' -bench BenchmarkPackedReplay -benchtime 2s \
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
# /healthz, /readyz and /metrics, and requires a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

clean:
	$(GO) clean ./...
