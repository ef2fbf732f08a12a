GO ?= go

.PHONY: ci build test vet race short fuzz bench bench-train bench-score bench-serve serve-smoke train-smoke score-diff fmt serve-chaos crash-chaos obs-smoke loadgen-smoke metrics-lint

# ci is the full gate: formatting and static analysis, a clean build of
# every package and the test suite under the race detector, plus a smoke
# pass over the training-path differential tests, a one-iteration spin of
# the training benchmarks so a broken fast path fails fast, the compiled
# scoring-kernel differential suite, a soak of the serving chaos suite,
# the crash-recovery suite, a one-iteration spin of the serving
# throughput benchmark, an end-to-end scrape of the observability
# surfaces, a short open-loop load-generator run against a live server,
# and the metrics naming/statz-drift lint.
ci: fmt vet build race train-smoke score-diff serve-chaos crash-chaos serve-smoke obs-smoke loadgen-smoke metrics-lint

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# serve-chaos soaks the scoring-service chaos tests (overload bursts,
# corrupt reloads, slow/aborted clients, drain) under the race detector;
# -count=3 reruns shake out timing-dependent flakes.
serve-chaos:
	$(GO) test -race -run 'TestChaos' -count=3 -timeout 120s ./internal/serve/...

# crash-chaos proves crash safety end to end: real `cfa serve` processes
# are SIGKILLed mid-load and restarted against their last checkpoint
# (verdict continuity, cold-start accounting, torn-file recovery), and the
# failpoint-driven recovery tests (checkpoint write failures, reload and
# admission injection) soak under the race detector.
crash-chaos:
	$(GO) test -count=2 -run 'TestCrashRecovery' -timeout 300s ./cmd/cfa/
	$(GO) test -race -count=2 -timeout 180s \
		-run 'TestCheckpoint|TestRunRestores|TestRunPeriodic|TestChaosHungHandler|TestChaosReloadFailpoint|TestChaosAdmit|TestDecodeCheckpoint' \
		./internal/serve/
	$(GO) test -race -count=2 -timeout 60s ./internal/failpoint/

# loadgen-smoke boots the scoring service on an ephemeral port and runs
# cfa loadgen against it end to end: a 2s open-loop measurement, an
# audit-trace replay and a closed-loop pass, asserting non-zero goodput,
# zero transport errors and a clean drain.
loadgen-smoke:
	$(GO) test -run TestLoadgenSmoke -count 1 -timeout 120s ./cmd/cfa/

# obs-smoke boots the scoring service on ephemeral ports and scrapes
# /metrics, the pprof surface and the /flightz flight-recorder dump end
# to end, then replays the registry encoder golden tests and the
# concurrency hammer under the race detector.
obs-smoke:
	$(GO) test -run TestObsSmoke -count 1 ./cmd/cfa/
	$(GO) test -race -count 1 ./internal/obs/

# metrics-lint pins the observability naming contract: every registered
# metric is cfa_-prefixed snake_case with help text (counters end in
# _total), and every counter /statz reports maps to a live registry
# metric present in the Prometheus exposition.
metrics-lint:
	$(GO) test -run 'TestMetricNamesLint|TestStatzFieldsBackedByRegistryMetrics' \
		-count 1 ./internal/serve/

# score-diff re-runs the compiled-kernel differential suites under the
# race detector: each learner's flat form against its pointer-walking
# reference (the fused Naive Bayes ensemble against every member model,
# and its refusal of malformed tables), plus the end-to-end
# Score/ScoreEvents/ScoreAll fuzz, the stale-compile invalidation
# regression and the kernel-measured normal levels in internal/core.
score-diff:
	$(GO) test -race -run 'TestCompiledDifferential|TestEnsemble' -count 1 ./internal/ml/...
	$(GO) test -race -run 'TestScoreKernelDifferential|TestCompileInvalidation|TestNormalLevelsMatchReference' \
		-count 1 ./internal/core/

# train-smoke re-runs the columnar-vs-naive differential tests and gives
# each training benchmark a single iteration; it exists so `make ci`
# exercises the benchmark bodies without paying for a full measurement.
train-smoke:
	$(GO) test -run TestColumnarDifferential -count 1 ./internal/ml/...
	$(GO) test -run '^$$' -bench '^Benchmark(C45Fit|RipperFit|NBFit|CoreTrain)$$' -benchtime 1x .

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. The experiment studies
# dominate the runtime; use `make short` for a quick pass.
race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# bench runs the root benchmark suite three times with allocation stats and
# records the raw output in a dated BENCH_<date>.json next to this Makefile,
# followed by the stage timings of a quick-preset experiments run (the run
# manifest from -trace). Compare runs with `benchstat` if available, or
# diff the ns/op columns and the manifest stage wall-times.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 3 . | tee BENCH_$$(date +%Y%m%d).json
	$(GO) run ./cmd/experiments -preset quick -only figure3 \
		-trace BENCH_$$(date +%Y%m%d).stages.json >/dev/null
	cat BENCH_$$(date +%Y%m%d).stages.json >> BENCH_$$(date +%Y%m%d).json
	rm -f BENCH_$$(date +%Y%m%d).stages.json

# bench-train measures only the learner training paths (per-learner Fit and
# the end-to-end core.Train ensemble) on the paper-shaped synthetic audit
# dataset. Append the output to the dated BENCH file when recording a
# before/after for a training-path change.
bench-train:
	$(GO) test -run '^$$' -bench '^Benchmark(C45Fit|RipperFit|NBFit|CoreTrain)$$' -benchmem -count 3 .

# bench-score measures only the inference paths on the same dataset: the
# per-record pointer-walking reference (BenchmarkAnalyzerScore) against
# the compiled batch path (BenchmarkScoreAll) and the compiled
# one-record-per-call path single-record serving runs
# (BenchmarkScoreEvents), plus each learner's predict kernels. Append the output to the dated BENCH file
# when recording a before/after for a scoring-path change.
bench-score:
	$(GO) test -run '^$$' -timeout 30m \
		-bench '^Benchmark(AnalyzerScore|ScoreAll|ScoreEvents|C45Predict|RipperPredict|NBPredict)$$' \
		-benchmem -count 3 .

# bench-serve measures end-to-end serving throughput over real HTTP:
# per-record /v1/score against /v1/score-batch at 1, 4 and 16 stream
# shards, reporting records/sec plus server-side p50/p99 latency from
# the obs histograms, followed by the goodput-vs-offered-load sweep:
# cfa loadgen drives 1x/2x/4x of the calibrated peak in open loop with
# adaptive overload control on and then off. The output is appended to
# the dated BENCH file so a before/after for a serving-path change lands
# next to the kernel numbers.
bench-serve:
	$(GO) test -run '^$$' -bench '^BenchmarkServeThroughput$$' -count 3 \
		-timeout 30m ./internal/serve/ | tee -a BENCH_$$(date +%Y%m%d).json
	CFA_LOADGEN_SWEEP=1 $(GO) test -run TestLoadgenSweep -count 1 -v \
		-timeout 20m ./cmd/cfa/ | tee -a BENCH_$$(date +%Y%m%d).json

# serve-smoke gives every serving-throughput benchmark case a single
# iteration so `make ci` exercises the batch and per-record HTTP paths at
# each shard count without paying for a full measurement.
serve-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkServeThroughput$$' -benchtime 1x \
		./internal/serve/

# fuzz gives each fuzz target a brief budget beyond its seed corpus.
fuzz:
	$(GO) test ./internal/features/ -fuzz FuzzTransformValue -fuzztime 10s
	$(GO) test ./internal/features/ -fuzz FuzzReadCSV -fuzztime 10s
