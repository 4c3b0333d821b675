GO ?= go

.PHONY: check build test vet fmt lint lint-self lint-fixtures lint-fixtures-verify race perfbench-test bench parbench bench-parallel bench-hotpath bench-compare bench-dse profile trace-fixtures chaos fuzz serve-smoke dist-smoke dse-smoke

# check is the tier-1 gate: formatting, static analysis (vet and
# besst-lint, including the analyzer linting itself and its golden
# fixtures verified against the committed tree), build, the
# race-enabled internal test suite (the parallel tiers are only trusted
# under -race), the perfbench module's result-digest and generator
# tests, the observability fixtures, the campaign-resilience
# chaos/crash suite, the simulation-service smoke gate, the
# distributed-execution smoke gate (real worker processes, one
# chaos-killed mid-run), the surrogate-search smoke gate (memo-warm
# re-search must be byte-identical), and the hot-path,
# parallel-scaling, and search-quality bench-regression gates.
check: fmt vet lint lint-self lint-fixtures-verify build race perfbench-test trace-fixtures chaos serve-smoke dist-smoke dse-smoke bench-compare bench-parallel bench-dse

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs besst-lint's determinism and DES invariant checks over the
# whole module; the committed tree must produce zero findings.
lint:
	$(GO) run ./cmd/besst-lint ./...

# lint-self holds the analyzer to its own standards: besst-lint runs
# over internal/lint with every check enabled.
lint-self:
	$(GO) run ./cmd/besst-lint ./internal/lint

# lint-fixtures exercises the analyzer itself against its golden
# fixture packages (add -update after editing a check or fixture).
lint-fixtures:
	$(GO) test ./internal/lint -run 'TestGolden|TestSuppression|TestSubsetRun|TestDeterministic' -v

# lint-fixtures-verify regenerates the golden files and fails if the
# committed testdata no longer matches what the checks produce — the
# goldens cannot drift from the analyzer silently.
lint-fixtures-verify:
	$(GO) test ./internal/lint -run TestGolden -update
	git diff --exit-code -- internal/lint/testdata

race:
	$(GO) test -race ./internal/...

# perfbench-test runs the separate perfbench module's tests: its
# result-digest checks pin the seed-1 campaign results byte for byte,
# so a refactor that drifts any result fails here.
perfbench-test:
	cd perfbench && $(GO) test ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# parbench regenerates results/BENCH_parallel.json (serial vs parallel
# Monte Carlo replication and DSE sweep timings; speedup scales with
# available cores). GOMAXPROCS
# is pinned to >= max(4, workers) inside the harness; on machines with
# too few CPUs the report records scaling_valid=false.
parbench: build
	$(GO) run ./cmd/besst-bench -parbench -workers 0

# bench-parallel is the parallel-scaling regression gate: a fresh
# parbench report (gitignored) is diffed against the committed
# results/BENCH_parallel.json and the target fails on ns/op growth
# beyond the tolerance, serial/parallel divergence, or — on
# scaling-capable hardware — parallel speedup dropping below the
# committed baseline. The parbench tiers are whole-campaign macro
# benchmarks whose absolute timings swing >10% run-to-run on a loaded
# shared runner (benchdiff's default), so the gate here runs at 25%:
# wide enough to stay deterministic in `make check`, tight enough to
# catch real regressions. The speedup floor is ratio-based and
# unaffected by the widened ns/op band.
bench-parallel: build
	$(GO) run ./cmd/besst-bench -parbench -workers 0 -parbench-out results/BENCH_parallel_fresh.json
	$(GO) run ./cmd/benchdiff -parallel -tol 25

# bench-hotpath regenerates results/BENCH_hotpath.json, the
# allocation-sensitive hot-path measurements (raw DES dispatch plus the
# Monte Carlo and DSE macro tiers). The file is gitignored; commit its
# contents to results/BENCH_hotpath_baseline.json to move the gate.
bench-hotpath: build
	$(GO) run ./cmd/besst-bench -hotpath

# bench-compare is the bench-regression gate: fresh hot-path numbers
# are diffed against the committed baseline and the target fails on
# >10% ns/op growth or ANY allocs/op growth.
bench-compare: bench-hotpath
	$(GO) run ./cmd/benchdiff

# bench-dse is the surrogate-search quality gate: a fresh search run on
# a small grid (gitignored report) is diffed against the committed
# results/BENCH_dse_baseline.json and the target fails when the search
# fully simulates more points than the baseline, the optimality gap vs
# the exhaustive sweep grows past the slack, or a memo-warm re-search
# stops reproducing the cold result byte-for-byte.
bench-dse: build
	$(GO) run ./cmd/besst-bench -dse
	$(GO) run ./cmd/benchdiff -dse

# trace-fixtures runs the observability golden fixtures: trace-buffer
# pairing, Chrome trace and metrics document round-trips, and the
# instrumentation-leaves-results-identical gates.
trace-fixtures:
	$(GO) test ./internal/obs ./internal/des ./internal/besst \
		-run 'Trace|Metrics|Tracer|Collector|Instrumentation|Observability' -v

# chaos exercises the campaign fault envelope end to end: deterministic
# panic/delay injection through the retry and quarantine machinery, and
# the SIGKILL-mid-campaign resume test asserting byte-identical output.
chaos:
	$(GO) test -race ./internal/resilience -run 'Chaos|KillAndResume|Resume|Retries|Watchdog' -v

# serve-smoke boots the besst-serve daemon in-process, runs the README
# quickstart campaign twice over real HTTP, and gates on the service
# invariants: byte-identical cold/warm result bodies, a compile-cache
# hit on the second identical request (visible in /v1/statz), and an
# exact match against the committed golden result document. Regenerate
# the golden with:
#   go run ./cmd/besst-serve -smoke -golden results/GOLDEN_serve_smoke.json -update-golden
serve-smoke: build
	$(GO) run ./cmd/besst-serve -smoke -golden results/GOLDEN_serve_smoke.json

# dist-smoke is the distributed-execution gate: the coordinator runs
# the quickstart campaign over three real besst-worker processes across
# a matrix of shard counts and replication degrees — one worker
# chaos-configured to SIGKILL itself mid-shard — and every merged
# result must be byte-identical to the single-process reference and to
# the committed serve golden, with the worker loss actually observed
# (retries > 0, workers lost > 0).
dist-smoke: build
	$(GO) run ./cmd/besst-worker -smoke -golden results/GOLDEN_serve_smoke.json

# dse-smoke is the surrogate-search service gate: the pinned search
# campaign runs twice against an in-process besst-serve and the target
# fails unless the warm run hits the point memo and both result bodies
# are byte-identical.
dse-smoke: build
	$(GO) run ./cmd/besst-serve -smoke-dse

# fuzz runs the short corruption fuzzers: the checkpoint-journal reader
# (torn tails, garbage lines), the AppBEO JSON decoder, and the
# symbolic-regression model decoder (accepted models must Predict).
fuzz:
	$(GO) test ./internal/resilience -run xxx -fuzz FuzzReadJournal -fuzztime 20s
	$(GO) test ./internal/beo -run xxx -fuzz FuzzAppBEOJSON -fuzztime 20s
	$(GO) test ./internal/symreg -run xxx -fuzz FuzzFittedJSON -fuzztime 20s

# profile captures a full observability bundle from a small DES run:
# CPU and heap profiles, a Chrome trace, and the run-metrics document,
# all under results/.
profile: build
	$(GO) run ./cmd/besst-sim -mode des -epr 5 -ranks 8 -steps 20 -mc 4 -samples 3 \
		-cpuprofile results/cpu.pprof -memprofile results/heap.pprof \
		-trace results/trace.json -metrics results/
	@echo "wrote results/cpu.pprof results/heap.pprof results/trace.json results/METRICS_besst-sim.json"
