GO ?= go

.PHONY: check build test vet fmt lint lint-self lint-fixtures lint-fixtures-verify race perfbench-test exp-verify bench-compare profile trace-fixtures chaos fuzz

# check is the tier-1 gate: formatting, static analysis (vet and
# besst-lint, including the analyzer linting itself and its golden
# fixtures verified against the committed tree), build, the
# race-enabled internal test suite (the parallel tiers are only trusted
# under -race; it holds the distributed byte-identity gate, which
# builds besst-worker and runs the quickstart campaign over real worker
# processes, one chaos-killed mid-shard, and the service checks over
# real HTTP: TestClientRoundTrip diffs the quickstart against its
# golden and requires a compile-cache hit on the re-post,
# TestSearchCampaign requires memo hits on the warm surrogate search),
# the perfbench module's result-digest and generator tests, the full
# paper-experiment output against its archive, the observability
# fixtures, the campaign-resilience chaos/crash suite, and the
# benchmark-ledger regression gate.
check: fmt vet lint lint-self lint-fixtures-verify build race perfbench-test exp-verify trace-fixtures chaos bench-compare

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

# exp-verify is the byte-identity gate over the paper reproduction:
# besst-exp at full settings (every table, Figs 1 and 5-9, and the
# extensions) must print exactly the archived results/besst-exp-full.txt.
# The output does not depend on GOMAXPROCS. After a deliberate result
# change, regenerate the archive with:
#   go run ./cmd/besst-exp > results/besst-exp-full.txt
exp-verify: build
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/besst-exp > "$$out" && cmp "$$out" results/besst-exp-full.txt

# bench-compare is the benchmark-ledger gate: besst-bench -ledger runs
# every registry entry in internal/ledger once, writes the gitignored
# results/BENCH.json, and fails on any regression against the committed
# results/BENCH_baseline.json: ns/op beyond +10%, any allocs/op growth,
# more full simulations or a wider optimality gap (+0.5 points) from
# the surrogate search, a memo-warm re-search that misses the memo or
# stops reproducing the cold result bytes, or a missing entry.
bench-compare: build
	$(GO) run ./cmd/besst-bench -ledger

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

# fuzz runs the short corruption fuzzers: the checkpoint-journal reader
# (torn tails, garbage lines), the design-point memo journal (every
# whole decodable line restored, a fresh key survives close and
# reopen), the AppBEO JSON decoder, the
# symbolic-regression model decoder (accepted models must Predict), the
# serve request canonicalizer (canonical forms are fixed points and
# hash to the input's campaign ID), the serve request planner (every
# rejection is a 400-class error, every accepted plan has bounded
# trials and at least one work unit), the DES event queue (every
# delivery in (Time, seq) order against a sorted reference), DES mode
# against its lockstep fold on random programs (byte-equal results and
# the fold's count of delivered events), the screened per-rank maximum
# (stats.RNG.MaxNormal against the per-draw loop: result bits,
# generator state and the draws after it), and the
# GP column fitness over datasets with repeated input rows (MAPE bits
# against the row-wise Node.Eval reference).
fuzz:
	$(GO) test ./internal/resilience -run xxx -fuzz FuzzReadJournal -fuzztime 20s
	$(GO) test ./internal/dse -run xxx -fuzz FuzzMemoJournal -fuzztime 20s
	$(GO) test ./internal/beo -run xxx -fuzz FuzzAppBEOJSON -fuzztime 20s
	$(GO) test ./internal/symreg -run xxx -fuzz FuzzFittedJSON -fuzztime 20s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzCanonicalJSON -fuzztime 20s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzBuildPlan -fuzztime 20s
	$(GO) test ./internal/des -run xxx -fuzz FuzzEventQueue -fuzztime 20s
	$(GO) test ./internal/besst -run xxx -fuzz FuzzDESFold -fuzztime 20s
	$(GO) test ./internal/stats -run xxx -fuzz FuzzMaxNormal -fuzztime 20s
	$(GO) test ./internal/symreg -run xxx -fuzz FuzzColumnFitness -fuzztime 20s

# profile captures a full observability bundle from a small DES run:
# CPU and heap profiles, a Chrome trace, and the run-metrics document,
# all under results/.
profile: build
	$(GO) run ./cmd/besst-sim -mode des -epr 5 -ranks 8 -steps 20 -mc 4 -samples 3 \
		-cpuprofile results/cpu.pprof -memprofile results/heap.pprof \
		-trace results/trace.json -metrics results/
	@echo "wrote results/cpu.pprof results/heap.pprof results/trace.json results/METRICS_besst-sim.json"
