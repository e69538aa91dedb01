GO ?= go

# The tier-1 benchmarks the regression gate watches: the end-to-end
# query, the enumeration and LP hot paths, and the simulator kernels.
TIER1_BENCH = ^(BenchmarkAvailableBandwidthQuery|BenchmarkEnumerateScenarioII|BenchmarkSolveEq6Shape|BenchmarkRunScheduleScenarioII|BenchmarkRunFlowsScenarioII|BenchmarkCSMAScenarioI|BenchmarkAdmitSequenceCold|BenchmarkAdmitSequenceWarm|BenchmarkAdmitSequenceDelta)$$
BENCH_COUNT ?= 5
BENCH_JSON ?= BENCH_$(shell date -u +%Y-%m-%d).json

.PHONY: all build test vet lint lint-fix vuln hooks fuzz race bench bench-smoke bench-json bench-gate golden check e2e cover cover-gate perfbench-test

all: check

build:
	$(GO) build ./...

# go vet with its default analyzer set, which already includes the
# opt-in-sounding ones that matter here (-unsafeptr, -atomic, -copylocks
# all default to true); no -vettool extras are available stdlib-only.
vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/lint via cmd/abwlint): the
# DESIGN.md Sec. 8 determinism/numerics/concurrency invariants plus the
# interprocedural ctx/error/lock-guard rules of Sec. 13, over library
# and _test.go code alike. `abwlint -list` names the rules; `make
# lint-fix` applies the suggested fixes in place.
lint:
	$(GO) run ./cmd/abwlint ./...

lint-fix:
	$(GO) run ./cmd/abwlint -fix ./...

# Bounded native fuzzing of the LP solver (cold solves, warm resolves
# against cold ones, and solves from a start basis against two-phase
# ones), enumeration (both walks against the
# brute-force reference), delta enumeration (grown families against
# full walks), the set order (conflict.CompareCouples is a total order),
# the netjson codec, the memo cache (key
# fingerprint, on-disk family format, and grows through the cache
# against full walks), and the admission session (a cache-backed
# Session.Background against a cold background solve over admit,
# delete and query steps, under physical, table and fixed-rate
# models); CI runs the same targets for 30s each.
# FuzzGrowMatchesEnumerate caps minimizing at 2s per input: its decoder
# reads many inputs as new coverage, and minimizing each of them for
# the default minute leaves little of the budget for new sequences.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSimplex -fuzztime=$(FUZZTIME) ./internal/lp/
	$(GO) test -run='^$$' -fuzz=FuzzWarmResolve -fuzztime=$(FUZZTIME) ./internal/lp/
	$(GO) test -run='^$$' -fuzz=FuzzSolveFrom -fuzztime=$(FUZZTIME) ./internal/lp/
	$(GO) test -run='^$$' -fuzz='^FuzzEnumerate$$' -fuzztime=$(FUZZTIME) ./internal/indepset/
	$(GO) test -run='^$$' -fuzz=FuzzEnumerateDelta -fuzztime=$(FUZZTIME) ./internal/indepset/
	$(GO) test -run='^$$' -fuzz=FuzzSetOrder -fuzztime=$(FUZZTIME) ./internal/conflict/
	$(GO) test -run='^$$' -fuzz=FuzzNetjson -fuzztime=$(FUZZTIME) ./internal/netjson/
	$(GO) test -run='^$$' -fuzz=FuzzCacheKey -fuzztime=$(FUZZTIME) ./internal/memo/
	$(GO) test -run='^$$' -fuzz=FuzzStoreRoundTrip -fuzztime=$(FUZZTIME) ./internal/memo/
	$(GO) test -run='^$$' -fuzz=FuzzGrowMatchesEnumerate -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/memo/
	$(GO) test -run='^$$' -fuzz=FuzzSessionMatchesCold -fuzztime=$(FUZZTIME) ./internal/core/

test:
	$(GO) test ./...

# perfbench is a module of its own (perfbench/go.mod), so `go test ./...`
# skips it. Its self-tests (replay == HTTP answers, the workloads'
# exercise assertions) are what ties the benchmark to the handler.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Known-CVE scan of the (stdlib-only) dependency surface, pinned so CI
# and local runs agree on the database client. Gating in CI.
GOVULNCHECK_VERSION ?= v1.1.4
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Install scripts/precommit.sh as the git pre-commit hook: gofmt + vet
# + abwlint over the packages the commit touches.
hooks:
	install -m 0755 scripts/precommit.sh .git/hooks/pre-commit
	@echo "installed .git/hooks/pre-commit"

race:
	$(GO) test -race ./...

# Full benchmark run with allocation stats.
bench:
	$(GO) test -bench=. -benchmem ./...

# Quick smoke pass over every benchmark: one iteration each, -short, so
# CI notices a benchmark that panics or regresses into an error path
# without paying for a full measurement run.
bench-smoke:
	$(GO) test -short -run=^$$ -bench=. -benchtime=1x ./...

# Run the tier-1 benchmarks BENCH_COUNT times each and snapshot the
# samples as $(BENCH_JSON) — commit the file to refresh the baseline.
bench-json:
	$(GO) test -run '^$$' -bench '$(TIER1_BENCH)' -benchmem -count $(BENCH_COUNT) ./... \
		| $(GO) run ./cmd/abwbench parse -o $(BENCH_JSON)
	@echo wrote $(BENCH_JSON)

# Fresh tier-1 run judged against the newest committed baseline: fails
# on a >15% median ns/op regression significant at p<0.05.
bench-gate:
	@base=$$(ls BENCH_*.json | sort | tail -1); \
	if [ -z "$$base" ]; then echo "bench-gate: no committed BENCH_*.json baseline" >&2; exit 1; fi; \
	echo "gating against $$base"; \
	$(GO) test -run '^$$' -bench '$(TIER1_BENCH)' -benchmem -count $(BENCH_COUNT) ./... \
		| $(GO) run ./cmd/abwbench parse -o /tmp/abw-bench-fresh.json && \
	$(GO) run ./cmd/abwbench compare -old $$base -new /tmp/abw-bench-fresh.json

# Regenerate the committed golden experiment tables in place; CI diffs
# the result against the tree to catch silent output drift.
golden:
	$(GO) test -run TestGoldenTables ./internal/experiments/ -update

# End-to-end daemon exercise: build abwd, boot it on a chain scenario
# with a cache spill and a query deadline, drive the HTTP API with
# curl, SIGTERM it, and assert a clean drain with a flushed cache dir.
e2e:
	./scripts/e2e.sh

# Statement coverage over every package, and the committed floor the
# cover-gate enforces. Raise the floor when coverage durably improves;
# never lower it to merge.
COVER_PROFILE ?= /tmp/abw-cover.out
COVER_FLOOR ?= 80.0

cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@$(GO) tool cover -func=$(COVER_PROFILE) | tail -1

cover-gate: cover
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	echo "cover-gate: total $$total% (floor $(COVER_FLOOR)%)"; \
	ok=$$(awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { print (t + 0 >= f + 0) ? "yes" : "no" }'); \
	if [ "$$ok" != yes ]; then \
		echo "cover-gate: coverage $$total% fell below the committed floor $(COVER_FLOOR)%" >&2; \
		exit 1; \
	fi

# The gate run in CI: vet + lint + build + race tests + benchmark smoke.
check: vet lint build race bench-smoke
