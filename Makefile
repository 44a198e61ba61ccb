GO ?= go

.PHONY: all test race race-sim race-flight vet lint vet-json bounds bounds-json bounds-check bounds-smoke bench perfbench-test experiments flight-smoke fuzz fuzz-smoke clean

all: vet lint test

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Targeted race pass over the simulator: the work-stealing exploration
# engine and recycler are the repo's only scheduler-side concurrency, so
# this is the fast smoke CI runs on every push. The simtrace invocations
# run the DPOR coverage cross-check (sim.CrossCheckReduction) at smoke
# size on every config: reduced and unreduced exploration must visit the
# same set of Mazurkiewicz trace classes — see docs/exploration.md.
# The counter seeds are chosen so the random workloads draw increments,
# not just reads (the default seed happens to draw all-reads at n=2
# ops=2, which collapses to one trace class and checks nothing): seed 2
# on cas is full=56 reduced=19 classes=16, seed 4 on farray is full=78
# reduced=6 classes=6, and algorithm-a is full=210 reduced=6 (35x).
race-sim:
	$(GO) test -race ./internal/sim/...
	$(GO) run ./cmd/simtrace -object counter -impl cas -n 2 -ops 2 -seed 2 -crosscheck
	$(GO) run ./cmd/simtrace -object counter -impl farray -n 2 -ops 2 -seed 4 -crosscheck
	$(GO) run ./cmd/simtrace -object maxreg -impl algorithm-a -n 2 -ops 2 -crosscheck

# Targeted race pass over the flight recorder: the seqlock rings, hybrid
# clock, and monitor goroutine are the observability layer's only
# lock-free concurrency, plus the facade-level tests that scrape
# /metrics and /debug/history while a recorded workload runs.
race-flight:
	$(GO) test -race ./internal/obs/flight/... ./internal/bench/flightlive/...
	$(GO) test -race -run 'TestFlight|TestBound' .

# Short live run with the flight recorder attached at the default 1/64
# sampling rate: a concurrent workload over all four object families
# through the public facade, failing on any detected linearizability
# violation or a drop rate that says the monitor cannot keep up. See
# docs/flight-recorder.md.
flight-smoke:
	$(GO) run ./cmd/tradeoff -run flight

# gofmt -l exits 0 even when it lists files, so fail explicitly on any
# output.
vet:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# Step-accounting static analysis (modelstep, poolalloc, ctxflow,
# boundedloop, stepbound, atomicprotocol, padalign) — see
# docs/static-analysis.md. The second invocation also fails on
# tradeoffvet: annotations that no analyzer consulted. Also fails when
# the committed bound table is stale (bounds-check).
lint: bounds-check
	$(GO) run ./cmd/tradeoffvet -unused-suppressions ./...

# Machine-readable lint report for CI artifacts, plus the certified
# step-bound table (exit 1 if any declared bound fails to certify).
VET_JSON_OUT ?= tradeoffvet.json
vet-json:
	$(GO) run ./cmd/tradeoffvet -unused-suppressions -format json -out $(VET_JSON_OUT) ./...

# Declared-vs-derived step bound table (tradeoffvet -bounds).
bounds:
	$(GO) run ./cmd/tradeoffvet -bounds ./...

# Regenerate the committed machine-readable bound table that the runtime
# conformance layer embeds (internal/obs/bounds reads this at startup).
# Run after any //tradeoffvet:bound or cost-model change, and commit the
# result with the change that explains it.
bounds-json:
	$(GO) run ./cmd/tradeoffvet -bounds -format json -out dev/bounds/bounds.json ./...

# Freshness gate for the committed bound table: regenerate to a temp
# file and compare byte-for-byte (the generator is deterministic). Fails
# when an annotation change landed without `make bounds-json`, which
# would leave the runtime checking bounds the analyzer no longer
# certifies.
bounds-check:
	@tmp="$$(mktemp)"; \
	$(GO) run ./cmd/tradeoffvet -bounds -format json -out "$$tmp" ./... || { rm -f "$$tmp"; exit 1; }; \
	if ! cmp -s "$$tmp" dev/bounds/bounds.json; then \
		echo "dev/bounds/bounds.json is stale; run 'make bounds-json' and commit the result"; \
		rm -f "$$tmp"; exit 1; \
	fi; \
	rm -f "$$tmp"

# Live bound-conformance smoke: drive all four object families (plus the
# sharded/batched/adaptive counter backends) through the public facade
# and fail on any unexplained exceedance or worst-case violation, then
# round-trip the planted-violation exemplar (latch, dump, re-check).
bounds-smoke:
	$(GO) test -count=1 -run TestBound .

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark's own tests (perfbench/ is a separate Go
# module, so the root `go test ./...` does not reach them): the output
# checks that must fail a run fed a skewed expected count, plus the
# workloads' smoke runs. See perfbench/README.md.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Regenerate every table in EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/tradeoff -format markdown

# Fuzzing session over every fuzz target; FUZZTIME=5s for a quick smoke.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz FuzzMaxRegisterAgreement -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz FuzzMaxRegisterCheckerSoundness -fuzztime $(FUZZTIME) ./internal/history
	$(GO) test -fuzz FuzzCounterCheckerSoundness -fuzztime $(FUZZTIME) ./internal/history

# CI-sized fuzz pass.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

clean:
	$(GO) clean -testcache
