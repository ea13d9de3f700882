# Repro/CI targets for the wavedag reproduction. `make verify` is the
# tier-1 gate; `make repro` regenerates the paper's experiments and
# fails when one misses its predicted value; `make benchsmoke` compiles
# and runs every benchmark once so the measurement suite cannot
# silently rot. wavebench/ is the performance benchmark.

GO ?= go

GOFMT ?= gofmt

.PHONY: verify fmtcheck lint benchcheck repro examples fuzzsmoke benchsmoke test

verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmtcheck
	$(GO) test ./...
	$(MAKE) lint
	$(MAKE) benchcheck
	$(MAKE) repro
	$(MAKE) examples

# Fails, listing the files, when any Go file differs from gofmt's output.
fmtcheck:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# wavedaglint enforces the concurrency and admission contracts
# (lockfree, publish, poolpair, errwrap, registry — see the "Static
# analysis & invariants" section of the package docs). Exit 1 with
# file:line diagnostics on any violation.
lint:
	$(GO) run ./cmd/wavedaglint ./...

# The benchmark in wavebench/ is a module of its own, so the root
# ./... patterns skip it: without this target a change to an API it
# imports passes the gate while the benchmark stops building. The
# module's replace directive points at this checkout, so it needs no
# network.
benchcheck:
	$(GO) -C wavebench vet ./...
	$(GO) -C wavebench test ./...

# Every paper experiment (E1–E13) against its predicted value: exits
# non-zero when a measured value misses the paper's.
repro:
	$(GO) run ./cmd/repro

# Runs every program under examples/. Each checks its own results and
# exits non-zero when one is wrong; each finishes in about a second.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Ten seconds per fuzz target: enough to exercise the generators and
# the oracles on every CI run without turning the gate into a soak.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzTheorem1Precheck -fuzztime=10s ./internal/wdm
	$(GO) test -run=NONE -fuzz=FuzzProvisionOracle -fuzztime=10s ./internal/wdm
	$(GO) test -run=NONE -fuzz=FuzzPartitionRegions -fuzztime=10s ./internal/digraph
	$(GO) test -run=NONE -fuzz=FuzzMinLoadPath -fuzztime=10s ./internal/route
	$(GO) test -run=NONE -fuzz=FuzzIncrementalOps -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzTheorem1Peel -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzFaultSchedule -fuzztime=10s ./internal/gen
	$(GO) test -run=NONE -fuzz=FuzzRequestPools -fuzztime=10s ./internal/gen

test: verify

# Every benchmark once, at two GOMAXPROCS settings, so neither the
# measurement suite nor the concurrent paths it drives (engine fan-out,
# region/overlay reconcile, admission, storms, snapshot reads, the serve
# coalescer, adaptive re-layout) can silently rot.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -cpu=1,4 ./...
