# Repro/CI targets for the wavedag reproduction. `make verify` is the
# tier-1 gate; `make repro` regenerates the paper's experiments and
# fails when one misses its predicted value; `make benchsmoke` compiles
# and runs every benchmark once so the measurement suite cannot
# silently rot. wavebench/ is the performance benchmark.

GO ?= go

GOFMT ?= gofmt

.PHONY: verify fmtcheck lint race benchcheck wavebenchsmoke repro examples fuzzsmoke benchsmoke test

verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmtcheck
	$(GO) test ./...
	$(MAKE) lint
	$(MAKE) race
	$(MAKE) benchcheck
	$(MAKE) repro
	$(MAKE) examples

# Fails, listing the files, when any Go file differs from gofmt's output.
fmtcheck:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# wavedaglint enforces the concurrency and error contracts (lockfree,
# publish, poolpair, errwrap — see the "Static analysis & invariants"
# section of the package docs). Exit 1 with file:line diagnostics on
# any violation.
lint:
	$(GO) run ./cmd/wavedaglint ./...

# Runs the tests of the facade, the engine, the serving front-end and
# online grooming under the race detector: engine shards run on worker
# goroutines and share the strategy values their sessions were opened
# with.
race:
	$(GO) test -race ./ ./internal/wdm ./internal/serve ./internal/groom

# The benchmark in wavebench/ is a module of its own, so the root
# ./... patterns skip it: without this target a change to an API it
# imports passes the gate while the benchmark stops building. The
# module's replace directive points at this checkout, so it needs no
# network.
benchcheck:
	$(GO) -C wavebench vet ./...
	$(GO) -C wavebench test ./...

# Runs every wavebench workload for one second, untraced and then
# traced. wavebench exits 1 when a run breaks a correctness check, so a
# change that breaks a workload at run time, or makes its output wrong,
# fails here. Output stays under the gitignored .bench_build/.
wavebenchsmoke:
	bash wavebench/run.sh --workload all --seconds 1 --trace 0
	bash wavebench/run.sh --workload all --seconds 1 --trace 1

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
# FuzzEngineOps runs ~1 ms per input, so Go's default of up to 60 s of
# minimizing per new interesting input would stall its fuzzing; 100
# runs per input bound that.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzTheorem1Precheck -fuzztime=10s ./internal/wdm
	$(GO) test -run=NONE -fuzz=FuzzProvisionOracle -fuzztime=10s ./internal/wdm
	$(GO) test -run=NONE -fuzz=FuzzEngineOps -fuzztime=10s -fuzzminimizetime=100x ./internal/wdm
	$(GO) test -run=NONE -fuzz=FuzzPartitionRegions -fuzztime=10s ./internal/digraph
	$(GO) test -run=NONE -fuzz=FuzzMinLoadPath -fuzztime=10s ./internal/route
	$(GO) test -run=NONE -fuzz=FuzzIncrementalOps -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzTheorem1Peel -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzDSATURIncidence -fuzztime=10s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzFaultSchedule -fuzztime=10s ./internal/gen
	$(GO) test -run=NONE -fuzz=FuzzRequestPools -fuzztime=10s ./internal/gen

test: verify

# Every benchmark once, at two GOMAXPROCS settings, so neither the
# measurement suite nor the concurrent paths it drives (engine fan-out,
# region/overlay reconcile, admission, storms, snapshot reads, the serve
# coalescer) can silently rot.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -cpu=1,4 ./...
