# Convenience targets; everything is plain `go` underneath.

GO ?= go
# Iteration budget of `make bench` (the go test micro-benchmarks).
BENCHTIME ?= 1s
# Per-target fuzzing budget for fuzz and fuzz-smoke.
FUZZTIME ?= 30s
# load-curve knobs: topology, loop shape, ladder and per-level window.
LOADTOPO ?= 324
LOADMODE ?= closed
LOADLEVELS ?= 1,2,4,8
LOADDURATION ?= 2s
LOADAGREE ?= 0

.PHONY: all build vet test race loc golden bench bench-repo report check daemon-smoke load-curve replica-smoke experiments experiments-quick fuzz fuzz-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# ./internal/netsim snapshots its metrics registry and tracer from a
# second goroutine while a run is live (TestProbeSnapshotWhileRunning)
# and hands its progress sink to a reporter goroutine (TestProgressSink);
# ./internal/route and ./internal/hsd hammer one shared path arena from
# many goroutines; ./internal/par and ./internal/mpi run independent
# items and simulations on one worker pool.
race:
	$(GO) test -race ./internal/par/ ./internal/mpi/ ./internal/route/ ./internal/hsd/ ./internal/netsim/ ./internal/exp/ ./internal/obs/... ./internal/fmgr/... ./internal/fclient/ ./internal/wire/

# Non-test Go lines of cmd/ and per internal package, over the four
# packages on the fault path, over the command layer and over the whole
# tree outside bench/ — the numbers a net-negative PR quotes before and
# after.
loc:
	@for d in cmd/ internal/*/; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$$d"; \
	done
	@printf '%6d internal/{route,engine,fabric,fmgr}\n' \
		"$$(find internal/route internal/engine internal/fabric internal/fmgr -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf '%6d cmd + internal/{cli,exp,hsd,fmgr}\n' \
		"$$(find cmd internal/cli internal/exp internal/hsd internal/fmgr -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf '%6d all non-test Go outside bench/\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs cat | wc -l)"

# Re-record every command's testdata/*.golden from the current build
# (docs/TESTING.md "Command goldens"); review the diff before committing.
golden:
	$(GO) test ./cmd/... -run TestGolden -update

# The go test micro-benchmarks kept beside the layers bench/ does not
# probe; performance claims come from bench-repo, not from these.
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) ./...

# The repository benchmark (BENCHMARK.json, bench/README.md): every
# workload, end-to-end metrics, correctness checks; non-zero exit when a
# check fails. docs/PERFORMANCE.md is filled from its -trace 1 runs.
bench-repo:
	$(GO) run ./bench -workload all

# End-to-end observability smoke: simulate a small cluster with probes
# and tracing on, then render the self-contained HTML report.
report:
	$(GO) run ./cmd/ftsim -topo 128 -cps recursive-doubling -order random \
		-mode barrier -metrics probes.jsonl -trace trace.json
	$(GO) run ./cmd/ftreport html -metrics probes.jsonl -trace trace.json -o report.html

# Theorem verification: run the full invariant catalog (see
# docs/TESTING.md) on the paper cluster, a k-ary-n-tree, an XGFT, and
# seeded random RLFTs. Non-zero exit on any failed check.
check:
	$(GO) run ./cmd/ftcheck -topo 324 -rand 3 -seed 1
	$(GO) run ./cmd/ftcheck -topo kary:4,3
	$(GO) run ./cmd/ftcheck -topo "pgft:3;2,2,2;1,2,2;1,1,1"

# End-to-end fabric-daemon smoke: boot ftfabricd on a loopback port,
# poll /healthz, exercise a route query and a fault injection, then
# SIGTERM for a graceful drain. Fails if any request or the shutdown
# misbehaves.
daemon-smoke:
	./scripts/daemon_smoke.sh

# Saturation curve against a live daemon: boot ftfabricd on LOADTOPO,
# sweep the LOADLEVELS ladder (LOADMODE closed = concurrency, open =
# req/s) for LOADDURATION per level, pull the fabric event journal and
# render load.html. LOADAGREE > 0 gates on client/server p99 agreement.
load-curve:
	TOPO=$(LOADTOPO) MODE=$(LOADMODE) LEVELS=$(LOADLEVELS) \
		DURATION=$(LOADDURATION) AGREE=$(LOADAGREE) ./scripts/load_sweep.sh

# Multi-replica smoke: two ftfabricd replicas, one fault stream, epoch
# convergence, a binary-protocol ftload sweep across both (the
# epoch-mix guard must stay silent) and a dual-protocol HTML report.
replica-smoke:
	TOPO=$(LOADTOPO) LEVELS=$(LOADLEVELS) DURATION=$(LOADDURATION) \
		./scripts/replica_smoke.sh

# Regenerate every table and figure at paper scale (minutes).
experiments:
	$(GO) run ./cmd/ftbench -exp all

experiments-quick:
	$(GO) run ./cmd/ftbench -exp all -quick

# Every go fuzz target, as package:Target (docs/TESTING.md): the spec
# and topology file parsers, the test-side readers of the fabric's table
# dump and JSON document, the fault-injection -> lenient-compile -> path
# gate pipeline, the binary wire-protocol decoder and the patched
# route-set expansion. `fuzz` and CI's `fuzz-smoke` run the same list,
# FUZZTIME per target.
FUZZ_TARGETS = \
	./internal/topo/:FuzzParseSpec \
	./internal/topo/:FuzzParseTopologyFile \
	./internal/fabric/:FuzzParseLFTs \
	./internal/fabric/:FuzzDoc \
	./internal/invariant/:FuzzFaultCompileLenient \
	./internal/wire/:FuzzWireDecode \
	./internal/wire/:FuzzExpandFrom

fuzz fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} ($${t%%:*}, $(FUZZTIME))"; \
		$(GO) test -fuzz="^$${t#*:}\$$" -fuzztime=$(FUZZTIME) "$${t%%:*}"; \
	done

clean:
	$(GO) clean ./...
