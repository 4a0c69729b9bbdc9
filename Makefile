GO ?= go

.PHONY: all build vet test race allocs bench bench-ingest bench-check benchsmoke examples-smoke docs-check chaos perfbench-test ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# allocs runs the allocation tests (names containing "Allocs"): the
# hot-path budgets in docs/architecture.md, and zero allocations per
# insert on the ingest path (TestIngestAllocs). They skip under -race,
# which instruments allocations, so they need this run without it.
allocs:
	$(GO) test -count=1 -run Allocs ./...

# The trigger-pipeline benchmark: snapshot+re-plan against the compiled
# zero-copy and incremental tiers.
bench:
	$(GO) test -run xxx -bench 'BenchmarkTriggerPipeline' -benchmem .

# The ingestion benchmark: the batching x WAL sync policy matrix. A
# single producer drives each cell; the -cpu sweep checks that the write
# path and the SyncInterval background flusher hold up at 1, 4 and 8
# CPUs.
bench-ingest:
	$(GO) test -run xxx -bench 'BenchmarkIngest' -benchmem -cpu 1,4,8 .

# bench-check runs the benchmarks that carry a within-run ratio bound
# and fails when a ratio misses it. Each bound is a constant beside its
# check in bench_test.go; -v prints every measured ratio.
#   - BenchmarkClientQueries and BenchmarkClientQueriesGrouped: the
#     compiled, shared, parallel sweep of 1,000 registered queries is
#     >= 5x faster than the serial interpreted sweep.
#   - BenchmarkDurableProducers at -cpu 8: 8 producers under
#     sync="durable" reach >= 2.5x the 1-producer throughput with <= 0.4
#     WAL commits per element (50 rounds of 100 elements per producer).
#     The -cpu 1 row is reported, not checked. The two run apart
#     because go test drops a benchmark's failure at any -cpu value but
#     the first from its exit status.
#   - BenchmarkTriggerPipeline: the compiled zero-copy and incremental
#     tiers beat snapshot+re-plan.
#   - BenchmarkIngest: batched sync=interval ingestion beats unbatched
#     sync=always (one WAL write per element).
# The last line runs the two bounds that are deterministic tests: zero
# allocations per insert, and partial-aggregate shipping moving flat
# bytes as the window volume doubles while the raw-row union doubles.
bench-check:
	$(GO) test -count=1 -v -run xxx -bench 'BenchmarkClientQueries' -benchtime 5x .
	$(GO) test -count=1 -v -run xxx -bench 'BenchmarkDurableProducers' -benchtime 50x -cpu 8 .
	$(GO) test -count=1 -v -run xxx -bench 'BenchmarkDurableProducers' -benchtime 50x -cpu 1 .
	$(GO) test -count=1 -v -run xxx -bench 'BenchmarkTriggerPipeline$$|BenchmarkIngest' .
	$(GO) test -count=1 -run 'TestIngestAllocs|TestFederationPartialBytesFlat' ./internal/storage ./internal/p2p

# docs-check keeps the documentation honest: relative markdown links
# must resolve, and every ```sql example in docs/sql-dialect.md must
# execute against the fixture catalog.
docs-check:
	$(GO) run ./cmd/docs-check

# benchsmoke compiles and runs every benchmark once, so perf-harness
# rot is caught on every PR without paying for full measurement runs.
# -cpu 1,4, the GOMAXPROCS lines and the last line at the default
# GOMAXPROCS exercise the worker-pool and commit-combiner multi-core
# paths alongside the single-core ones; the federation test drives the
# partial-aggregate and union transports across a 3-node loopback
# cluster.
benchsmoke:
	$(GO) test -run xxx -bench . -benchtime 1x -cpu 1,4 ./...
	GOMAXPROCS=1 $(GO) test -run xxx -bench 'BenchmarkClientQueries' -benchtime 1x .
	GOMAXPROCS=4 $(GO) test -run xxx -bench 'BenchmarkClientQueries' -benchtime 1x .
	GOMAXPROCS=8 $(GO) test -run xxx -bench 'BenchmarkDurableProducers' -benchtime 1x .
	$(GO) test -count=1 -run 'TestFederationPartialBytesFlat' ./internal/p2p
	$(GO) test -run xxx -bench . -benchtime 1x .

# examples-smoke runs the self-terminating examples end to end (a
# deterministic composition pipeline and the real-time quickstart), so
# the public API surface they exercise cannot rot silently.
examples-smoke:
	timeout 120 $(GO) run ./examples/layered
	timeout 120 $(GO) run ./examples/quickstart

# chaos runs the fault-injection storms twice under the race detector:
# a three-tier pipeline with randomized disk faults (TestChaos), the
# WAL fault matrix and self-healing recovery paths, the two-node
# replication pipeline under network chaos (TestNetChaos: partitions,
# torn/corrupted responses, peer restarts — exactly-once must hold),
# and the 4-node federation under the same storms (TestClusterChaos:
# cross-node composition, partitioned-coordinator query semantics,
# routed registrations surviving peer restarts). See
# docs/operations.md for the contract these tests enforce.
chaos:
	$(GO) test -race -count=2 -timeout 600s \
		-run 'TestChaos|TestNetChaos|TestClusterChaos|TestWALFaultMatrix|TestBackgroundFlush|TestSupervision|TestCheckpointMetaFault|TestHistoryPageWriteFault' \
		./internal/core ./internal/storage ./internal/p2p

# perfbench-test vets and race-tests the benchmark harness itself. It
# is a Go module of its own (perfbench/go.mod), so the root ./...
# patterns never reach it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test -race ./...

# ci is the tier-1 gate: everything a fresh clone must pass.
ci: vet build race allocs benchsmoke bench-check examples-smoke docs-check chaos perfbench-test
