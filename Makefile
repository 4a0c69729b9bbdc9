GO ?= go

.PHONY: all build vet test race allocs bench benchsmoke examples-smoke docs-check chaos perfbench-test ci

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
# hot-path budgets in docs/architecture.md. They skip under -race,
# which instruments allocations, so they need this run without it.
allocs:
	$(GO) test -count=1 -run Allocs ./...

# The trigger-pipeline acceptance benchmark: the compiled zero-copy
# path and the incremental path must beat the snapshot+re-plan path.
bench:
	$(GO) test -run xxx -bench 'BenchmarkTriggerPipeline' -benchmem .

# The ingestion acceptance benchmark: batched group-commit ingestion
# must beat the per-element flush path, with 0 allocs/op in every cell.
# A single producer drives each cell; the -cpu sweep checks that the
# write path and the SyncInterval background flusher hold up at 1, 4
# and 8 CPUs.
bench-ingest:
	$(GO) test -run xxx -bench 'BenchmarkIngest' -benchmem -cpu 1,4,8 .

# The concurrent-producer acceptance benchmark for sync=durable commit
# combining: at 8 producers, durable throughput must be >= 2.5x the
# uncombined 8-producer figure (one fdatasync per element; ROADMAP item
# 3 records it with its machine) with <= 6,400 WAL commits for 16,000
# elements (commits/elem <= 0.4). The table prints each durable row's
# speedup over the 1-producer durable row, which also pays one
# fdatasync per element, as the in-run reference. The always and
# interval cells, which never combine, must not regress >= 5%.
bench-scaling:
	GOMAXPROCS=8 $(GO) run ./cmd/gsn-bench -experiment scaling

# The federation acceptance benchmark: a distributed GROUP BY through
# partial-aggregate shipping must move few, volume-independent bytes
# per query, against the raw-row union baseline that scales with the
# raw stream volume (nodes 1/2/4, two volume points each; the CSV
# lands in bench_results/cluster.csv).
bench-cluster:
	$(GO) run ./cmd/gsn-bench -experiment cluster

# The client-query acceptance benchmark: the compiled/shared/parallel
# repository must beat the serial interpreted sweep at 1000 registered
# queries (BenchmarkClientQueriesGrouped covers the GROUP BY rollups).
bench-queries:
	$(GO) test -run xxx -bench 'BenchmarkClientQueries' -benchmem .

# docs-check keeps the documentation honest: relative markdown links
# must resolve, and every ```sql example in docs/sql-dialect.md must
# execute against the fixture catalog.
docs-check:
	$(GO) run ./cmd/docs-check

# benchsmoke compiles and runs every benchmark once and sweeps the
# gsn-bench experiments in quick mode, so perf-harness rot is caught on
# every PR without paying for full measurement runs. -cpu 1,4 and the
# GOMAXPROCS pair exercise the worker-pool multi-core paths alongside
# the single-core ones.
benchsmoke:
	$(GO) test -run xxx -bench . -benchtime 1x -cpu 1,4 ./...
	GOMAXPROCS=1 $(GO) run ./cmd/gsn-bench -experiment queries -quick -out ""
	GOMAXPROCS=4 $(GO) run ./cmd/gsn-bench -experiment queries -quick -out ""
	GOMAXPROCS=8 $(GO) run ./cmd/gsn-bench -experiment scaling -quick -out ""
	$(GO) run ./cmd/gsn-bench -experiment cluster -quick -out ""
	$(GO) run ./cmd/gsn-bench -experiment all -quick -out ""

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
ci: vet build race allocs benchsmoke examples-smoke docs-check chaos perfbench-test
