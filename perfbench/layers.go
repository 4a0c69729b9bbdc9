package main

import (
	"runtime"
	"syscall"
	"time"
)

// layer is one per-layer metric with its prediction: the end-to-end
// metric (on a workload) it should move, and the workload whose
// end-to-end metrics it should leave flat. A metric a workload does not
// exercise reports 0.
type layer struct {
	name, unit, better string
	moves, flatOn      string
}

const (
	onSP = " on sensor-pipeline"
	onCQ = " on client-queries"
	onCG = " on cluster-groupby"
)

// perLayer is the per-layer contract; BENCHMARK.json's per_layer list
// mirrors it (TestBenchmarkJSONMatchesLayers).
var perLayer = []layer{
	// wrappers + quality ingress: self time of each EmitFunc /
	// BatchEmitFunc call.
	{"ingress.emit_us.p50", "us", "lower", "e2e.op_per_s, e2e.fresh_p50_ms" + onSP, "cluster-groupby"},
	{"ingress.emit_us.p99", "us", "lower", "e2e.fresh_p99_ms" + onSP, "cluster-groupby"},
	{"ingress.emits", "count", "higher", "e2e.op_per_s" + onSP, "cluster-groupby"},
	// storage WAL through the timing FS.
	{"storage.write_us.p50", "us", "lower", "e2e.op_per_s" + onSP, "cluster-groupby"},
	{"storage.write_us.p99", "us", "lower", "e2e.fresh_p99_ms" + onSP, "cluster-groupby"},
	{"storage.writes", "count", "lower", "e2e.op_per_s" + onSP, "cluster-groupby"},
	{"storage.write_bytes", "B", "lower", "e2e.op_per_s" + onSP, "cluster-groupby"},
	{"storage.sync_us.p50", "us", "lower", "e2e.op_per_s" + onSP, "cluster-groupby"},
	{"storage.syncs", "count", "lower", "e2e.op_per_s" + onSP, "cluster-groupby"},
	// storage history reads.
	{"storage.read_us.p50", "us", "lower", "e2e.op_per_s, e2e.op_p99_ms" + onCQ, "sensor-pipeline"},
	{"storage.read_us.p99", "us", "lower", "e2e.op_p99_ms" + onCQ, "sensor-pipeline"},
	{"storage.reads", "count", "lower", "e2e.op_per_s" + onCQ, "sensor-pipeline"},
	// core trigger pool: emit return → network-tier callback.
	{"trigger.wait_us.p50", "us", "lower", "e2e.fresh_p50_ms" + onSP, "cluster-groupby"},
	{"trigger.wait_us.p99", "us", "lower", "e2e.fresh_p99_ms" + onSP, "cluster-groupby"},
	{"trigger.arrivals", "count", "higher", "outputs_per_s" + onSP, "cluster-groupby"},
	{"trigger.outputs_per_arrival", "ratio", "higher", "outputs_per_s" + onSP, "cluster-groupby"},
	{"trigger.dropped", "count", "lower", "outputs_per_s" + onSP, "cluster-groupby"},
	{"trigger.eval_incremental", "count", "higher", "e2e.fresh_p50_ms" + onSP, "cluster-groupby"},
	{"trigger.eval_compiled", "count", "higher", "e2e.fresh_p50_ms" + onSP, "cluster-groupby"},
	{"trigger.eval_general", "count", "lower", "e2e.fresh_p50_ms" + onSP, "cluster-groupby"},
	// core local composition: network callback → leaf callback.
	{"compose.hop_us.p50", "us", "lower", "outputs_per_s" + onSP, "client-queries"},
	{"compose.hop_us.p99", "us", "lower", "outputs_per_s" + onSP, "client-queries"},
	// notify: public subscription counters and the callback's own time.
	{"notify.delivered", "count", "higher", "outputs_per_s" + onSP, "cluster-groupby"},
	{"notify.dropped", "count", "lower", "e2e.fresh_p99_ms" + onSP, "cluster-groupby"},
	{"notify.cb_us.p50", "us", "lower", "e2e.fresh_p99_ms" + onSP, "cluster-groupby"},
	// core query repository: subscriber sees the output → registered
	// callback for the same gen.
	{"repo.sweep_us.p50", "us", "lower", "e2e.fresh_p50_ms" + onCQ, "sensor-pipeline"},
	{"repo.sweep_us.p99", "us", "lower", "e2e.fresh_p99_ms" + onCQ, "sensor-pipeline"},
	{"repo.callbacks_per_arrival", "ratio", "higher", "outputs_per_s" + onCQ, "sensor-pipeline"},
	{"repo.coalesced", "count", "lower", "outputs_per_s" + onCQ, "sensor-pipeline"},
	{"repo.tier_incremental", "count", "higher", "e2e.fresh_p50_ms" + onCQ, "sensor-pipeline"},
	{"repo.tier_compiled", "count", "higher", "e2e.fresh_p50_ms" + onCQ, "sensor-pipeline"},
	{"repo.tier_general", "count", "lower", "e2e.fresh_p50_ms" + onCQ, "sensor-pipeline"},
	// sqlengine + result cache: ad-hoc Container.Query per statement
	// class, and the public cache counters.
	{"sql.window_us.p50", "us", "lower", "e2e.op_p50_ms" + onCQ, "sensor-pipeline"},
	{"sql.grouped_us.p50", "us", "lower", "e2e.op_per_s, e2e.op_p99_ms" + onCQ, "sensor-pipeline"},
	{"sql.history_us.p50", "us", "lower", "e2e.op_per_s, e2e.op_p99_ms" + onCQ, "sensor-pipeline"},
	{"sql.result_cache_lookups", "count", "higher", "e2e.op_p50_ms" + onCQ, "sensor-pipeline"},
	{"sql.result_cache_hit_ratio", "ratio", "higher", "e2e.op_p50_ms" + onCQ, "sensor-pipeline"},
	{"sql.stmt_cache_lookups", "count", "higher", "e2e.op_p50_ms" + onCQ, "sensor-pipeline"},
	{"sql.stmt_cache_hit_ratio", "ratio", "higher", "e2e.op_p50_ms" + onCQ, "sensor-pipeline"},
	// p2p federation: RoundTripper and owner handler spans, federation
	// byte counters.
	{"p2p.rtt_us.p50", "us", "lower", "e2e.op_p50_ms, e2e.op_per_s" + onCG, "sensor-pipeline, client-queries"},
	{"p2p.rtt_us.p99", "us", "lower", "e2e.op_p99_ms" + onCG, "sensor-pipeline, client-queries"},
	{"p2p.owner_us.p50", "us", "lower", "e2e.op_p50_ms" + onCG, "sensor-pipeline, client-queries"},
	{"p2p.wire_us.p50", "us", "lower", "e2e.op_p50_ms" + onCG, "sensor-pipeline, client-queries"},
	{"p2p.calls_per_query", "ratio", "lower", "e2e.op_p50_ms" + onCG, "sensor-pipeline, client-queries"},
	{"p2p.errors", "count", "lower", "e2e.op_per_s" + onCG, "sensor-pipeline, client-queries"},
	{"fed.partial_queries", "count", "higher", "e2e.op_per_s" + onCG, "sensor-pipeline, client-queries"},
	{"fed.partial_bytes_per_query", "B", "lower", "e2e.op_p50_ms" + onCG, "sensor-pipeline, client-queries"},
	{"fed.union_queries", "count", "higher", "e2e.op_per_s" + onCG, "sensor-pipeline, client-queries"},
	{"fed.union_bytes_per_query", "B", "lower", "e2e.op_per_s, e2e.op_p99_ms" + onCG, "sensor-pipeline, client-queries"},
	// core cluster coordinator: query span minus the RTT spans it covers,
	// and the query span per transport.
	{"coord.self_us.p50", "us", "lower", "e2e.op_p50_ms" + onCG, "client-queries"},
	{"cluster.partial_us.p50", "us", "lower", "e2e.op_p50_ms" + onCG, "client-queries"},
	{"cluster.routed_us.p50", "us", "lower", "e2e.op_p50_ms" + onCG, "client-queries"},
	{"cluster.union_us.p50", "us", "lower", "e2e.op_per_s, e2e.op_p99_ms" + onCG, "client-queries"},
	// Go runtime and the generator.
	{"go.cpu_us_per_op", "us", "lower", "e2e.op_per_s, outputs_per_s on every workload", "-"},
	{"go.alloc_bytes_per_op", "B", "lower", "e2e.op_per_s, heap_mb on every workload", "-"},
	{"go.gc_cycles", "count", "lower", "e2e.op_per_s, e2e.op_p99_ms on every workload", "-"},
	{"gen.lag_ms.p50", "ms", "lower", "e2e.fresh_p50_ms on every workload", "-"},
	{"gen.lag_ms.p99", "ms", "lower", "e2e.fresh_p99_ms on every workload", "-"},
	// Ungated end-to-end figures, from the untraced pass.
	{"e2e.fresh_p50_ms", "ms", "lower", "-", "-"},
	{"e2e.fresh_p99_ms", "ms", "lower", "-", "-"},
	{"e2e.op_p50_ms", "ms", "lower", "-", "-"},
	{"e2e.op_per_s", "1/s", "higher", "-", "-"},
	{"e2e.op_p99_ms", "ms", "lower", "-", "-"},
	{"e2e.leaf_fresh_p50_ms", "ms", "lower", "- (sensor-pipeline only)", "-"},
	{"e2e.ingest_per_s", "1/s", "higher", "- (sensor-pipeline only)", "-"},
	// Tracing cost: traced minus untraced.
	{"trace.overhead_fresh_p50_ms", "ms", "lower", "-", "-"},
	{"trace.overhead_op_p50_ms", "ms", "lower", "-", "-"},
}

// procCost samples the process cost counters a measured phase is
// charged with: CPU time (getrusage user+sys), allocated bytes and GC
// cycles.
type procCost struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func sampleCost() procCost {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCost{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

func (c procCost) minus(o procCost) procCost {
	return procCost{cpu: c.cpu - o.cpu, alloc: c.alloc - o.alloc, gcs: c.gcs - o.gcs}
}

func (c procCost) plus(o procCost) procCost {
	return procCost{cpu: c.cpu + o.cpu, alloc: c.alloc + o.alloc, gcs: c.gcs + o.gcs}
}
