package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/stream"
)

// key links the spans and callbacks of one element: source and seq.
func key(src, seq int64) uint64 { return uint64(src)<<40 | uint64(seq) }

// Poll intervals for quiesce.
const (
	setupPoll = 2 * time.Millisecond
	phasePoll = 10 * time.Millisecond
)

// subRuns is how many times one run builds its workload from scratch
// and measures it. Figures are medians over the bins of every sub-run,
// so state that differs from one set-up to the next (map iteration
// orders, goroutine placement) is sampled several times per run.
const subRuns = 3

// extraSetups are set-ups built and torn down unmeasured before the
// sub-runs, so setup_s is the median of subRuns+extraSetups timings.
const extraSetups = 2

// timeSetups builds and tears down extraSetups times, recording each
// set-up time in t.
func timeSetups[T any](t *tally, build func() (T, error), teardown func(T)) error {
	for i := 0; i < extraSetups; i++ {
		start := time.Now()
		w, err := build()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		t.setup = append(t.setup, time.Since(start).Seconds())
		teardown(w)
	}
	return nil
}

// tally accumulates the sub-runs of one workload run.
type tally struct {
	bins   map[string][]binStat
	k      counters
	io     ioStats
	cost   procCost // summed over the measured phases
	ops    int64
	heap   []float64
	setup  []float64
	phases [][2]int64 // measured phases, ns since the epoch
	lag    dist       // generator lateness, ms
	sums   map[string]float64
	rates  map[string][]float64 // per sub-run
	counts map[string]int64
}

func newTally() *tally {
	return &tally{
		bins: map[string][]binStat{}, k: counters{m: map[string]float64{}}, sums: map[string]float64{},
		rates: map[string][]float64{}, counts: map[string]int64{},
	}
}

// lagReport stores the generator's lateness percentiles.
func (t *tally) lagReport(r *report) {
	r.setQ("gen.lag_ms.p50", "ms", &t.lag, 0.5)
	r.setQ("gen.lag_ms.p99", "ms", &t.lag, 0.99)
}

// addBins keeps the per-bin figures of b.
func (t *tally) addBins(name string, b *binned) {
	t.bins[name] = append(t.bins[name], b.stats()...)
}

// setQ stores the median over all bins of name's p50 or p99.
func (t *tally) setQ(r *report, metric, unit, name string, p float64) {
	v, ok := binQ(t.bins[name], p)
	r.metrics[metric] = measure{value: v, unit: unit, n: binN(t.bins[name]), ok: ok}
}

// addRate records one sub-run's rate: n events over its measured
// seconds.
func (t *tally) addRate(name string, n int64, seconds float64) {
	t.rates[name] = append(t.rates[name], ratio(float64(n), seconds))
	t.counts[name] += n
}

// setRate stores the median over sub-runs of name's rate.
func (t *tally) setRate(r *report, metric, name string) {
	r.set(metric, "1/s", median(t.rates[name]), int(t.counts[name]))
}

// mark is the state of the public counters when a measured phase
// begins.
type mark struct {
	k    counters
	io   ioStats
	cost procCost
	from int64
}

func begin(e *env, fs *timingFS, cs ...*core.Container) mark {
	return mark{k: takeCounters(cs...), io: fs.stats(), cost: sampleCost(), from: e.now()}
}

// end charges the phase begun at m, which performed ops operations.
func (t *tally) end(e *env, m mark, fs *timingFS, ops int64, cs ...*core.Container) {
	t.k = t.k.plus(takeCounters(cs...).since(m.k))
	t.io = t.io.plus(fs.stats().minus(m.io))
	t.cost = t.cost.plus(sampleCost().minus(m.cost))
	t.ops += ops
	t.phases = append(t.phases, [2]int64{m.from, e.now()})
}

// measureHeap records the live heap after a forced GC. Workloads call
// it with their containers open and after dropping the sub-run's own
// sample buffers, so it weighs the program's state.
func (t *tally) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.heap = append(t.heap, float64(ms.HeapAlloc)/(1<<20))
}

// finish stores the figures every workload reports from its tally.
func (t *tally) finish(r *report) {
	r.set("setup_s", "s", median(t.setup), len(t.setup))
	r.set("heap_mb", "MB", median(t.heap), len(t.heap))
	ops := float64(t.ops)
	r.set("go.cpu_us_per_op", "us", ratio(float64(t.cost.cpu.Microseconds()), ops), int(t.ops))
	r.set("go.alloc_bytes_per_op", "B", ratio(float64(t.cost.alloc), ops), int(t.ops))
	r.set("go.gc_cycles", "count", float64(t.cost.gcs), int(t.ops))
	t.k.report(r)
	r.set("storage.writes", "count", float64(t.io.writes), int(t.io.writes))
	r.set("storage.write_bytes", "B", float64(t.io.writeBytes), int(t.io.writes))
	r.set("storage.syncs", "count", float64(t.io.syncs), int(t.io.syncs))
	r.set("storage.reads", "count", float64(t.io.reads), int(t.io.reads))
}

// spans returns a filter for the spans of the tally's measured phases.
func (t *tally) spans(tr *tracer) func(string) []span {
	return func(layer string) []span {
		var out []span
		for _, s := range tr.byLayer(layer) {
			for _, p := range t.phases {
				if s.start >= p[0] && s.start < p[1] {
					out = append(out, s)
					break
				}
			}
		}
		return out
	}
}

// freshDir creates an empty directory for one container's data.
func freshDir(path string) (string, error) {
	if err := os.RemoveAll(path); err != nil {
		return "", err
	}
	return path, os.MkdirAll(path, 0o755)
}

// quiesce waits until no sensor of the containers has counted a new
// trigger or output for five polls poll apart, and every notification
// queued so far has been delivered. Set-ups poll fast (their time is
// measured); the quiescent checks after a phase poll slowly, so a
// starved trigger worker cannot pass for an idle one.
func quiesce(poll time.Duration, cs ...*core.Container) error {
	total := func() uint64 {
		var n uint64
		for _, c := range cs {
			for _, vs := range c.Sensors() {
				st := vs.Stats()
				n += st.Outputs + st.Triggers
			}
		}
		return n
	}
	deadline := time.Now().Add(20 * time.Second)
	prev, stable := total(), 0
	for stable < 5 {
		if time.Now().After(deadline) {
			return fmt.Errorf("perfbench: containers did not quiesce")
		}
		time.Sleep(poll)
		cur := total()
		if cur == prev {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	for _, c := range cs {
		if !c.Notifier().Flush(10 * time.Second) {
			return fmt.Errorf("perfbench: notifications did not drain")
		}
	}
	return nil
}

// subscribe attaches fn as a notification subscriber of sensor. fn runs
// on the subscription's own delivery goroutine, one event at a time.
func subscribe(c *core.Container, sensor string, fn func(ev notify.Event)) error {
	_, err := c.Subscribe(sensor, notify.FuncChannel{ChannelName: "perfbench", Fn: func(ev notify.Event) error {
		fn(ev)
		return nil
	}})
	return err
}

// notifyCounts sums the public delivery counters of every
// subscription: delivered, dropped (queue overflow) and failed.
func notifyCounts(cs ...*core.Container) (delivered, dropped, failed uint64) {
	for _, c := range cs {
		for _, s := range c.Notifier().Stats() {
			delivered += s.Delivered
			dropped += s.Dropped
			failed += s.Failed
		}
	}
	return
}

// sensorCounts sums the public trigger counters of every sensor.
func sensorCounts(cs ...*core.Container) (triggers, outputs, dropped, errs uint64) {
	for _, c := range cs {
		for _, vs := range c.Sensors() {
			st := vs.Stats()
			triggers += st.Triggers
			outputs += st.Outputs
			dropped += st.Dropped
			errs += st.Errors
		}
	}
	return
}

// counter reads an unsigned counter from a metrics snapshot.
func counter(snap map[string]any, name string) float64 {
	switch v := snap[name].(type) {
	case uint64:
		return float64(v)
	case int64:
		return float64(v)
	case int:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// recorder collects the samples callbacks deliver from the notify and
// repository goroutines, binned over the measured phase, plus counts.
type recorder struct {
	mu       sync.Mutex
	from, to int64
	nbins    int
	d        map[string]*binned
	n        map[string]int64
}

func newRecorder() *recorder { return &recorder{d: map[string]*binned{}, n: map[string]int64{}} }

// reset drops everything recorded so far and bins later samples into n
// bins over [from, to).
func (r *recorder) reset(from, to int64, n int) {
	r.mu.Lock()
	r.d, r.n = map[string]*binned{}, map[string]int64{}
	r.from, r.to, r.nbins = from, to, n
	r.mu.Unlock()
}

// sample files x, observed at time t (ns since the epoch).
func (r *recorder) sample(name string, t int64, x float64) {
	r.mu.Lock()
	d := r.d[name]
	if d == nil {
		d = newBinned(r.from, r.to, r.nbins)
		r.d[name] = d
	}
	d.add(t, x)
	r.mu.Unlock()
}

func (r *recorder) count(name string, k int64) {
	r.mu.Lock()
	r.n[name] += k
	r.mu.Unlock()
}

// binned returns the named samples (empty when none); call after the
// producers have stopped.
func (r *recorder) binned(name string) *binned {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.d[name]; d != nil {
		return d
	}
	return newBinned(r.from, r.to, r.nbins)
}

func (r *recorder) get(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n[name]
}

// intField reads an integer column of an output element by name.
func intField(e stream.Element, name string) int64 {
	v, _ := e.ValueByName(name)
	n, _ := asInt(v)
	return n
}

// layerQ stores the p50 (and p99) of a span-derived duration list in
// microseconds.
func layerQ(r *report, name string, us *dist, p99 bool) {
	r.setQ(name+".p50", "us", us, 0.5)
	if p99 {
		r.setQ(name+".p99", "us", us, 0.99)
	}
}

// gapsUS turns (from, to) nanosecond pairs into a microsecond dist.
func gapsUS(pairs [][2]int64) *dist {
	d := &dist{}
	for _, p := range pairs {
		if p[1] >= p[0] {
			d.add(float64(p[1]-p[0]) / 1e3)
		}
	}
	return d
}

// snapCounters are the container metrics the per-layer report reads,
// summed over the containers of a workload.
var snapCounters = []string{
	"source_eval_incremental", "source_eval_compiled", "source_eval_general",
	"client_query_incremental", "client_query_compiled", "client_query_general",
	"queries_coalesced", "result_cache_hits", "result_cache_misses",
	"cluster_partial_queries", "cluster_routed_queries", "cluster_union_queries",
}

// counters is a snapshot of the public counters of a set of containers.
type counters struct {
	triggers, outputs, dropped, errs uint64
	delivered, ndropped, nfailed     uint64
	queryErrs                        uint64 // registered-query evaluation errors
	m                                map[string]float64
}

func takeCounters(cs ...*core.Container) counters {
	var k counters
	k.triggers, k.outputs, k.dropped, k.errs = sensorCounts(cs...)
	k.delivered, k.ndropped, k.nfailed = notifyCounts(cs...)
	k.m = map[string]float64{}
	for i, c := range cs {
		snap := c.MetricsSnapshot()
		for _, name := range snapCounters {
			k.m[name] += counter(snap, name)
		}
		if i == 0 {
			// The statement cache is process-wide: count it once.
			k.m["stmt_cache_hits"] = counter(snap, "stmt_cache_hits")
			k.m["stmt_cache_misses"] = counter(snap, "stmt_cache_misses")
		}
		for _, q := range c.QueryRepositoryRef().Stats() {
			k.queryErrs += q.Errors
		}
	}
	return k
}

// plus is the sum of two counter growths.
func (a counters) plus(b counters) counters {
	d := counters{
		triggers: a.triggers + b.triggers, outputs: a.outputs + b.outputs,
		dropped: a.dropped + b.dropped, errs: a.errs + b.errs,
		delivered: a.delivered + b.delivered, ndropped: a.ndropped + b.ndropped,
		nfailed: a.nfailed + b.nfailed, queryErrs: a.queryErrs + b.queryErrs,
		m: map[string]float64{},
	}
	for name, v := range a.m {
		d.m[name] += v
	}
	for name, v := range b.m {
		d.m[name] += v
	}
	return d
}

// since is the counter growth from b to a.
func (a counters) since(b counters) counters {
	d := counters{
		triggers: a.triggers - b.triggers, outputs: a.outputs - b.outputs,
		dropped: a.dropped - b.dropped, errs: a.errs - b.errs,
		delivered: a.delivered - b.delivered, ndropped: a.ndropped - b.ndropped,
		nfailed: a.nfailed - b.nfailed, queryErrs: a.queryErrs - b.queryErrs,
		m: map[string]float64{},
	}
	for name, v := range a.m {
		d.m[name] = v - b.m[name]
	}
	return d
}

// report charges the failures the counters show and stores the
// per-layer figures read from public counters, each with its base.
func (d counters) report(r *report) {
	r.fail("dropped_triggers", int64(d.dropped))
	r.fail("processing_errors", int64(d.errs))
	r.fail("notify_dropped", int64(d.ndropped))
	r.fail("notify_failed", int64(d.nfailed))
	r.fail("registered_query_errors", int64(d.queryErrs))

	r.set("trigger.dropped", "count", float64(d.dropped), int(d.triggers))
	for _, t := range []string{"incremental", "compiled", "general"} {
		r.set("trigger.eval_"+t, "count", d.m["source_eval_"+t], int(d.triggers))
		r.set("repo.tier_"+t, "count", d.m["client_query_"+t], int(d.outputs))
	}
	r.set("repo.coalesced", "count", d.m["queries_coalesced"], int(d.outputs))
	r.set("notify.delivered", "count", float64(d.delivered), int(d.delivered))
	r.set("notify.dropped", "count", float64(d.ndropped), int(d.delivered+d.ndropped))
	rc := d.m["result_cache_hits"] + d.m["result_cache_misses"]
	r.set("sql.result_cache_lookups", "count", rc, int(rc))
	r.set("sql.result_cache_hit_ratio", "ratio", ratio(d.m["result_cache_hits"], rc), int(rc))
	sc := d.m["stmt_cache_hits"] + d.m["stmt_cache_misses"]
	r.set("sql.stmt_cache_lookups", "count", sc, int(sc))
	r.set("sql.stmt_cache_hit_ratio", "ratio", ratio(d.m["stmt_cache_hits"], sc), int(sc))
}
