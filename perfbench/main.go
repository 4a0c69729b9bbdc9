// Command perfbench is the repository's benchmark: three seeded
// workloads run against the production container configuration
// (asynchronous trigger processing, the way gsnd runs), each printing
// its end-to-end metrics with units and sample counts, checking every
// result against a reference computed from the generated inputs, and
// ending with one JSON line. With --trace 1 the workload runs twice,
// untraced and traced, and the JSON carries the per-layer metrics
// measured from the benchmark's own spans plus the tracing overhead.
//
//	bash perfbench/run.sh --workload sensor-pipeline --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// env is one workload run's configuration.
type env struct {
	seed    int64
	seconds float64
	epoch   time.Time // gen values and delivery times count from here
	dir     string    // scratch data directory inside the checkout
}

// now is the monotonic time since the epoch in nanoseconds, the unit of
// every element's gen field.
func (e *env) now() int64 { return int64(time.Since(e.epoch)) }

// measure is one reported figure with its sample count. ok=false marks
// a percentile without enough samples beyond it, or a metric the
// workload does not exercise; such a figure is reported as 0.
type measure struct {
	value float64
	unit  string
	n     int
	ok    bool
}

// report is a workload run's outcome.
type report struct {
	attempted, failed int64
	failures          map[string]int64 // failed, by cause
	notes             []string         // the first few mismatches, described
	metrics           map[string]measure
}

// note describes a reference mismatch; the first few are printed.
func (r *report) note(format string, args ...any) {
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func newReport() *report {
	return &report{failures: map[string]int64{}, metrics: map[string]measure{}}
}

func (r *report) fail(cause string, n int64) {
	if n > 0 {
		r.failures[cause] += n
		r.failed += n
	}
}

func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = measure{value: v, unit: unit, n: n, ok: true}
}

// setQ stores the p-quantile of d, or an unavailable mark when too few
// samples lie beyond it.
func (r *report) setQ(name, unit string, d *dist, p float64) {
	v, ok := d.q(p)
	if !ok {
		v = 0
	}
	r.metrics[name] = measure{value: v, unit: unit, n: d.n(), ok: ok}
}

// thinkTime is the closed-loop clients' pause between a reply and the
// next request. It keeps one client from saturating a CPU of a small
// machine, where the figures would measure the scheduler and other
// tenants rather than the query path.
const thinkTime = 2 * time.Millisecond

type workloadFunc func(e *env, tr *tracer) (*report, error)

var workloads = map[string]workloadFunc{
	"sensor-pipeline": runSensorPipeline,
	"client-queries":  runClientQueries,
	"cluster-groupby": runClusterGroupBy,
}

// endToEnd lists the gated end-to-end metrics, in print order. Every
// workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"outputs_per_s", "1/s"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
}

// ungated are end-to-end figures every run prints but BENCHMARK.json
// does not gate: on a shared 2-vCPU machine their run-to-run spread
// (10-30%, following the host's load) exceeds the largest regression
// bound BENCHMARK.json may set (25%). A traced run reports them from its untraced pass as "e2e.*"
// per-layer metrics.
var ungated = []string{"fresh_p50_ms", "fresh_p99_ms", "op_p50_ms", "op_p99_ms", "op_per_s", "leaf_fresh_p50_ms", "ingest_per_s"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "sensor-pipeline | client-queries | cluster-groupby")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 = also run traced and report the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("data-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	newEnv := func(tag string) *env {
		return &env{seed: *seed, seconds: *seconds, epoch: time.Now(), dir: filepath.Join(dir, tag)}
	}
	plain, err := wl(newEnv("plain"), nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printProvenance(stdout, *name, *seed, *seconds, *trace)
	printTable(stdout, "end-to-end (untraced; gated, then ungated)", plain, append(endToEndNames(), ungated...))
	printFailures(stdout, "untraced", plain)

	out := jsonResult{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range endToEnd {
		got, ok := plain.metrics[m.name]
		if !ok || !got.ok || got.value <= 0 {
			fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s unavailable (n=%d)\n", *name, m.name, got.n)
			return 1
		}
		out.Metrics[m.name] = jsonMetric{Value: got.value, Unit: m.unit}
	}
	if *trace == 1 {
		env := newEnv("traced")
		tr := newTracer(env.epoch)
		traced, err := wl(env, tr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		path, err := tr.write(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-seed%d.csv", *name, *seed))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		overhead(traced, plain)
		for _, name := range ungated {
			traced.metrics["e2e."+name] = plain.metrics[name]
		}
		printTable(stdout, "per-layer (traced run; spans in "+path+")", traced, layerNames())
		printFailures(stdout, "traced", traced)
		out.Attempted += traced.attempted
		out.Failed += traced.failed
		out.Metrics = map[string]jsonMetric{}
		for _, l := range perLayer {
			got := traced.metrics[l.name]
			out.Metrics[l.name] = jsonMetric{Value: got.value, Unit: l.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// overhead stores the traced-minus-untraced difference of the latency
// figures in the traced report.
func overhead(traced, plain *report) {
	for _, m := range []string{"fresh_p50", "op_p50"} {
		t, p := traced.metrics[m+"_ms"], plain.metrics[m+"_ms"]
		traced.metrics["trace.overhead_"+m+"_ms"] = measure{
			value: t.value - p.value, unit: "ms", n: t.n, ok: t.ok && p.ok,
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func endToEndNames() []string {
	var out []string
	for _, m := range endToEnd {
		out = append(out, m.name)
	}
	return out
}

func layerNames() []string {
	var out []string
	for _, l := range perLayer {
		out = append(out, l.name)
	}
	return out
}

func printProvenance(w io.Writer, name string, seed int64, seconds float64, trace int) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d cpus=%d gomaxprocs=%d go=%s commit=%s\n",
		name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// printTable prints names in order, then any extra figures the report
// carries (informational, not gated), each with unit and sample count.
func printTable(w io.Writer, title string, r *report, names []string) {
	fmt.Fprintf(w, "# %s\n", title)
	seen := map[string]bool{}
	line := func(n string) {
		m := r.metrics[n]
		val := fmt.Sprintf("%.6g", m.value)
		if !m.ok {
			val = "n/a"
		}
		if math.IsNaN(m.value) {
			val = "NaN"
		}
		fmt.Fprintf(w, "%-34s %14s %-6s n=%d\n", n, val, m.unit, m.n)
		seen[n] = true
	}
	for _, n := range names {
		line(n)
	}
	var extra []string
	for n := range r.metrics {
		if !seen[n] && !isLayer(n) && !isEndToEnd(n) {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fmt.Fprintf(w, "# informational\n")
		for _, n := range extra {
			line(n)
		}
	}
}

func printFailures(w io.Writer, tag string, r *report) {
	causes := make([]string, 0, len(r.failures))
	for c := range r.failures {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	fmt.Fprintf(w, "# %s: attempted=%d failed=%d fail_ratio=%.6g", tag, r.attempted, r.failed,
		ratio(float64(r.failed), float64(r.attempted)))
	for _, c := range causes {
		fmt.Fprintf(w, " %s=%d", c, r.failures[c])
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# mismatch: %s\n", n)
	}
}

func isEndToEnd(n string) bool {
	for _, m := range endToEnd {
		if m.name == n {
			return true
		}
	}
	return false
}

func isLayer(n string) bool {
	for _, l := range perLayer {
		if l.name == n {
			return true
		}
	}
	return false
}
