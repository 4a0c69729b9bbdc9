package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// A percentile is reported only when at least ten samples lie beyond
// it: a p99 needs 1000 samples, a median 20.
func TestQuantileSampleCountRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 10, false},
		{20, 0.5, 10, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{100, 0.5, 50, true},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("quantile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
}

// Binned figures are medians over bins, and unavailable when any bin
// lacks the samples its percentile needs.
func TestBinnedMedianOverBins(t *testing.T) {
	sec := int64(time.Second)
	b := newBinned(0, 3*sec, 3)
	for i := 0; i < 100; i++ {
		b.add(0*sec+int64(i), 1)  // bin 0: all 1
		b.add(1*sec+int64(i), 5)  // bin 1: all 5
		b.add(2*sec+int64(i), 50) // bin 2: an outlier bin
	}
	b.add(-sec, 1)  // before the phase: first bin
	b.add(9*sec, 5) // after it: last bin
	st := b.stats()
	if v, ok := binQ(st, 0.5); !ok || v != 5 {
		t.Errorf("median of bin medians = %v, %v; want 5, true", v, ok)
	}
	if _, ok := binQ(st, 0.99); ok {
		t.Error("p99 reported from bins of ~100 samples")
	}
	if got := binN(st); got != 302 {
		t.Errorf("n = %d, want 302", got)
	}
}

// Self time subtracts the union of the children's intervals inside the
// parent: overlapping children count once, parts outside the parent not
// at all.
func TestSelfTimeOverlappingSpans(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{
		{start: 10, end: 30},
		{start: 20, end: 50}, // overlaps the first: [10,50) counts 40
		{start: 90, end: 120},
		{start: -5, end: 5},    // sticks out before: 5
		{start: 200, end: 300}, // outside: 0
	}
	// covered = 5 + 40 + 10 = 55
	if got := selfTime(parent, kids); got != 45 {
		t.Errorf("selfTime = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	parents := []span{{start: 0, end: 100}, {start: 100, end: 200}}
	sorted := []span{{start: 50, end: 150}, {start: 160, end: 170}}
	got := selfTimes(parents, sorted)
	if got[0] != 50 || got[1] != 40 {
		t.Errorf("selfTimes = %v, want [50 40]", got)
	}
}

// The open loop counts lateness from each element's due time: a fire
// call that overruns makes the elements due meanwhile fire at once,
// late, instead of shifting the schedule.
func TestOpenLoopLatenessFromDueTime(t *testing.T) {
	start := time.Unix(0, 0)
	clock := start
	now := func() time.Time { return clock }
	wait := func(due time.Time) { clock = due }
	var fired []time.Time
	var lag dist
	n := openLoopClock(start, start.Add(50*time.Millisecond), 10*time.Millisecond, &lag,
		func(k int64, due time.Time) {
			fired = append(fired, clock)
			if k == 0 {
				clock = clock.Add(25 * time.Millisecond) // a stall
			}
		}, now, wait)
	if n != 5 {
		t.Fatalf("fired %d elements, want 5", n)
	}
	wantAt := []time.Duration{0, 25, 25, 30, 40}
	wantLag := []float64{0, 15, 5, 0, 0}
	for i := range wantAt {
		if fired[i] != start.Add(wantAt[i]*time.Millisecond) {
			t.Errorf("element %d fired at %v, want %vms", i, fired[i].Sub(start), wantAt[i])
		}
		if lag.xs[i] != wantLag[i] {
			t.Errorf("element %d lateness %vms, want %vms", i, lag.xs[i], wantLag[i])
		}
	}
}

// The sensor-pipeline checker recomputes a mote window and a camera
// frame from the seeded inputs and rejects a wrong value.
func TestSensorCheckCatchesWrongResult(t *testing.T) {
	in := inputs{seed: 7}
	schema := stream.MustSchema(
		stream.Field{Name: "src", Type: stream.TypeInt},
		stream.Field{Name: "seq", Type: stream.TypeInt},
		stream.Field{Name: "gen", Type: stream.TypeInt},
		stream.Field{Name: "n", Type: stream.TypeInt},
		stream.Field{Name: "v", Type: stream.TypeFloat},
	)
	const src, at = 1, 20
	var sum int64
	for s := int64(at - spMoteWindow + 1); s <= at; s++ {
		sum += in.v(src, s)
	}
	avg := float64(sum) / spMoteWindow
	good := stream.MustElement(schema, 1, int64(src), int64(at), int64(5), int64(spMoteWindow), avg)
	if !spCheck(in, good) {
		t.Fatal("correct mote window rejected")
	}
	for _, bad := range []stream.Element{
		stream.MustElement(schema, 1, int64(src), int64(at), int64(5), int64(spMoteWindow), avg+1),
		stream.MustElement(schema, 1, int64(src), int64(at), int64(5), int64(spMoteWindow-1), avg),
		stream.MustElement(schema, 1, int64(src), int64(at+1), int64(5), int64(spMoteWindow), avg),
	} {
		if spCheck(in, bad) {
			t.Errorf("wrong result %v accepted", bad)
		}
	}
}

// The client-queries checker finds the window a result covers by its
// max(gen) and rejects a result no such window produces.
func TestWindowCheckCatchesWrongResult(t *testing.T) {
	l := newOutLog()
	for s := int64(0); s < 300; s++ {
		l.add(s, 1000+s, s%cqRooms, s%7)
	}
	l.mu.Lock()
	all, _ := l.window(250, always)
	l.mu.Unlock()
	if ok, known := l.check(result{pr: always, all: all}, false); !ok || !known {
		t.Fatalf("correct window result rejected: ok=%v known=%v", ok, known)
	}
	wrong := all
	wrong.s++
	if ok, known := l.check(result{pr: always, all: wrong}, true); ok || !known {
		t.Errorf("wrong sum accepted: ok=%v known=%v", ok, known)
	}
	unknown := groupAgg{g: 5000, n: 1, s: 1}
	if _, known := l.check(result{pr: always, all: unknown}, false); known {
		t.Error("a result whose newest row is not logged yet was judged")
	}
	in := inputs{seed: 3}
	var sum int64
	for s := int64(10); s <= 20; s++ {
		sum += in.v(0, s)
	}
	rel := &sqlengine.Relation{Rows: [][]stream.Value{{int64(11), sum, int64(10), int64(20)}}}
	if !checkHistory(in, rel, 10, 20) {
		t.Error("correct history scan rejected")
	}
	rel.Rows[0][0] = int64(10) // a row missing from the scan
	if checkHistory(in, rel, 10, 20) {
		t.Error("history scan missing a row accepted")
	}
}

// The cluster's quiescent check compares grouped totals with the
// per-room sums of the logged windows.
func TestClusterCheckCatchesWrongTotals(t *testing.T) {
	cl := &cgCluster{alerts: &rowLog{}}
	for o := range cl.logs {
		cl.logs[o] = &rowLog{}
	}
	cl.logs[0].add(cgRow{seq: 0, gen: 10, room: 1, v: 500})
	cl.logs[1].add(cgRow{seq: 0, gen: 11, room: 1, v: 700})
	cl.logs[1].add(cgRow{seq: 1, gen: 12, room: 2, v: 50})
	q := cgQuery{class: "partial", minV: 100}
	good := &sqlengine.Relation{Rows: [][]stream.Value{{"r01", int64(2), int64(1200), int64(11)}}}
	if err := cl.checkExact(q, good); err != nil {
		t.Fatalf("correct totals rejected: %v", err)
	}
	bad := &sqlengine.Relation{Rows: [][]stream.Value{{"r01", int64(2), int64(1201), int64(11)}}}
	if cl.checkExact(q, bad) == nil {
		t.Error("wrong sum accepted")
	}
	if cl.checkExact(cgQuery{class: "partial"}, good) == nil {
		t.Error("missing group accepted")
	}
}

// syncFailFS fails every Sync with its own error value.
type syncFailFS struct {
	storage.FS
	err error
}

func (f syncFailFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncFailFile{file, f.err}, nil
}

type syncFailFile struct {
	storage.File
	err error
}

func (f syncFailFile) Sync() error { return f.err }

// The timing FS hands back exactly what the inner FS returns: bytes,
// counts and an injected Sync error, the same value, not wrapped.
func TestTimingFSPassesErrorsThrough(t *testing.T) {
	injected := errors.New("injected fsync failure")
	tfs := newTimingFS(syncFailFS{storage.DefaultFS(), injected}, newTracer(time.Now()))
	path := filepath.Join(t.TempDir(), "f")
	f, err := tfs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Sync(); err != injected {
		t.Fatalf("Sync error = %v, want the injected error unchanged", err)
	}
	buf := make([]byte, 5)
	if n, err := f.ReadAt(buf, 0); n != 5 || err != nil || string(buf) != "hello" {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}
	if n, err := f.ReadAt(buf, 3); n != 2 || err != io.EOF {
		t.Fatalf("ReadAt past the end = %d, %v; want 2, io.EOF", n, err)
	}
	st := tfs.stats()
	if st.writes != 1 || st.writeBytes != 5 || st.syncs != 1 || st.reads != 2 || st.readBytes != 7 {
		t.Errorf("counters = %+v", st)
	}
	if _, err := tfs.Open(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Open of a missing file = %v, want ErrNotExist", err)
	}
	// Through the storage layer's own fault injector, the WAL sees the
	// injected error as if no timing layer were there.
	fault := storage.NewFaultFS(storage.DefaultFS())
	fault.Inject(storage.Fault{Op: storage.OpSync, Err: injected})
	g, err := newTimingFS(fault, newTracer(time.Now())).OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Sync(); !errors.Is(err, injected) {
		t.Errorf("FaultFS Sync through the timing FS = %v", err)
	}
}

// The RoundTripper and handler middleware pass requests and bodies
// through and record one span each.
func TestTimingHTTPPassThrough(t *testing.T) {
	tr := newTracer(time.Now())
	srv := httptest.NewServer(timingHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", r.Header.Get("X-In"))
		w.Write(bytes.ToUpper(body))
	}), tr, 3))
	defer srv.Close()
	rt := &timingTransport{inner: http.DefaultTransport, tr: tr, owners: map[string]uint64{strings.TrimPrefix(srv.URL, "http://"): 3}}
	client := &http.Client{Transport: rt}
	req, _ := http.NewRequest(http.MethodPost, srv.URL, strings.NewReader("abc"))
	req.Header.Set("X-In", "v")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ABC" || resp.Header.Get("X-Echo") != "v" {
		t.Errorf("response %q / %q altered", body, resp.Header.Get("X-Echo"))
	}
	rtts, owners := tr.byLayer("p2p.rtt"), tr.byLayer("p2p.owner")
	if len(rtts) != 1 || len(owners) != 1 || rtts[0].id != 3 || owners[0].id != 3 {
		t.Fatalf("spans: rtt %v owner %v", rtts, owners)
	}
	if owners[0].start < rtts[0].start || owners[0].end > rtts[0].end {
		t.Errorf("owner span %v not inside the round trip %v", owners[0], rtts[0])
	}
}

// BENCHMARK.json lists exactly the metrics the program reports, with
// the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		got := b.PerLayer[i]
		if got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, got, l.name, l.unit, l.better)
		}
	}
}
