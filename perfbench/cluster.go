package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/p2p"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// cluster-groupby (scatter-gather): two owner nodes ingest seeded
// (room, v, gen) partitions open loop into memory-only windows; one
// coordinator, all in-process on loopback HTTP servers, serves a
// closed-loop client's mix of distributed GROUP BY (partial-aggregate
// shipping), whole-statement routed and union-fallback queries. Almost
// no disk I/O, so WAL or repository changes should not move it.
const (
	cgOwners      = 2
	cgRooms       = 8
	cgWindow      = 1000 // owner window (count)
	cgAlertWindow = 200
	cgAlertMinV   = 900
	cgTick        = 4 * time.Millisecond // one element per owner per tick
	cgBin         = 5 * time.Second
)

var roomSchema = stream.MustSchema(
	stream.Field{Name: "src", Type: stream.TypeInt},
	stream.Field{Name: "seq", Type: stream.TypeInt},
	stream.Field{Name: "gen", Type: stream.TypeInt},
	stream.Field{Name: "room", Type: stream.TypeString},
	stream.Field{Name: "v", Type: stream.TypeInt},
)

const cgOutput = `<output-structure>
    <field name="src" type="integer"/><field name="seq" type="integer"/><field name="gen" type="integer"/>
    <field name="room" type="varchar"/><field name="v" type="integer"/>
  </output-structure>`

func cgMetricsDescriptor(owner int) string {
	return fmt.Sprintf(`<virtual-sensor name="metrics">
  %s
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="bench"><predicate key="kind" val="room"/><predicate key="id" val="%d"/></address>
      <query>select src, seq, gen, room, v from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, cgOutput, cgWindow, owner)
}

// cgAlertsDescriptor is owner 0's second sensor: a local composition
// over its metrics, owned by one node only, so statements over it are
// routed whole.
var cgAlertsDescriptor = fmt.Sprintf(`<virtual-sensor name="alerts">
  %s
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="local"><predicate key="sensor" val="metrics"/></address>
      <query>select * from WRAPPER where v &gt;= %d</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, cgOutput, cgAlertWindow, cgAlertMinV)

// cgQuery is one coordinator statement of the client mix.
type cgQuery struct {
	class string // partial | routed | union
	sql   string
	minV  int64 // partial: WHERE v >= minV
}

// cgMix draws the next coordinator statement: 85% distributed GROUP BY
// (four WHERE variants), 10% routed, 5% union fallback.
func cgMix(rng *rand.Rand) cgQuery {
	switch x := rng.Float64(); {
	case x < 0.85:
		k := int64(rng.Intn(4)) * 100
		return cgQuery{class: "partial", minV: k,
			sql: fmt.Sprintf("select room, count(*) as n, sum(v) as s, max(gen) as g from metrics where v >= %d group by room", k)}
	case x < 0.95:
		return cgQuery{class: "routed", sql: "select count(distinct room) as r, count(*) as n, max(gen) as g from alerts"}
	default:
		return cgQuery{class: "union", sql: "select room, count(distinct v) as u, count(*) as n from metrics group by room"}
	}
}

// cgRow is one logged output row.
type cgRow struct{ seq, gen, room, v int64 }

// rowLog is a subscriber's record of one sensor's outputs, in order.
type rowLog struct {
	mu   sync.Mutex
	rows []cgRow
}

func (l *rowLog) add(row cgRow) {
	l.mu.Lock()
	l.rows = append(l.rows, row)
	l.mu.Unlock()
}

// last returns the newest n rows (what a count window of n holds).
func (l *rowLog) last(n int) []cgRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]cgRow(nil), l.rows[max(0, len(l.rows)-n):]...)
}

// cgNode is one cluster member on its own loopback HTTP server.
type cgNode struct {
	c    *core.Container
	fed  *p2p.Federation
	ps   *p2p.Server
	srv  *http.Server
	url  string
	done chan struct{}
}

func newCGNode(name string, reg *wrappers.Registry, ln net.Listener, handler func(http.Handler) http.Handler) (*cgNode, error) {
	url := "http://" + ln.Addr().String()
	c, err := core.New(core.Options{Name: name, Registry: reg, NodeAddress: url})
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &cgNode{c: c, ps: p2p.NewServer(c, ""), url: url, done: make(chan struct{})}
	n.srv = &http.Server{Handler: handler(n.ps.Handler())}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	return n, nil
}

// close stops the server, waits for it, then closes the container.
func (n *cgNode) close() {
	n.srv.Close()
	<-n.done
	n.ps.Close()
	n.c.Close()
}

// cgCluster is one assembled cluster.
type cgCluster struct {
	owners    [cgOwners]*cgNode
	coord     *cgNode
	transport *http.Transport
	rt        *timingTransport
	emit      [cgOwners]wrappers.EmitFunc
	seq       [cgOwners]int64
	logs      [cgOwners]*rowLog
	alerts    *rowLog
	rec       *recorder
	in        inputs
}

func (cl *cgCluster) close() {
	if cl.coord != nil {
		cl.coord.close()
	}
	for _, o := range cl.owners {
		if o != nil {
			o.close()
		}
	}
	cl.transport.CloseIdleConnections()
}

func (cl *cgCluster) element(owner int, gen int64) stream.Element {
	seq := cl.seq[owner]
	cl.seq[owner]++
	src := int64(owner)
	return stream.MustElement(roomSchema, 0, src, seq, gen,
		roomName(cl.in.room(src, seq, cgRooms)), cl.in.v(src, seq))
}

func runClusterGroupBy(e *env, tr *tracer) (*report, error) {
	in := inputs{seed: e.seed}
	r, t := newReport(), newTally()
	build := func() (*cgCluster, error) { return newCGCluster(e, tr, in) }
	if err := timeSetups(t, build, (*cgCluster).close); err != nil {
		return nil, err
	}
	phase := time.Duration(e.seconds * float64(time.Second) / subRuns)
	for i := 0; i < subRuns; i++ {
		start := time.Now()
		cl, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.setup = append(t.setup, time.Since(start).Seconds())
		err = cl.measure(e, tr, r, t, phase, i)
		cl.close()
		if err != nil {
			return nil, err
		}
	}
	t.finish(r)
	t.setQ(r, "fresh_p50_ms", "ms", "fresh", 0.5)
	t.setQ(r, "fresh_p99_ms", "ms", "fresh", 0.99)
	t.setRate(r, "outputs_per_s", "delivered")
	t.setQ(r, "op_p50_ms", "ms", "op", 0.5)
	t.setQ(r, "op_p99_ms", "ms", "op", 0.99)
	t.setRate(r, "op_per_s", "op")
	for _, class := range []string{"partial", "routed", "union"} {
		t.setQ(r, "cluster."+class+"_us.p50", "us", class, 0.5)
	}
	arrivals := t.sums["arrivals"]
	r.set("ingress.emits", "count", arrivals, int(arrivals))
	r.set("trigger.arrivals", "count", arrivals, int(arrivals))
	r.set("trigger.outputs_per_arrival", "ratio", ratio(t.sums["metrics_outputs"], arrivals), int(arrivals))
	partials, unions := t.k.m["cluster_partial_queries"], t.k.m["cluster_union_queries"]
	r.set("fed.partial_queries", "count", partials, int(partials))
	r.set("fed.partial_bytes_per_query", "B", ratio(t.sums["partial_bytes"], partials), int(partials))
	r.set("fed.union_queries", "count", unions, int(unions))
	r.set("fed.union_bytes_per_query", "B", ratio(t.sums["union_bytes"], unions), int(unions))
	t.lagReport(r)
	if tr != nil {
		cgLayers(r, tr, t)
	}
	return r, nil
}

// newCGCluster builds the owners, the coordinator and the federation
// between them, gossips the directory and warms every query class up.
func newCGCluster(e *env, tr *tracer, in inputs) (*cgCluster, error) {
	cl := &cgCluster{in: in, rec: newRecorder(), alerts: &rowLog{}}
	// At most one connection per owner: the coordinator's client calls
	// owners one at a time.
	cl.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = cl.transport
	if tr != nil {
		cl.rt = &timingTransport{inner: cl.transport, tr: tr, owners: map[string]uint64{}}
		rt = cl.rt
	}
	ok := false
	defer func() {
		if !ok {
			cl.close()
		}
	}()
	hub := newSourceHub(map[string]*stream.Schema{"room": roomSchema})
	for o := 0; o < cgOwners; o++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		wrap := func(h http.Handler) http.Handler { return h }
		if tr != nil {
			owner := uint64(o)
			wrap = func(h http.Handler) http.Handler { return timingHandler(h, tr, owner) }
			cl.rt.owners[ln.Addr().String()] = owner
		}
		n, err := newCGNode(fmt.Sprintf("owner-%d", o), hub.registry(), ln, wrap)
		if err != nil {
			return nil, err
		}
		cl.owners[o] = n
		if err := n.c.DeployXML([]byte(cgMetricsDescriptor(o))); err != nil {
			return nil, err
		}
		if o == 0 {
			if err := n.c.DeployXML([]byte(cgAlertsDescriptor)); err != nil {
				return nil, err
			}
			if err := subscribe(n.c, "alerts", func(ev notify.Event) { cl.alerts.add(cgRowOf(ev.Element)) }); err != nil {
				return nil, err
			}
		}
		cl.logs[o] = &rowLog{}
		if err := subscribe(n.c, "metrics", cl.onOutput(e, o)); err != nil {
			return nil, err
		}
		if cl.emit[o], _, err = hub.emitters(fmt.Sprint(o)); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coord, err := newCGNode("coordinator", nil, ln, func(h http.Handler) http.Handler { return h })
	if err != nil {
		return nil, err
	}
	cl.coord = coord
	coord.fed = p2p.NewFederation(coord.c, &http.Client{Transport: rt, Timeout: 10 * time.Second})
	coord.c.SetCluster(coord.fed)
	for _, o := range cl.owners {
		coord.fed.AddPeer(o.url)
	}
	coord.fed.GossipRound()
	if got := coord.fed.Owners("metrics"); len(got) != cgOwners {
		return nil, fmt.Errorf("perfbench: coordinator sees %d owners of metrics after gossip", len(got))
	}

	// Warm-up: a window's worth of rows per owner, then one partial and
	// one routed statement (the union fallback, which moves the whole
	// windows, is left to the measured phase: it would dominate set-up).
	for k := 0; k < cgWindow; k++ {
		for o := range cl.owners {
			cl.emit[o](cl.element(o, e.now()))
		}
	}
	if err := quiesce(setupPoll, cl.owners[0].c, cl.owners[1].c); err != nil {
		return nil, err
	}
	for _, q := range cgQuiescent() {
		if q.class == "union" || q.minV > 0 {
			continue
		}
		if _, err := coord.c.Query(q.sql); err != nil {
			return nil, err
		}
	}
	ok = true
	return cl, nil
}

func cgRowOf(el stream.Element) cgRow {
	room, _ := el.ValueByName("ROOM")
	var r int64
	if s, ok := room.(string); ok {
		fmt.Sscanf(s, "r%d", &r)
	}
	return cgRow{seq: intField(el, "SEQ"), gen: intField(el, "GEN"), room: r, v: intField(el, "V")}
}

// onOutput is owner o's metrics subscriber: it logs the row, checks it
// against the generated inputs and records freshness.
func (cl *cgCluster) onOutput(e *env, o int) func(notify.Event) {
	return func(ev notify.Event) {
		t := e.now()
		row := cgRowOf(ev.Element)
		cl.logs[o].add(row)
		src := int64(o)
		if intField(ev.Element, "SRC") != src || row.v != cl.in.v(src, row.seq) || row.room != cl.in.room(src, row.seq, cgRooms) {
			cl.rec.count("mismatch", 1)
		}
		cl.rec.sample("fresh", row.gen, float64(t-row.gen)/1e6)
		cl.rec.count("outputs", 1)
	}
}

// measure runs one sub-run: the open-loop owner ingest on one
// goroutine and the closed-loop coordinator client on this one, then a
// quiescent reference check of every query class.
func (cl *cgCluster) measure(e *env, tr *tracer, r *report, t *tally, phase time.Duration, sub int) error {
	owners := []*core.Container{cl.owners[0].c, cl.owners[1].c}
	m := begin(e, nil, append(owners, cl.coord.c)...)
	info0 := cl.coord.fed.Info()
	var rtErr0 int64
	if cl.rt != nil {
		rtErr0 = cl.rt.errors.Load()
	}
	start := time.Now()
	end := start.Add(phase)
	from, to := int64(start.Sub(e.epoch)), int64(end.Sub(e.epoch))
	nb := bins(phase, cgBin)
	cl.rec.reset(from, to, nb)

	var arrivals int64
	lag := &dist{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		openLoop(start, end, cgTick, lag, func(k int64, due time.Time) {
			gen := int64(due.Sub(e.epoch))
			for o := range cl.owners {
				el := cl.element(o, gen)
				t0 := e.now()
				cl.emit[o](el)
				tr.add("emit", key(int64(o), cl.seq[o]-1), t0, e.now())
			}
			arrivals += cgOwners
		})
	}()

	ops := newBinned(from, to, nb)
	classes := map[string]*binned{}
	for _, c := range []string{"partial", "routed", "union"} {
		classes[c] = newBinned(from, to, nb)
	}
	var queries, qerrs, bad int64
	qrng := rand.New(rand.NewSource(e.seed + 2 + int64(sub)))
	for ; time.Now().Before(end); time.Sleep(thinkTime) {
		q := cgMix(qrng)
		t0 := e.now()
		rel, err := cl.coord.c.Query(q.sql)
		t1 := e.now()
		tr.add("query", uint64(queries), t0, t1)
		queries++
		ops.add(t0, float64(t1-t0)/1e6)
		classes[q.class].add(t0, float64(t1-t0)/1e3)
		if err != nil {
			qerrs++
			continue
		}
		if !cgPlausible(q, rel) {
			bad++
			r.note("%s returned %v", q.sql, rel.Rows)
		}
	}
	elapsed := time.Since(start).Seconds()
	<-done
	if err := quiesce(phasePoll, owners...); err != nil {
		return err
	}
	info1 := cl.coord.fed.Info()
	if cl.rt != nil {
		t.sums["p2p_errors"] += float64(cl.rt.errors.Load() - rtErr0)
	}
	t.end(e, m, nil, arrivals+queries, append(owners, cl.coord.c)...)

	// Quiescent check: every statement of the mix against the windows
	// the subscribers logged.
	var exact int64
	for _, q := range cgQuiescent() {
		rel, err := cl.coord.c.Query(q.sql)
		exact++
		if err != nil {
			qerrs++
			continue
		}
		if err := cl.checkExact(q, rel); err != nil {
			bad++
			r.note("quiescent %v", err)
		}
	}

	t.addBins("fresh", cl.rec.binned("fresh"))
	t.addRate("delivered", cl.rec.get("outputs"), elapsed)
	t.addBins("op", ops)
	t.addRate("op", queries, elapsed)
	for c, b := range classes {
		t.addBins(c, b)
	}
	t.lag.merge(lag)
	t.sums["arrivals"] += float64(arrivals)
	t.sums["metrics_outputs"] += float64(cl.rec.get("outputs"))
	t.sums["partial_bytes"] += float64(info1.PartialBytes - info0.PartialBytes)
	t.sums["union_bytes"] += float64(info1.UnionBytes - info0.UnionBytes)
	r.attempted += arrivals + queries + exact
	r.fail("query_errors", qerrs)
	r.fail("reference_mismatches", bad+cl.rec.get("mismatch"))
	cl.rec.reset(0, 0, 0)
	t.measureHeap()
	return nil
}

// cgQuiescent lists every distinct statement of the mix.
func cgQuiescent() []cgQuery {
	seen := map[string]bool{}
	var out []cgQuery
	rng := rand.New(rand.NewSource(1))
	for len(out) < 6 {
		q := cgMix(rng)
		if !seen[q.sql] {
			seen[q.sql] = true
			out = append(out, q)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sql < out[j].sql })
	return out
}

// cgPlausible bounds a result taken while the windows slide: group
// counts within the windows, sums within the value range.
func cgPlausible(q cgQuery, rel *sqlengine.Relation) bool {
	switch q.class {
	case "routed":
		if len(rel.Rows) != 1 {
			return false
		}
		r, ok1 := asInt(rel.Rows[0][0])
		n, ok2 := asInt(rel.Rows[0][1])
		return ok1 && ok2 && r >= 0 && r <= cgRooms && n >= 0 && n <= cgAlertWindow
	case "union":
		var total int64
		for _, row := range rel.Rows {
			u, ok1 := asInt(row[1])
			n, ok2 := asInt(row[2])
			if !ok1 || !ok2 || u < 1 || u > n {
				return false
			}
			total += n
		}
		return len(rel.Rows) <= cgRooms && total <= cgOwners*cgWindow
	}
	var total int64
	for _, row := range rel.Rows {
		n, ok1 := asInt(row[1])
		s, ok2 := asInt(row[2])
		if !ok1 || !ok2 || n < 1 || s < q.minV*n || s > 999*n {
			return false
		}
		total += n
	}
	return len(rel.Rows) <= cgRooms && total <= cgOwners*cgWindow
}

// checkExact compares a quiescent result with the reference computed
// from the logged windows: each owner's last cgWindow metrics rows and
// owner 0's last cgAlertWindow alerts rows.
func (cl *cgCluster) checkExact(q cgQuery, rel *sqlengine.Relation) error {
	type grp struct {
		n, s, g int64
		vs      map[int64]bool
	}
	if q.class == "routed" {
		rows := cl.alerts.last(cgAlertWindow)
		rooms := map[int64]bool{}
		var g int64
		for _, row := range rows {
			rooms[row.room] = true
			g = max(g, row.gen)
		}
		want := []int64{int64(len(rooms)), int64(len(rows)), g}
		if len(rel.Rows) != 1 {
			return errors.New("routed: row count")
		}
		for i, w := range want {
			if got, ok := asInt(rel.Rows[0][i]); !ok || got != w {
				return fmt.Errorf("routed: column %d = %v, want %d", i, rel.Rows[0][i], w)
			}
		}
		return nil
	}
	ref := map[int64]*grp{}
	for o := range cl.logs {
		for _, row := range cl.logs[o].last(cgWindow) {
			if q.class == "partial" && row.v < q.minV {
				continue
			}
			gr := ref[row.room]
			if gr == nil {
				gr = &grp{vs: map[int64]bool{}}
				ref[row.room] = gr
			}
			gr.n++
			gr.s += row.v
			gr.g = max(gr.g, row.gen)
			gr.vs[row.v] = true
		}
	}
	if len(rel.Rows) != len(ref) {
		return fmt.Errorf("%s: %d groups, want %d", q.class, len(rel.Rows), len(ref))
	}
	for _, row := range rel.Rows {
		name, _ := row[0].(string)
		var room int64
		fmt.Sscanf(name, "r%d", &room)
		gr := ref[room]
		if gr == nil {
			return fmt.Errorf("%s: unexpected group %v", q.class, row[0])
		}
		want := []int64{gr.n, gr.s, gr.g}
		if q.class == "union" {
			want = []int64{int64(len(gr.vs)), gr.n}
		}
		for i, w := range want {
			if got, ok := asInt(row[i+1]); !ok || got != w {
				return fmt.Errorf("%s: group %s column %d = %v, want %d", q.class, name, i+1, row[i+1], w)
			}
		}
	}
	return nil
}

// cgLayers derives the federation and coordinator span metrics.
func cgLayers(r *report, tr *tracer, t *tally) {
	in := t.spans(tr)
	emitLayer(r, in)
	rtts, owners, queries := in("p2p.rtt"), in("p2p.owner"), in("query")
	rtt, own := &dist{}, &dist{}
	for _, s := range rtts {
		rtt.add(float64(s.dur()) / 1e3)
	}
	for _, s := range owners {
		own.add(float64(s.dur()) / 1e3)
	}
	layerQ(r, "p2p.rtt_us", rtt, true)
	layerQ(r, "p2p.owner_us", own, false)
	// Wire time: each round trip minus the owner handler span it
	// contains (same owner; the coordinator calls one owner at a time).
	wire := &dist{}
	j := 0
	for _, s := range rtts {
		for j < len(owners) && owners[j].start < s.start {
			j++
		}
		for k := j; k < len(owners) && owners[k].start < s.end; k++ {
			if owners[k].id == s.id && owners[k].end <= s.end {
				wire.add(float64(s.dur()-owners[k].dur()) / 1e3)
				break
			}
		}
	}
	layerQ(r, "p2p.wire_us", wire, false)
	self := &dist{}
	for _, st := range selfTimes(queries, rtts) {
		self.add(float64(st) / 1e3)
	}
	layerQ(r, "coord.self_us", self, false)
	r.set("p2p.calls_per_query", "ratio", ratio(float64(len(rtts)), float64(len(queries))), len(queries))
	r.set("p2p.errors", "count", t.sums["p2p_errors"], len(rtts))
}
