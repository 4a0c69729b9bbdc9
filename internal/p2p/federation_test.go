package p2p

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gsn/internal/core"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// The federation tests assemble real multi-node clusters in-process:
// every node is a full container serving its p2p interface on a real
// TCP listener, peered through Federation — the same wiring gsn.NewNode
// performs, minus the package (p2p tests cannot import the root package
// without a cycle).

var feedSchema = stream.MustSchema(
	stream.Field{Name: "room", Type: stream.TypeString},
	stream.Field{Name: "v", Type: stream.TypeInt},
	stream.Field{Name: "f", Type: stream.TypeFloat},
)

// feedWrapper replays a predetermined row list, one element per pulse —
// deterministic partitions for the equivalence tests. Floats are kept
// to dyadic fractions by the callers so partial-sum merges stay exact.
type feedWrapper struct {
	clock stream.Clock

	mu   sync.Mutex
	rows [][]stream.Value
	i    int
}

func (w *feedWrapper) Kind() string                  { return "feed" }
func (w *feedWrapper) Schema() *stream.Schema        { return feedSchema }
func (w *feedWrapper) Start(wrappers.EmitFunc) error { return nil }
func (w *feedWrapper) Stop() error                   { return nil }
func (w *feedWrapper) Produce() (stream.Element, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.i >= len(w.rows) {
		return stream.Element{}, fmt.Errorf("feed exhausted after %d rows", w.i)
	}
	row := w.rows[w.i]
	w.i++
	return stream.MustElement(feedSchema, w.clock.Now(), row...), nil
}

// feedRegistry resolves wrapper="feed" addresses by their feed
// predicate, so one node can host several independently-driven sensors.
func feedRegistry(feeds map[string]*feedWrapper) *wrappers.Registry {
	reg := wrappers.NewRegistry()
	reg.Register("feed", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		key := cfg.Params.Get("feed", "")
		w, ok := feeds[key]
		if !ok {
			return nil, fmt.Errorf("no feed named %q", key)
		}
		return w, nil
	})
	return reg
}

func feedDescriptor(sensor, feedKey string) string {
	return `
<virtual-sensor name="` + sensor + `">
  <output-structure>
    <field name="room" type="varchar"/>
    <field name="v" type="integer"/>
    <field name="f" type="double"/>
  </output-structure>
  <storage size="1000"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="feed"><predicate key="feed" val="` + feedKey + `"/></address>
      <query>select room, v, f from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
}

// fedNode is one cluster member: container + p2p server + federation.
type fedNode struct {
	t   *testing.T
	c   *core.Container
	fed *Federation
	srv *http.Server
	url string
}

// newFedNode binds the listener before building the container so the
// advertised NodeAddress (which directory publications carry, and which
// placement resolution depends on) is the node's real serving address.
func newFedNode(t *testing.T, name string, clock stream.Clock, reg *wrappers.Registry, httpc *http.Client) *fedNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	c, err := core.New(core.Options{
		Name:           name,
		Clock:          clock,
		SyncProcessing: true,
		Registry:       reg,
		NodeAddress:    url,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &fedNode{t: t, c: c, url: url}
	n.fed = NewFederation(c, httpc)
	c.SetCluster(n.fed)
	p2pSrv := NewServer(c, "")
	n.srv = &http.Server{Handler: p2pSrv.Handler()}
	go n.srv.Serve(ln)
	t.Cleanup(func() {
		n.srv.Close()
		p2pSrv.Close()
		c.Close()
	})
	return n
}

// produce pulses one named sensor n times, advancing the shared clock.
func (n *fedNode) produce(clock *stream.ManualClock, sensor string, count int) {
	n.t.Helper()
	vs, ok := n.c.Sensor(sensor)
	if !ok {
		n.t.Fatalf("sensor %s not deployed on %s", sensor, n.url)
	}
	for i := 0; i < count; i++ {
		clock.Advance(time.Millisecond)
		if got := vs.Pulse(); got != 1 {
			n.t.Fatalf("pulse on %s injected %d elements", sensor, got)
		}
	}
}

// jsonOf renders a relation through the same typed wire shape the
// federation uses, for order- and type-exact comparison that ignores
// table qualifiers (a routed result legitimately loses them).
func jsonOf(t *testing.T, rel *sqlengine.Relation) string {
	t.Helper()
	b, err := json.Marshal(typedOfRelation(rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFederationGroupByEquivalence is the distributed half of the
// GROUP BY equivalence property: a coordinator answering over 3 worker
// partitions via partial-aggregate shipping must produce byte-identical
// results to a single-node interpreted execution over the union stream
// (concatenated in the coordinator's contract order: local window
// first, then owners sorted by address). Partitions are skewed — one
// worker holds most rows, one holds a disjoint key set, one is empty —
// and the query list covers every mergeable aggregate, expression
// keys, WHERE, HAVING, ORDER BY/LIMIT, ungrouped folds and
// empty-after-WHERE synthesis. Non-distributable statements take the
// union fallback and must agree too.
func TestFederationGroupByEquivalence(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)

	// Skewed partitions over dyadic-fraction floats (exact float sums,
	// so byte-identity is achievable): worker 0 heavy on rooms a/b,
	// worker 1 holds the only c rows, worker 2 stays empty.
	partitions := [][][]stream.Value{
		{
			{"a", int64(1), 0.25}, {"a", int64(2), 0.5}, {"a", int64(3), -1.75},
			{"b", int64(10), 2.25}, {"b", int64(11), 0.0}, {"a", int64(4), 3.5},
			{"b", int64(12), -0.5}, {"a", int64(5), 1.25}, {"a", int64(6), 0.75},
			{"b", int64(13), 4.0},
		},
		{
			{"c", int64(100), 10.5}, {"c", int64(101), -2.25},
			{"b", int64(14), 1.5}, {"c", int64(102), 0.25},
		},
		{},
	}

	workers := make([]*fedNode, len(partitions))
	for i := range partitions {
		feeds := map[string]*feedWrapper{"metrics": {clock: clock, rows: partitions[i]}}
		w := newFedNode(t, fmt.Sprintf("worker%d", i), clock, feedRegistry(feeds), nil)
		if err := w.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	coordRows := [][]stream.Value{
		{"a", int64(7), -0.25}, {"d", int64(1000), 0.5}, {"b", int64(15), 2.5},
	}
	coordFeeds := map[string]*feedWrapper{"metrics": {clock: clock, rows: coordRows}}
	coord := newFedNode(t, "coord", clock, feedRegistry(coordFeeds), nil)
	for _, w := range workers {
		coord.fed.AddPeer(w.url)
	}
	coord.fed.GossipRound()

	if owners := coord.fed.Owners("metrics"); len(owners) != len(workers) {
		t.Fatalf("owners of metrics = %v, want all %d workers", owners, len(workers))
	}
	for i, w := range workers {
		w.produce(clock, "metrics", len(partitions[i]))
	}

	// Reference: the union stream a single node would hold, concatenated
	// in the coordinator's contract order. Phase 1 has no local window.
	unionRelation := func(includeLocal bool) *sqlengine.Relation {
		order := append([]*fedNode{}, workers...)
		sort.Slice(order, func(i, j int) bool { return order[i].url < order[j].url })
		tab, ok := workers[0].c.Store().Table("METRICS")
		if !ok {
			t.Fatal("worker metrics table missing")
		}
		union := &sqlengine.Relation{Cols: sqlengine.ColumnsOfSchema(tab.Schema())}
		if includeLocal {
			local, ok := coord.c.Store().Table("METRICS")
			if !ok {
				t.Fatal("coordinator metrics table missing")
			}
			union.Rows = append(union.Rows, sqlengine.RowsOfSource(local)...)
		}
		for _, w := range order {
			wtab, ok := w.c.Store().Table("METRICS")
			if !ok {
				t.Fatalf("metrics table missing on %s", w.url)
			}
			union.Rows = append(union.Rows, sqlengine.RowsOfSource(wtab)...)
		}
		return union
	}

	queries := []string{
		// distributable: every mergeable aggregate, keys, filters
		"select room, count(*) as n from metrics group by room",
		"select room, count(f) as nf, sum(f) as s, avg(f) as a from metrics group by room",
		"select room, min(v) as mn, max(v) as mx, avg(v) as av from metrics group by room",
		"select room, first(v) as fv, last(v) as lv from metrics group by room",
		"select v % 3 as bucket, sum(v) as s from metrics group by v % 3",
		"select room, count(*) as n from metrics where v > 4 group by room",
		"select room, count(*) as n from metrics group by room having count(*) > 2",
		"select room, sum(v) as s from metrics group by room order by s desc limit 2",
		"select count(*) as n, sum(v) as s, min(f) as mn from metrics",
		"select room, count(*) as n from metrics where v > 100000 group by room",
		// not distributable: raw-row union fallback
		"select room, count(distinct v) as n from metrics group by room",
	}
	check := func(phase string, includeLocal bool) {
		t.Helper()
		union := unionRelation(includeLocal)
		for _, sql := range queries {
			stmt, err := sqlengine.ParseCached(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			want, err := sqlengine.Execute(stmt, sqlengine.MapCatalog{"METRICS": union}, sqlengine.Options{Clock: clock})
			if err != nil {
				t.Fatalf("%s: reference execution: %v", sql, err)
			}
			got, err := coord.c.Query(sql)
			if err != nil {
				t.Fatalf("%s: coordinator: %v", sql, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s: %q diverged from single-node execution\ncluster:\n%s\nsingle-node:\n%s",
					phase, sql, got, want)
			}
		}
	}

	// Phase 1: the coordinator owns no partition — purely remote folds.
	check("remote-only", false)

	// Phase 2: the coordinator holds a partition of its own, so the
	// merge is local fold + shipped partials (and the union fallback
	// mixes local rows with fetched ones).
	if err := coord.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
		t.Fatal(err)
	}
	coord.produce(clock, "metrics", len(coordRows))
	check("local+remote", true)

	info := coord.fed.Info()
	if info.PartialBytes == 0 {
		t.Error("partial transport moved 0 bytes despite distributable queries")
	}
	if info.UnionBytes == 0 {
		t.Error("union transport moved 0 bytes despite the DISTINCT fallback query")
	}
	if nodes := info.Placements["METRICS"]; len(nodes) != len(workers)+1 {
		t.Errorf("placements[METRICS] = %v, want %d nodes", nodes, len(workers)+1)
	}
	snap := coord.c.MetricsSnapshot()
	if n := snap["cluster_partial_queries"].(uint64); n < 2 {
		t.Errorf("cluster_partial_queries = %d, want >= 2", n)
	}
	if n := snap["cluster_union_queries"].(uint64); n < 2 {
		t.Errorf("cluster_union_queries = %d, want >= 2", n)
	}
}

// TestFederationPartialBytesFlat: partial-aggregate shipping moves
// bytes in proportion to the group count, the raw-row union fallback in
// proportion to the window volume. At 2 owners, doubling the rows per
// owner must leave the partial bytes per query near flat while the
// union bytes grow with the rows, and partials must stay a small
// fraction of the union.
func TestFederationPartialBytesFlat(t *testing.T) {
	const (
		rooms            = 8
		maxPartialGrowth = 1.5
		minUnionGrowth   = 1.5
		maxPartialShare  = 0.2
	)
	// bytesPerQuery assembles 2 owners holding rowsPerOwner rows each
	// and a coordinator with no window of its own, and returns the bytes
	// one distributed GROUP BY moves through each transport.
	bytesPerQuery := func(rowsPerOwner int) (partial, union uint64) {
		clock := stream.NewManualClock(1_000_000)
		coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), nil)
		for i := 0; i < 2; i++ {
			rows := make([][]stream.Value, rowsPerOwner)
			for j := range rows {
				rows[j] = []stream.Value{fmt.Sprintf("r%d", j%rooms), int64(j), float64(j%4) / 4}
			}
			owner := newFedNode(t, fmt.Sprintf("owner-%d", i), clock,
				feedRegistry(map[string]*feedWrapper{"metrics": {clock: clock, rows: rows}}), nil)
			if err := owner.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
				t.Fatal(err)
			}
			owner.produce(clock, "metrics", rowsPerOwner)
			coord.fed.AddPeer(owner.url)
		}
		coord.fed.GossipRound()
		run := func(sql string) core.ClusterInfo {
			t.Helper()
			rel, err := coord.c.Query(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if len(rel.Rows) != rooms {
				t.Fatalf("%s: %d groups, want %d", sql, len(rel.Rows), rooms)
			}
			return coord.fed.Info()
		}
		before := coord.fed.Info()
		mid := run("select room, count(*) as n, sum(v) as total, avg(v) as mean from metrics group by room order by room")
		// DISTINCT is not distributable, so the same rollup takes the
		// union fallback.
		after := run("select room, count(distinct v) as u from metrics group by room order by room")
		if mid.UnionBytes != before.UnionBytes || after.PartialBytes != mid.PartialBytes {
			t.Fatalf("a query took the other transport: before %+v, mid %+v, after %+v", before, mid, after)
		}
		return mid.PartialBytes - before.PartialBytes, after.UnionBytes - mid.UnionBytes
	}
	p1, u1 := bytesPerQuery(500)
	p2, u2 := bytesPerQuery(1000)
	t.Logf("partial %d -> %d B, union %d -> %d B", p1, p2, u1, u2)
	if g := float64(p2) / float64(p1); g >= maxPartialGrowth {
		t.Errorf("doubling the rows grew partial bytes %.2fx, want < %.1fx", g, maxPartialGrowth)
	}
	if g := float64(u2) / float64(u1); g <= minUnionGrowth {
		t.Errorf("doubling the rows grew union bytes %.2fx, want > %.1fx", g, minUnionGrowth)
	}
	for _, c := range []struct{ partial, union uint64 }{{p1, u1}, {p2, u2}} {
		if share := float64(c.partial) / float64(c.union); share >= maxPartialShare {
			t.Errorf("partial/union = %d/%d = %.3f, want < %.1f", c.partial, c.union, share, maxPartialShare)
		}
	}
}

// TestFederationRoutedQuery: a non-distributable statement against a
// sensor with exactly one remote owner and no local window routes whole
// to the owner and comes back typed — identical to asking the owner
// directly.
func TestFederationRoutedQuery(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"x", int64(1), 0.5}, {"y", int64(2), 1.25}, {"x", int64(3), -0.75},
	}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"solo": {clock: clock, rows: rows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("solo", "solo"))); err != nil {
		t.Fatal(err)
	}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), nil)
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "solo", len(rows))

	sql := "select room, v, f from solo order by v"
	want, err := worker.c.LocalQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.c.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if jsonOf(t, got) != jsonOf(t, want) {
		t.Errorf("routed result diverged\nrouted: %s\nowner:  %s", jsonOf(t, got), jsonOf(t, want))
	}
	if n := coord.c.MetricsSnapshot()["cluster_routed_queries"].(uint64); n != 1 {
		t.Errorf("cluster_routed_queries = %d, want 1", n)
	}
	if coord.fed.Info().RoutedBytes == 0 {
		t.Error("routed transport counted 0 bytes")
	}
}

// TestFederationRemoteCompositionEdge: a wrapper="local" source whose
// upstream lives on another node resolves through the cluster to a
// remote edge and behaves like an in-process subscription — elements
// land in the downstream source window, exactly once, through the
// ordinary quality chain.
func TestFederationRemoteCompositionEdge(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"a", int64(1), 0.25}, {"b", int64(2), 0.5}, {"a", int64(3), 0.75},
		{"b", int64(4), 1.0}, {"a", int64(5), 1.25},
	}
	producer := newFedNode(t, "producer", clock,
		feedRegistry(map[string]*feedWrapper{"src": {clock: clock, rows: rows}}), nil)
	if err := producer.c.DeployXML([]byte(feedDescriptor("src", "src"))); err != nil {
		t.Fatal(err)
	}
	consumer := newFedNode(t, "consumer", clock, wrappers.NewRegistry(), nil)
	consumer.fed.AddPeer(producer.url)
	consumer.fed.GossipRound()

	// The mirror's descriptor names only the upstream sensor — it does
	// not know (and must not care) that src lives on another node. The
	// poll predicate tunes the remote edge like an explicit remote
	// wrapper would.
	mirror := `
<virtual-sensor name="mirror">
  <output-structure>
    <field name="room" type="varchar"/>
    <field name="v" type="integer"/>
    <field name="f" type="double"/>
  </output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1000">
      <address wrapper="local">
        <predicate key="sensor" val="src"/>
        <predicate key="poll" val="40"/>
      </address>
      <query>select room, v, f from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
	if err := consumer.c.DeployXML([]byte(mirror)); err != nil {
		t.Fatalf("deploying mirror over a remote upstream: %v", err)
	}
	if n := consumer.c.MetricsSnapshot()["cluster_remote_edges"].(uint64); n == 0 {
		t.Fatal("no cluster_remote_edges counted: the edge resolved in-process?")
	}

	producer.produce(clock, "src", len(rows))
	window := func() []int64 {
		tab, ok := consumer.c.Store().Table("MIRROR__IN__S")
		if !ok {
			return nil
		}
		var out []int64
		for _, e := range tab.Snapshot() {
			out = append(out, e.Value(1).(int64))
		}
		return out
	}
	waitForLong(t, 15*time.Second, func() bool { return len(window()) >= len(rows) }, "remote edge catch-up")
	got := window()
	if len(got) != len(rows) {
		t.Fatalf("mirror window holds %d elements, want %d", len(got), len(rows))
	}
	for i, v := range got {
		if want := rows[i][1].(int64); v != want {
			t.Errorf("window[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestFederationRoutedRegistration: registering a continuous query
// against a remotely-owned sensor forwards to the owner and streams
// result revisions back; unregistering stops the stream and tears the
// peer session down.
func TestFederationRoutedRegistration(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{
		{"a", int64(1), 0.5}, {"a", int64(2), 0.75}, {"b", int64(3), 1.0},
	}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"src": {clock: clock, rows: rows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("src", "src"))); err != nil {
		t.Fatal(err)
	}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), nil)
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()

	// Produce before registering: the registration must seed an initial
	// result revision from the current window, so the first delivery
	// arrives without any further arrivals. This is what lets a session
	// re-created after a peer restart catch up between inserts.
	worker.produce(clock, "src", len(rows))

	var mu sync.Mutex
	var results []*sqlengine.Relation
	id, err := coord.c.RegisterQuery("src", "select count(*) as n from src", 1.0, func(rel *sqlengine.Relation) {
		mu.Lock()
		results = append(results, rel)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if id >= 0 {
		t.Fatalf("routed registration id = %d, want negative", id)
	}

	waitForLong(t, 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(results) == 0 {
			return false
		}
		last := results[len(results)-1]
		return len(last.Rows) == 1 && last.Rows[0][0] == int64(len(rows))
	}, "seeded initial routed result")

	if err := coord.c.UnregisterQuery(id); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	if err := coord.c.UnregisterQuery(id); err == nil {
		t.Error("double unregister succeeded")
	}
	if n := coord.c.MetricsSnapshot()["cluster_routed_registrations"].(uint64); n != 1 {
		t.Errorf("cluster_routed_registrations = %d, want 1", n)
	}
}

// TestFederationUnreachableOwner pins partitioned-coordinator
// semantics: when any owner of the queried sensor is unreachable the
// query fails loudly, naming the node — a partial answer is never
// served as if it were complete.
func TestFederationUnreachableOwner(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	rows := [][]stream.Value{{"a", int64(1), 0.5}}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"metrics": {clock: clock, rows: rows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("metrics", "metrics"))); err != nil {
		t.Fatal(err)
	}
	ft := NewFaultTransport(nil)
	httpc := &http.Client{Transport: ft, Timeout: 10 * time.Second}
	coord := newFedNode(t, "coord", clock, wrappers.NewRegistry(), httpc)
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "metrics", len(rows))

	sql := "select room, count(*) as n from metrics group by room"
	if _, err := coord.c.Query(sql); err != nil {
		t.Fatalf("pre-partition query failed: %v", err)
	}

	ft.Partition(hostOf(t, worker.url))
	_, err := coord.c.Query(sql)
	if err == nil {
		t.Fatal("partitioned owner answered silently")
	}
	if !strings.Contains(err.Error(), worker.url) || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("error %q does not name the unreachable owner %s", err, worker.url)
	}
	ft.Heal()
	if _, err := coord.c.Query(sql); err != nil {
		t.Errorf("post-heal query failed: %v", err)
	}
}

// TestFederationNotFederatableShapes: cluster routing only understands
// single-base-table statements, so a join, compound or subquery that
// touches a remotely-owned table beyond that base must fail with an
// explicit error — never silently answer from the coordinator's local
// window. A remote base with a purely local subquery, by contrast, IS
// answerable: the union path federates the base rows and resolves the
// subquery through the local catalog.
func TestFederationNotFederatableShapes(t *testing.T) {
	clock := stream.NewManualClock(1_000_000)
	workerRows := [][]stream.Value{{"a", int64(1), 0.5}, {"b", int64(2), 0.75}}
	worker := newFedNode(t, "worker", clock,
		feedRegistry(map[string]*feedWrapper{"rem": {clock: clock, rows: workerRows}}), nil)
	if err := worker.c.DeployXML([]byte(feedDescriptor("rem", "rem"))); err != nil {
		t.Fatal(err)
	}
	coordRows := [][]stream.Value{{"a", int64(1), 0.25}, {"c", int64(3), 1.0}}
	coord := newFedNode(t, "coord", clock,
		feedRegistry(map[string]*feedWrapper{"loc": {clock: clock, rows: coordRows}}), nil)
	if err := coord.c.DeployXML([]byte(feedDescriptor("loc", "loc"))); err != nil {
		t.Fatal(err)
	}
	coord.fed.AddPeer(worker.url)
	coord.fed.GossipRound()
	worker.produce(clock, "rem", len(workerRows))
	coord.produce(clock, "loc", len(coordRows))

	for _, sql := range []string{
		"select l.v, r.v from loc l, rem r",                   // join
		"select room from loc union select room from rem",     // compound
		"select room from loc where v in (select v from rem)", // subquery under a local base
	} {
		_, err := coord.c.Query(sql)
		if err == nil || !strings.Contains(err.Error(), "not federatable") {
			t.Errorf("%s: err = %v, want a not-federatable error", sql, err)
		}
	}

	got, err := coord.c.Query("select room, v from rem where v in (select v from loc) order by v")
	if err != nil {
		t.Fatalf("remote base with local subquery: %v", err)
	}
	if len(got.Rows) != 1 || got.Rows[0][0] != "a" || got.Rows[0][1] != int64(1) {
		t.Errorf("union-with-local-subquery rows = %v, want [[a 1]]", got.Rows)
	}
}

func hostOf(t *testing.T, base string) string {
	t.Helper()
	const prefix = "http://"
	if !strings.HasPrefix(base, prefix) {
		t.Fatalf("unexpected base URL %q", base)
	}
	return strings.TrimPrefix(base, prefix)
}
