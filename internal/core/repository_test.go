package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/metrics"
	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// deployVals builds a sensor whose output window holds integer source
// values verbatim — the substrate for the client-query tests. Integer
// inputs keep float aggregation exact, so the grouped/incremental and
// serial interpreted paths must agree to the last byte even across
// window eviction; the output is a count window so aggregate-only
// client queries qualify for incremental maintenance.
func deployVals(t testing.TB, c *Container, rows int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vals.csv")
	data := "v\n"
	for i := 0; i < rows; i++ {
		data += fmt.Sprintf("%d\n", (i*37)%101)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	desc := fmt.Sprintf(`
<virtual-sensor name="vals">
  <output-structure>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="100" />
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="csv">
        <predicate key="file" val=%q/>
        <predicate key="types" val="integer"/>
      </address>
      <query>select v as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, path)
	if err := c.DeployXML([]byte(desc)); err != nil {
		t.Fatalf("DeployXML: %v", err)
	}
}

// clientQueryShapes covers every evaluation tier the repository
// serves: incremental aggregates (ungrouped and grouped), compiled
// plans with WHERE / GROUP BY / HAVING / ORDER BY / LIMIT, and
// full-engine fallbacks (subquery).
var clientQueryShapes = []string{
	"select count(*), avg(value) from vals",                                                   // incremental
	"select count(*) as n, min(value) as lo, max(value) as hi from vals",                      // incremental
	"select value from vals where value > 5",                                                  // compiled filter
	"select value, timed from vals where value <= 20 order by value desc",                     // compiled sort
	"select avg(value) from vals where timed > 0",                                             // compiled agg+filter
	"select value from vals order by timed desc limit 3",                                      // compiled limit
	"select value from vals where value > (select avg(value) from vals)",                      // fallback subquery
	"select count(*) from vals where value between -1000 and 1000",                            // compiled between
	"select value * 2 as dbl from vals where value >= -1e12 limit 5",                          // compiled expr
	"select distinct value from vals where value > -1000000 order by value",                   // compiled distinct
	"select value, count(*) as n from vals group by value",                                    // incremental grouped
	"select value % 7 as bucket, count(*) as n, avg(value) as a from vals group by value % 7", // compiled grouped (expr key)
	"select value, count(*) as n from vals group by value having count(*) > 1",                // compiled grouped + HAVING
	"select value, count(*) as n from vals group by value having count(*) > 1000",             // HAVING filters all groups
	"select value, count(*) as n from vals where value > 100000 group by value",               // empty group set
	"select value % 5 as b, max(value) as m from vals group by value % 5 order by m desc, b",  // grouped + ORDER BY
}

// TestGroupedEvaluationMatchesSerial is the equivalence property test:
// for every bench query shape the compiled/shared/grouped path must
// deliver results byte-identical to the seed's per-query interpreted
// path, trigger after trigger, while the window slides.
func TestGroupedEvaluationMatchesSerial(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 200)

	type captured struct {
		mu   sync.Mutex
		last map[int]string
	}
	grouped := &captured{last: make(map[int]string)}
	serial := &captured{last: make(map[int]string)}
	record := func(cap *captured, i int) func(*sqlengine.Relation) {
		return func(rel *sqlengine.Relation) {
			cap.mu.Lock()
			cap.last[i] = rel.String()
			cap.mu.Unlock()
		}
	}

	// Two subscribers per shape through the repository under test (so
	// shapes dedupe into one group with fan-out) …
	repo := c.QueryRepositoryRef()
	for i, sql := range clientQueryShapes {
		if _, err := c.RegisterQuery("vals", sql, 1, record(grouped, i)); err != nil {
			t.Fatalf("register %q: %v", sql, err)
		}
		if _, err := c.RegisterQuery("vals", sql, 1, nil); err != nil {
			t.Fatalf("register dup %q: %v", sql, err)
		}
	}
	// … and a shadow repository evaluated with the seed's serial
	// interpreted strategy.
	shadow := NewQueryRepository(nil)
	for i, sql := range clientQueryShapes {
		if _, err := shadow.Register("vals", sql, 1, record(serial, i), nil); err != nil {
			t.Fatalf("shadow register %q: %v", sql, err)
		}
	}

	for pulse := 0; pulse < 150; pulse++ {
		c.Pulse() // sync mode: the repository sweep runs inline
		shadow.EvaluateForSerial("vals", c.Catalog(), sqlengine.Options{Clock: c.Clock()})
		for i, sql := range clientQueryShapes {
			g, s := grouped.last[i], serial.last[i]
			if g != s {
				t.Fatalf("pulse %d, shape %q:\ngrouped:\n%s\nserial:\n%s", pulse, sql, g, s)
			}
		}
	}

	if got := repo.GroupCount("vals"); got != len(clientQueryShapes) {
		t.Errorf("GroupCount = %d, want %d (duplicates must dedupe)", got, len(clientQueryShapes))
	}
	if repo.Count() != 2*len(clientQueryShapes) {
		t.Errorf("Count = %d, want %d", repo.Count(), 2*len(clientQueryShapes))
	}
	for _, st := range repo.Stats() {
		if st.Errors != 0 {
			t.Errorf("query %q: %d errors", st.SQL, st.Errors)
		}
		if st.Evaluations != 150 {
			t.Errorf("query %q: %d evaluations, want 150", st.SQL, st.Evaluations)
		}
	}
}

// TestRepositoryConcurrentRegisterUnregister races Register/Unregister
// against sweeps and the trigger pipeline (run with -race). The sweep
// goroutines keep going until every mutator has finished, so overlap
// is guaranteed regardless of scheduling.
func TestRepositoryConcurrentRegisterUnregister(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 2000)
	for i := 0; i < 50; i++ {
		c.Pulse()
	}
	repo := c.QueryRepositoryRef()

	var mutators, sweepers sync.WaitGroup
	var mutatorsDone atomic.Bool
	var delivered atomic.Int64
	// One persistent always-sampled subscriber guarantees a delivery on
	// every sweep regardless of how the mutators schedule.
	keepID, err := c.RegisterQuery("vals", "select count(*) from vals", 1,
		func(*sqlengine.Relation) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		mutators.Add(1)
		go func(seed int64) {
			defer mutators.Done()
			rng := rand.New(rand.NewSource(seed))
			ids := make([]int64, 0, 32)
			for op := 0; op < 400; op++ {
				if len(ids) < 16 || rng.Intn(2) == 0 {
					sql := clientQueryShapes[rng.Intn(len(clientQueryShapes))]
					id, err := c.RegisterQuery("vals", sql, 0.5+rng.Float64()/2,
						func(*sqlengine.Relation) { delivered.Add(1) })
					if err != nil {
						t.Error(err)
						return
					}
					ids = append(ids, id)
				} else {
					i := rng.Intn(len(ids))
					if err := repo.Unregister(ids[i]); err != nil {
						t.Error(err)
						return
					}
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
			for _, id := range ids {
				if err := repo.Unregister(id); err != nil {
					t.Error(err)
				}
			}
		}(int64(w + 1))
	}
	sweepers.Add(1)
	go func() {
		defer sweepers.Done()
		for i := 0; i < 30 || !mutatorsDone.Load(); i++ {
			c.Pulse() // sync mode: inline trigger + repository sweep
		}
	}()
	sweepers.Add(1)
	go func() {
		defer sweepers.Done()
		for i := 0; i < 30 || !mutatorsDone.Load(); i++ {
			repo.EvaluateFor("vals", c.Catalog(), sqlengine.Options{Clock: c.Clock()})
			repo.Stats()
		}
	}()
	mutators.Wait()
	mutatorsDone.Store(true)
	sweepers.Wait()

	if err := repo.Unregister(keepID); err != nil {
		t.Fatal(err)
	}
	if repo.Count() != 0 {
		t.Errorf("Count = %d after all workers unregistered", repo.Count())
	}
	if delivered.Load() == 0 {
		t.Error("no callback ever fired under the race")
	}
}

// TestSweepCompletesWithSaturatedPool pins the no-deadlock property of
// the fan-out: with every pool worker blocked and the task queue full,
// EvaluateFor must drain all groups on the calling goroutine and
// return (completion is tracked per work item, not per helper task).
func TestSweepCompletesWithSaturatedPool(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	c := testContainer(t)
	deployVals(t, c, 60)
	for i := 0; i < 30; i++ {
		c.Pulse()
	}
	const n = 8
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf("select count(*) from vals where value > %d", i)
		if _, err := c.RegisterQuery("vals", sql, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	repo := c.QueryRepositoryRef()
	release := make(chan struct{})
	defer close(release)
	for repo.submit(func() { <-release }) {
		// Block every worker and fill the queue.
	}
	done := make(chan int, 1)
	go func() { done <- repo.EvaluateFor("vals", c.Catalog(), sqlengine.Options{Clock: c.Clock()}) }()
	select {
	case got := <-done:
		if got != n {
			t.Errorf("evaluated %d of %d with a saturated pool", got, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep deadlocked against the saturated pool")
	}
}

// TestPanickingCallbackIsolated: one bad subscriber must not take down
// the sweep or starve other groups.
func TestPanickingCallbackIsolated(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 30)
	if _, err := c.RegisterQuery("vals", "select value from vals", 1,
		func(*sqlengine.Relation) { panic("bad subscriber") }); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	if _, err := c.RegisterQuery("vals", "select count(*) from vals", 1,
		func(*sqlengine.Relation) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Pulse()
	}
	if delivered.Load() != 5 {
		t.Errorf("healthy subscriber delivered %d of 5", delivered.Load())
	}
	if got := c.Metrics().Counter("client_query_panics").Value(); got != 5 {
		t.Errorf("client_query_panics = %d, want 5", got)
	}
}

// TestSamplingDeterministicAndUniform pins the lock-free sampler: the
// draw sequence is deterministic per query and lands near the target
// rate.
func TestSamplingDeterministicAndUniform(t *testing.T) {
	q := &ClientQuery{SamplingRate: 0.25, seed: splitmix64(99)}
	hits := 0
	for i := 0; i < 4000; i++ {
		if q.sample() {
			hits++
		}
	}
	if hits < 850 || hits > 1150 {
		t.Errorf("sampling 0.25 over 4000 draws admitted %d", hits)
	}
	q2 := &ClientQuery{SamplingRate: 0.25, seed: splitmix64(99)}
	for i := 0; i < 4000; i++ {
		q2.sample()
	}
	if q.draws.Load() != q2.draws.Load() {
		t.Error("draw sequences diverged for identical seeds")
	}
}

// TestUnregisterSensorDetachesObserver: undeploy must drop every group
// and detach aggregate maintainers from the output table.
func TestUnregisterSensorDetachesObserver(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 50)
	for i := 0; i < 3; i++ {
		if _, err := c.RegisterQuery("vals", "select count(*), avg(value) from vals", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RegisterQuery("vals", "select count(*) from vals", 1, nil); err != nil {
		t.Fatal(err)
	}
	c.Pulse()
	if n := c.QueryRepositoryRef().UnregisterSensor("vals"); n != 4 {
		t.Fatalf("UnregisterSensor dropped %d, want 4", n)
	}
	if c.QueryRepositoryRef().Count() != 0 {
		t.Error("queries survived UnregisterSensor")
	}
	c.Pulse() // the detached observer must not fire (would panic on nil deref inside stale maintainers only if miswired)
}

// TestAggregateGroupUsesMaintainer confirms the O(1) tier actually
// serves aggregate-only client queries (the counter moves), and that
// its results track the window exactly.
func TestAggregateGroupUsesMaintainer(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 50)
	var last atomic.Value
	if _, err := c.RegisterQuery("vals", "select count(*) as n from vals", 1,
		func(rel *sqlengine.Relation) { last.Store(rel.Rows[0][0]) }); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Counter("client_query_incremental").Value()
	for i := 1; i <= 20; i++ {
		c.Pulse()
		if got := last.Load(); got != int64(i) {
			t.Fatalf("after %d pulses count = %v", i, got)
		}
	}
	if c.Metrics().Counter("client_query_incremental").Value() != before+20 {
		t.Errorf("incremental tier served %d of 20 evaluations",
			c.Metrics().Counter("client_query_incremental").Value()-before)
	}
}

// TestGroupedAggregateGroupUsesMaintainer confirms grouped rollup
// client queries are served by the O(output) grouped incremental tier
// (the counter moves) and track the sliding window exactly, group
// appearance and disappearance included.
func TestGroupedAggregateGroupUsesMaintainer(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 200) // values cycle (i*37)%101 over a count-100 window
	var last atomic.Value
	if _, err := c.RegisterQuery("vals", "select value, count(*) as n from vals group by value", 1,
		func(rel *sqlengine.Relation) { last.Store(rel.String()) }); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Counter("client_query_incremental").Value()
	shadow := NewQueryRepository(nil)
	var want atomic.Value
	if _, err := shadow.Register("vals", "select value, count(*) as n from vals group by value", 1,
		func(rel *sqlengine.Relation) { want.Store(rel.String()) }, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 150; i++ {
		c.Pulse()
		shadow.EvaluateForSerial("vals", c.Catalog(), sqlengine.Options{Clock: c.Clock()})
		if g, s := last.Load(), want.Load(); g != s {
			t.Fatalf("pulse %d:\ngrouped incremental:\n%v\nserial:\n%v", i, g, s)
		}
	}
	if got := c.Metrics().Counter("client_query_incremental").Value() - before; got != 150 {
		t.Errorf("grouped incremental tier served %d of 150 evaluations", got)
	}
}

// TestRepositoryMaintainerResync: after enough evicted float inputs
// the maintainer requests a rebuild, and the next sweep performs it on
// the client-query path (counter moves, results stay identical to the
// interpreted execution).
func TestRepositoryMaintainerResync(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "k", Type: stream.TypeInt},
		stream.Field{Name: "f", Type: stream.TypeFloat},
	)
	table, err := storage.NewTable("t", schema,
		stream.Window{Kind: stream.CountWindow, Count: 8}, stream.NewManualClock(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	repo := NewQueryRepository(reg)
	defer repo.Close()
	const sql = "select k, avg(f) as a from t group by k"
	var got atomic.Value
	if _, err := repo.Register("t", sql, 1, func(rel *sqlengine.Relation) {
		got.Store(rel.String())
	}, table); err != nil {
		t.Fatal(err)
	}

	// Push well past the float-drift resync bound (65536 evicted float
	// inputs) on a tiny window.
	for i := 0; i < 66_000; i++ {
		e, err := stream.NewElement(schema, stream.Timestamp(i+1), int64(i%3), float64(i)/7)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	opts := sqlengine.Options{Clock: stream.NewManualClock(1)}
	cat := sqlengine.MapCatalog{"T": sqlengine.RelationOfSource(table)}
	if n := repo.EvaluateFor("t", cat, opts); n != 1 {
		t.Fatalf("evaluated %d of 1", n)
	}
	if v := reg.Counter("client_query_resyncs").Value(); v == 0 {
		t.Error("client-query sweep did not resync a drift-bound maintainer")
	}
	want, err := sqlengine.ExecuteSQL(sql, cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Load(); g != want.String() {
		t.Errorf("post-resync result diverged:\nmaintained:\n%v\ninterpreted:\n%s", g, want)
	}
	if reg.Counter("client_query_incremental").Value() == 0 {
		t.Error("grouped rollup was not served by the incremental tier")
	}
}

// TestFloatGroupKeysStayCompiled: float group keys are excluded from
// the grouped incremental tier (distinct representations like -0.0 and
// +0.0 compare equal, so the maintainer's captured key values could
// diverge byte-wise from a window rescan after eviction); integer keys
// qualify.
func TestFloatGroupKeysStayCompiled(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "fk", Type: stream.TypeFloat},
		stream.Field{Name: "ik", Type: stream.TypeInt},
	)
	window := stream.Window{Kind: stream.CountWindow, Count: 10}
	compile := func(sql string) *sqlengine.Plan {
		t.Helper()
		stmt, err := sqlengine.ParseCached(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(schema), "t")
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	if m := newAggMaintainer(compile("select fk, count(*) as n from t group by fk"), window, schema); m != nil {
		t.Error("float group key must stay on the compiled tier")
	}
	if m := newAggMaintainer(compile("select ik, fk, count(*) as n from t group by ik, fk"), window, schema); m != nil {
		t.Error("mixed keys with a float column must stay on the compiled tier")
	}
	if m := newAggMaintainer(compile("select ik, avg(fk) as a from t group by ik"), window, schema); m == nil {
		t.Error("integer group key (float only as aggregate input) should qualify")
	}
	if m := newAggMaintainer(compile("select ik, timed, count(*) as n from t group by ik, timed"), window, schema); m == nil {
		t.Error("TIMED group key is an int and should qualify")
	}
}

func BenchmarkRepositorySweep(b *testing.B) {
	// Micro-benchmark kept beside the tests: 1000 mixed queries on a
	// 100-element window, grouped vs serial (see BenchmarkClientQueries
	// for the acceptance version on a 1000-element window).
	c, err := New(Options{Name: "bench-repo", Clock: stream.NewManualClock(1), SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	deployVals(b, c, 200)
	for i := 0; i < 100; i++ {
		c.Pulse()
	}
	for i := 0; i < 1000; i++ {
		sql := clientQueryShapes[i%len(clientQueryShapes)]
		if i%2 == 1 {
			sql = fmt.Sprintf("select count(*) from vals where value > %d", i)
		}
		if _, err := c.RegisterQuery("vals", sql, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	cat := c.Catalog()
	opts := sqlengine.Options{Clock: c.Clock()}
	repo := c.QueryRepositoryRef()
	b.Run("grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repo.EvaluateFor("vals", cat, opts)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repo.EvaluateForSerial("vals", cat, opts)
		}
	})
}

// countingObserver counts the lifecycle events a table hands it.
type countingObserver struct{ inserts, truncates int }

func (o *countingObserver) OnInsert(stream.Element) { o.inserts++ }
func (o *countingObserver) OnEvict(stream.Element)  {}
func (o *countingObserver) OnTruncate()             { o.truncates++ }

// TestObserverReplayPerAddedMaintainer: adding a maintainer replays the
// live window into it alone, so N registrations over a W-row window
// cost N·W replayed inserts, not O(N²·W); removing one replays
// nothing; the float-drift resync still replays into every member.
func TestObserverReplayPerAddedMaintainer(t *testing.T) {
	const n, w = 6, 40
	schema := stream.MustSchema(stream.Field{Name: "v", Type: stream.TypeInt})
	table, err := storage.NewTable("t", schema,
		stream.Window{Kind: stream.CountWindow, Count: w}, stream.NewManualClock(1))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(i int) {
		e, err := stream.NewElement(schema, stream.Timestamp(i+1), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*w; i++ {
		insert(i)
	}
	sq := &sensorQueries{out: table}
	obs := make([]*countingObserver, n)
	for i := range obs {
		obs[i] = &countingObserver{}
		sq.addObserver(obs[i])
	}
	total := 0
	for i, o := range obs {
		if o.inserts != w || o.truncates != 1 {
			t.Errorf("observer %d: %d inserts, %d truncates; want %d and 1", i, o.inserts, o.truncates, w)
		}
		total += o.inserts
	}
	if total != n*w {
		t.Fatalf("%d registrations replayed %d inserts, want %d", n, total, n*w)
	}

	sq.removeObserver(obs[0])
	insert(2 * w)
	if obs[0].inserts != w {
		t.Errorf("removed observer saw %d inserts, want %d", obs[0].inserts, w)
	}
	for i, o := range obs[1:] {
		if o.inserts != w+1 {
			t.Errorf("observer %d: %d inserts after removal and one insert, want %d", i+1, o.inserts, w+1)
		}
	}

	r := NewQueryRepository(nil)
	defer r.Close()
	r.bySensor["T"] = sq
	r.resyncSensor("T")
	for i, o := range obs[1:] {
		if o.inserts != 2*w+1 || o.truncates != 2 {
			t.Errorf("observer %d after resync: %d inserts, %d truncates; want %d and 2",
				i+1, o.inserts, o.truncates, 2*w+1)
		}
	}
}
