package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/metrics"
	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// ClientQuery is one registered continuous query (a subscription in the
// paper's query repository, §4). Queries with identical SQL against the
// same sensor share one evaluation group: the group evaluates once per
// trigger and the relation fans out to every subscriber's callback.
type ClientQuery struct {
	ID int64
	// Sensor is the watched virtual sensor (canonical name).
	Sensor string
	// SQL is the query text.
	SQL string
	// SamplingRate in (0,1] evaluates the query on that fraction of
	// triggers.
	SamplingRate float64

	cb    func(*sqlengine.Relation)
	group *queryGroup

	// Sampling and counters are lock-free: a sweep touching thousands
	// of registered queries must not serialise on per-query mutexes
	// (the seed held a mutex around an rand.Rand per evaluation).
	seed        uint64
	draws       atomic.Uint64 // sampling decisions taken
	evaluations atomic.Uint64
	errors      atomic.Uint64
	lastLatency atomic.Int64 // nanoseconds
}

// sample decides lock-free whether this trigger evaluates the query: a
// counter-indexed splitmix64 stream, deterministic per query.
func (q *ClientQuery) sample() bool {
	if q.SamplingRate >= 1 {
		return true
	}
	n := q.draws.Add(1)
	return unitFloat(splitmix64(q.seed+n)) < q.SamplingRate
}

// splitmix64 is the standard 64-bit finalizing mixer (public domain,
// Vigna); one multiply-shift chain per draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps 64 random bits onto [0,1).
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// ClientQueryStats reports one registered query's counters.
type ClientQueryStats struct {
	ID           int64
	Sensor       string
	SQL          string
	Evaluations  uint64
	Errors       uint64
	LastLatency  time.Duration
	SamplingRate float64
}

// queryGroup is one distinct SQL text registered against a sensor: the
// unit of evaluation. All subscribers of the group receive the same
// *Relation (callbacks must treat it as read-only, which the seed's
// per-query path already required of concurrently sampled queries).
type queryGroup struct {
	sql    string
	sensor string

	// plan is the statement compiled against the sensor's output
	// schema at Register time; nil when the shape needs the full
	// engine (joins, other tables). A templated group shares its
	// template's plan and supplies params, its own WHERE constants.
	plan   *sqlengine.Plan
	params []stream.Value
	tmpl   *planTemplate // nil unless the group runs a shared template
	// stmt is kept only for the general tier (plan == nil); the others
	// keep no parsed statement.
	stmt *sqlparser.SelectStatement
	// agg incrementally maintains an aggregate-only plan, grouped or
	// not, via the output table's observer hook; nil unless the shape
	// and the window qualify.
	agg *sqlengine.AggMaintainer

	// subs lists the subscribers in registration order. Register and
	// Unregister publish a new list under the repository's write lock
	// and sweeps load it without the lock: Register appends past the
	// end of the published list, Unregister publishes a copy, so no
	// entry a sweep can see is ever written.
	subs atomic.Pointer[[]*ClientQuery]
}

// planTemplate is one compiled statement template shared by every
// group whose text differs from it only in WHERE constants (see
// sqlengine.Parameterize). refs counts those groups; the template goes
// with its last one.
type planTemplate struct {
	sig  string
	plan *sqlengine.Plan
	refs int
}

// subscribers returns the group's current subscriber list.
func (g *queryGroup) subscribers() []*ClientQuery {
	if p := g.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// newAggMaintainer builds the incremental maintainer for an
// aggregate-only plan, or nil. Only count windows qualify: time-window
// eviction is clock-driven and the observer hooks fire on access, so
// the maintained state could lag the queried instant. schema is the
// window table's element schema.
func newAggMaintainer(plan *sqlengine.Plan, window stream.Window, schema *stream.Schema) *sqlengine.AggMaintainer {
	prog := plan.Incremental()
	if window.Kind != stream.CountWindow || prog == nil || groupedKeysApproximate(prog, schema) {
		return nil
	}
	return sqlengine.NewAggMaintainer(prog)
}

// groupedKeysApproximate reports whether any group key is a float
// column. Distinct float representations can compare equal (-0.0 vs
// +0.0), and the maintainer projects the key values captured at group
// creation while a window scan projects the oldest live row's — so a
// float-keyed rollup could diverge byte-wise after eviction. Such
// shapes stay on the compiled tier, which rescans. (The implicit TIMED
// key, index == schema length, is an int.)
func groupedKeysApproximate(prog *sqlengine.IncProgram, schema *stream.Schema) bool {
	fields := schema.Fields()
	for _, col := range prog.Keys {
		if col < len(fields) && fields[col].Type == stream.TypeFloat {
			return true
		}
	}
	return false
}

// sensorQueries indexes the groups watching one sensor.
type sensorQueries struct {
	out       *storage.Table     // output table; nil when registered without one
	cols      []sqlengine.Column // out's column layout, shared by every plan
	groups    map[string]*queryGroup
	templates map[string]*planTemplate // by signature

	// work lists the groups a sweep evaluates, in registration order. A
	// sweep takes it under the read lock without copying: Register only
	// appends, past the end any sweep can see, and dropping a group
	// publishes a copy, so no entry a sweep can see is ever written.
	work []*queryGroup
	// obs lists the maintainers observing the output table; replaced,
	// never modified.
	obs []storage.Observer

	// sweepPending coalesces scheduled sweeps: while a sweep is queued
	// but has not started reading windows, further triggers collapse
	// into it (mirroring the trigger pipeline's coalescing).
	sweepPending atomic.Bool
}

// addObserver adds a maintainer to the output table's observer set and
// replays the live window into it alone: the members already installed
// mirror the window and keep their state.
func (sq *sensorQueries) addObserver(o storage.Observer) {
	sq.obs = append(slices.Clip(sq.obs), o)
	sq.out.ReplaceObserver(fanout(sq.obs), o)
}

// removeObserver drops a maintainer from the observer set; nothing is
// replayed.
func (sq *sensorQueries) removeObserver(o storage.Observer) {
	sq.obs = slices.DeleteFunc(slices.Clone(sq.obs), func(x storage.Observer) bool { return x == o })
	sq.out.ReplaceObserver(fanout(sq.obs), nil)
}

// fanout is the one observer the table holds for a maintainer set.
func fanout(obs []storage.Observer) storage.Observer {
	switch len(obs) {
	case 0:
		return nil
	case 1:
		return obs[0]
	}
	return &fanoutObserver{obs: obs}
}

// fanoutObserver dispatches table lifecycle events to the aggregate
// maintainers of every qualifying group on a sensor. The observer list
// is immutable after construction — membership changes install a fresh
// fanout via ReplaceObserver.
type fanoutObserver struct{ obs []storage.Observer }

func (f *fanoutObserver) OnInsert(e stream.Element) {
	for _, o := range f.obs {
		o.OnInsert(e)
	}
}

func (f *fanoutObserver) OnEvict(e stream.Element) {
	for _, o := range f.obs {
		o.OnEvict(e)
	}
}

func (f *fanoutObserver) OnTruncate() {
	for _, o := range f.obs {
		o.OnTruncate()
	}
}

// QueryRepository manages registered client queries — GSN's query
// repository, which "defines and maintains the set of currently active
// queries for the query processor". Identical SQL registered by many
// clients dedupes into one evaluation group; a trigger sweep
// materialises the sensor's output window once, evaluates independent
// groups on a bounded worker pool and fans each result out to the
// group's subscribers.
type QueryRepository struct {
	mu       sync.RWMutex
	nextID   int64
	queries  map[int64]*ClientQuery
	bySensor map[string]*sensorQueries

	metrics *metrics.Registry

	// Hot-path instruments, resolved once (a sweep touches them per
	// group; going through the registry would take its mutex each time).
	sweepTime     *metrics.Histogram
	coalesced     *metrics.Counter
	tierIncrement *metrics.Counter
	tierCompiled  *metrics.Counter
	tierGeneral   *metrics.Counter

	poolOnce sync.Once
	tasks    chan func()
	// poolMu serialises channel shutdown against submit's send, so a
	// sweep racing Close can never hit a closed channel.
	poolMu sync.RWMutex
	closed bool
}

// NewQueryRepository creates an empty repository. reg may be nil (a
// private registry is used); the container passes its own so sweep
// latency and coalescing counters surface in /api/metrics.
func NewQueryRepository(reg *metrics.Registry) *QueryRepository {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &QueryRepository{
		queries:       make(map[int64]*ClientQuery),
		bySensor:      make(map[string]*sensorQueries),
		metrics:       reg,
		sweepTime:     reg.Histogram("client_query_time"),
		coalesced:     reg.Counter("queries_coalesced"),
		tierIncrement: reg.Counter("client_query_incremental"),
		tierCompiled:  reg.Counter("client_query_compiled"),
		tierGeneral:   reg.Counter("client_query_general"),
	}
}

// maxSweepWorkers bounds the shared evaluation pool.
const maxSweepWorkers = 16

// startPool lazily launches the bounded worker pool shared by all
// sweeps (group evaluations and scheduled sweeps run on it).
func (r *QueryRepository) startPool() {
	n := runtime.GOMAXPROCS(0)
	if n > maxSweepWorkers {
		n = maxSweepWorkers
	}
	r.tasks = make(chan func(), n*4)
	for i := 0; i < n; i++ {
		go func() {
			for fn := range r.tasks {
				fn()
			}
		}()
	}
}

// submit hands fn to the pool, reporting false when the pool is
// saturated or closed (the caller runs it inline).
func (r *QueryRepository) submit(fn func()) bool {
	r.poolOnce.Do(r.startPool)
	r.poolMu.RLock()
	defer r.poolMu.RUnlock()
	if r.closed {
		return false
	}
	select {
	case r.tasks <- fn:
		return true
	default:
		return false
	}
}

// Close stops the worker pool. Scheduled sweeps already queued finish;
// later submissions run inline on the caller.
func (r *QueryRepository) Close() {
	// Start-then-close keeps the once state consistent even if no
	// sweep ever ran.
	r.poolOnce.Do(r.startPool)
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if !r.closed {
		r.closed = true
		close(r.tasks)
	}
}

// Register validates and adds a continuous query bound to a sensor.
// sampling of 0 means 1 (always). The callback may be nil (evaluate and
// discard — the Figure 4 load shape). out is the sensor's output table;
// when non-nil the statement is compiled against its schema so the
// per-trigger path pays no planning, and aggregate-only shapes over a
// count window are maintained incrementally. Texts that differ only in
// WHERE constants share one compiled statement template. Callbacks of
// different groups may run concurrently; a group's subscribers are
// invoked sequentially and share the result relation read-only.
func (r *QueryRepository) Register(sensor, sql string, sampling float64,
	cb func(*sqlengine.Relation), out *storage.Table) (int64, error) {
	if !(sampling >= 0 && sampling <= 1) {
		return 0, fmt.Errorf("core: sampling rate %v outside [0,1]", sampling)
	}
	if sampling == 0 {
		sampling = 1
	}
	canonical := stream.CanonicalName(sensor)
	if canonical == "" {
		return 0, fmt.Errorf("core: client query needs a sensor")
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	sq := r.bySensor[canonical]
	var g *queryGroup
	if sq != nil {
		g = sq.groups[sql]
	}
	if g != nil {
		sq.setOutput(out)
	} else {
		// Only a new text is parsed, and a failing parse leaves no
		// per-sensor entry behind.
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return 0, fmt.Errorf("core: client query: %w", err)
		}
		if sq == nil {
			sq = &sensorQueries{
				groups:    make(map[string]*queryGroup),
				templates: make(map[string]*planTemplate),
			}
			r.bySensor[canonical] = sq
		}
		sq.setOutput(out)
		g = sq.newGroup(sql, canonical, stmt)
		sq.groups[sql] = g
		sq.work = append(sq.work, g)
		if g.agg != nil {
			sq.addObserver(g.agg)
		}
	}

	r.nextID++
	q := &ClientQuery{
		ID:           r.nextID,
		Sensor:       canonical,
		SQL:          g.sql,
		SamplingRate: sampling,
		cb:           cb,
		group:        g,
		seed:         splitmix64(uint64(r.nextID) * 2654435761),
	}
	subs := append(g.subscribers(), q)
	g.subs.Store(&subs)
	r.queries[q.ID] = q
	return q.ID, nil
}

// setOutput records the sensor's output table, and its column layout,
// the first time a registration supplies one.
func (sq *sensorQueries) setOutput(out *storage.Table) {
	if sq.out == nil && out != nil {
		sq.out = out
		sq.cols = sqlengine.ColumnsOfSchema(out.Schema())
	}
}

// newGroup builds the evaluation group of a new text. A statement with
// WHERE constants whose template compiles to a bound program shares the
// sensor's plan for that template; anything else compiles per text,
// and a shape Compile rejects keeps its statement for the general tier.
func (sq *sensorQueries) newGroup(sql, sensor string, stmt *sqlparser.SelectStatement) *queryGroup {
	g := &queryGroup{sql: sql, sensor: sensor}
	if sq.out == nil {
		g.stmt = stmt
		return g
	}
	if tmpl, params := sqlengine.Parameterize(stmt); len(params) > 0 {
		sig := tmpl.String()
		t := sq.templates[sig]
		if t == nil {
			if plan, err := sqlengine.Compile(tmpl, sq.cols, sensor); err == nil && plan.Params() == len(params) {
				t = &planTemplate{sig: sig, plan: plan}
				sq.templates[sig] = t
			}
		}
		if t != nil {
			t.refs++
			g.plan, g.params, g.tmpl = t.plan, params, t
			return g
		}
	}
	plan, err := sqlengine.Compile(stmt, sq.cols, sensor)
	if err != nil {
		g.stmt = stmt
		return g
	}
	g.plan = plan
	g.agg = newAggMaintainer(plan, sq.out.Window(), sq.out.Schema())
	return g
}

// dropGroup removes a group that lost its last subscriber, with its
// template reference and maintainer.
func (sq *sensorQueries) dropGroup(g *queryGroup) {
	delete(sq.groups, g.sql)
	sq.work = slices.DeleteFunc(slices.Clone(sq.work), func(x *queryGroup) bool { return x == g })
	if t := g.tmpl; t != nil {
		if t.refs--; t.refs == 0 {
			delete(sq.templates, t.sig)
		}
	}
	if g.agg != nil {
		sq.removeObserver(g.agg)
	}
}

// resyncSensor rebuilds every maintainer watching the sensor from the
// live window (SetObserver truncate+replays through the fanout), so
// subtract-on-evict float drift cannot accumulate past the resync
// bound on the client-query path either. Replaying the whole set keeps
// the single-observer contract simple; a spurious concurrent resync
// just replays twice, each time to a consistent state.
func (r *QueryRepository) resyncSensor(sensor string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sq := r.bySensor[sensor]; sq != nil && sq.out != nil {
		sq.out.SetObserver(fanout(sq.obs))
	}
}

// Unregister removes a query. It copies the group's subscriber list,
// and the sensor's group list when the group goes, so sweeps never
// copy either.
func (r *QueryRepository) Unregister(id int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.queries[id]
	if !ok {
		return fmt.Errorf("core: no client query %d", id)
	}
	delete(r.queries, id)
	g := q.group
	sq := r.bySensor[q.Sensor]
	if sq == nil {
		return nil
	}
	subs := slices.DeleteFunc(slices.Clone(g.subscribers()), func(x *ClientQuery) bool { return x == q })
	g.subs.Store(&subs)
	if len(subs) == 0 {
		sq.dropGroup(g)
		if len(sq.groups) == 0 {
			delete(r.bySensor, q.Sensor)
		}
	}
	return nil
}

// UnregisterSensor drops every query watching the sensor (called on
// undeploy).
func (r *QueryRepository) UnregisterSensor(sensor string) int {
	canonical := stream.CanonicalName(sensor)
	r.mu.Lock()
	defer r.mu.Unlock()
	sq := r.bySensor[canonical]
	if sq == nil {
		return 0
	}
	n := 0
	for _, g := range sq.work {
		for _, q := range g.subscribers() {
			delete(r.queries, q.ID)
			n++
		}
	}
	if sq.out != nil {
		sq.out.SetObserver(nil)
	}
	delete(r.bySensor, canonical)
	return n
}

// Count reports the number of registered queries.
func (r *QueryRepository) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.queries)
}

// GroupCount reports the number of distinct evaluation groups for a
// sensor (duplicate SQL dedupes into one).
func (r *QueryRepository) GroupCount(sensor string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if sq := r.bySensor[stream.CanonicalName(sensor)]; sq != nil {
		return len(sq.groups)
	}
	return 0
}

// templateCount reports the number of shared statement templates held
// for a sensor (for tests).
func (r *QueryRepository) templateCount(sensor string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if sq := r.bySensor[stream.CanonicalName(sensor)]; sq != nil {
		return len(sq.templates)
	}
	return 0
}

// sharedWindow materialises the sensor's output window at most once
// per sweep, shared by every group (the seed re-scanned the table once
// per registered query). Rows are zero-copy with respect to the
// element store and read-only to every consumer.
type sharedWindow struct {
	table *storage.Table // nil → resolve through the catalog
	name  string
	cat   sqlengine.Catalog

	once sync.Once
	rel  *sqlengine.Relation
	err  error
}

func (s *sharedWindow) relation() (*sqlengine.Relation, error) {
	s.once.Do(func() {
		if s.table != nil {
			s.rel = sqlengine.RelationOfSource(s.table)
			return
		}
		s.rel, s.err = s.cat.Relation(s.name)
	})
	return s.rel, s.err
}

// catalog layers the shared materialisation over the container catalog
// so fallback-path groups referencing the sensor resolve to the same
// scan instead of re-reading the table.
func (s *sharedWindow) catalog() sqlengine.Catalog {
	rel, err := s.relation()
	if err != nil || rel == nil {
		return s.cat
	}
	return sqlengine.ChainCatalog{sqlengine.MapCatalog{s.name: rel}, s.cat}
}

// EvaluateFor runs every query registered for the sensor (subject to
// each query's sampling rate) against the catalog and returns the
// number of subscriber queries evaluated. Groups evaluate at most once
// per sweep; independent groups run on the shared worker pool when
// there are enough of them to pay for the fan-out. The sweep's wall
// time feeds the client_query_time histogram — Figure 4's y-axis.
func (r *QueryRepository) EvaluateFor(sensor string, cat sqlengine.Catalog, opts sqlengine.Options) int {
	canonical := stream.CanonicalName(sensor)
	r.mu.RLock()
	sq := r.bySensor[canonical]
	if sq == nil || len(sq.work) == 0 {
		r.mu.RUnlock()
		return 0
	}
	out, work := sq.out, sq.work
	r.mu.RUnlock()

	start := time.Now()
	shared := &sharedWindow{table: out, name: canonical, cat: cat}

	// Completion is tracked per work item, never per helper task: the
	// caller always participates, so even if every submitted helper sits
	// behind busy pool workers (or another sweep occupies the whole
	// pool), the caller drains the index itself and the wait below
	// cannot deadlock. A helper that finally runs after the sweep
	// finished finds the index exhausted and returns without touching
	// anything.
	var evaluated atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(len(work))
	runRange := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(work) {
				return
			}
			evaluated.Add(int64(r.safeEvalGroup(work[i], shared, opts)))
			wg.Done()
		}
	}

	// Fan out only when the sweep is wide enough for the scheduling to
	// pay off; a deployment with a couple of groups stays inline.
	//
	// Worker sizing is GOMAXPROCS-aware with a per-worker floor instead
	// of the old fixed fanOutThreshold=4 (tuned at GOMAXPROCS=1, where
	// the pool never fans out): waking a helper costs on the order of a
	// microsecond of submit/wakeup/wg accounting while a typical
	// compiled group evaluates in ~10–20µs, so a helper is only worth
	// waking when it gets at least minGroupsPerSweepWorker groups of
	// its own. That keeps scheduling overhead a few percent at worst at
	// any core count, stops an 8-core box from waking 7 helpers for an
	// 8-group sweep (each stealing one group), and still saturates the
	// pool on wide sweeps.
	const minGroupsPerSweepWorker = 2
	workers := runtime.GOMAXPROCS(0)
	if workers > maxSweepWorkers {
		workers = maxSweepWorkers
	}
	if byWidth := len(work) / minGroupsPerSweepWorker; workers > byWidth {
		workers = byWidth
	}
	if workers >= 2 {
		for i := 1; i < workers; i++ {
			if !r.submit(runRange) {
				break // pool saturated or closed: the caller covers the rest
			}
		}
	}
	runRange()
	wg.Wait()

	if n := int(evaluated.Load()); n > 0 {
		r.sweepTime.Observe(time.Since(start))
		return n
	}
	return 0
}

// ScheduleSweep queues an asynchronous EvaluateFor on the worker pool,
// coalescing per sensor: while a sweep is pending and has not started
// reading windows, further triggers collapse into it (the pending
// sweep sees their elements — inserts complete before scheduling, and
// the sweep clears the flag before materialising any window). The
// async trigger pipeline uses this so a burst costs one repository
// sweep, not one per output element.
func (r *QueryRepository) ScheduleSweep(sensor string, cat sqlengine.Catalog, opts sqlengine.Options) {
	canonical := stream.CanonicalName(sensor)
	r.mu.RLock()
	sq := r.bySensor[canonical]
	r.mu.RUnlock()
	if sq == nil {
		return
	}
	if !sq.sweepPending.CompareAndSwap(false, true) {
		r.coalesced.Inc()
		return
	}
	sweep := func() {
		// Clear before reading any window: an arrival after this point
		// schedules a fresh sweep, an arrival before it is already in
		// the table and covered by this one.
		sq.sweepPending.Store(false)
		r.EvaluateFor(canonical, cat, opts)
	}
	if !r.submit(sweep) {
		sweep()
	}
}

// safeEvalGroup runs evalGroup with panic isolation (life-cycle
// manager duty): one panicking subscriber callback must not take down
// the sweep, a pool worker, or — with the sweep's per-item completion
// accounting — hang EvaluateFor. Panics are counted on
// client_query_panics.
func (r *QueryRepository) safeEvalGroup(g *queryGroup, shared *sharedWindow,
	opts sqlengine.Options) (n int) {
	defer func() {
		if rec := recover(); rec != nil {
			r.metrics.Counter("client_query_panics").Inc()
		}
	}()
	return r.evalGroup(g, shared, opts)
}

// evalGroup evaluates one group once, when the first subscriber's
// sampling admits this trigger, and fans the result out to every
// admitted subscriber. It returns the number of subscriber queries
// served.
func (r *QueryRepository) evalGroup(g *queryGroup, shared *sharedWindow,
	opts sqlengine.Options) int {
	n := 0
	var rel *sqlengine.Relation
	var err error
	var elapsed time.Duration
	for _, q := range g.subscribers() {
		if !q.sample() {
			continue
		}
		if n == 0 {
			rel, elapsed, err = r.evalOnce(g, shared, opts)
		}
		n++
		q.evaluations.Add(1)
		q.lastLatency.Store(int64(elapsed))
		if err != nil {
			q.errors.Add(1)
		} else if q.cb != nil {
			q.cb(rel)
		}
	}
	return n
}

// evalOnce evaluates a group's statement on its cheapest tier and
// reports how long that took.
func (r *QueryRepository) evalOnce(g *queryGroup, shared *sharedWindow,
	opts sqlengine.Options) (*sqlengine.Relation, time.Duration, error) {
	start := time.Now()
	var rel *sqlengine.Relation
	var err error
	switch {
	case g.agg != nil:
		if g.agg.NeedsResync() {
			// Bounded float drift: reinstall the sensor's observer set,
			// which truncate+replays the live window into every
			// maintainer (mirrors the sensor-source resync path).
			r.resyncSensor(g.sensor)
			r.metrics.Counter("client_query_resyncs").Inc()
		}
		// Read under the table lock so the aggregates reflect exactly
		// the live window. A poisoned maintainer (nil result) falls
		// through to the compiled plan, which surfaces the type error.
		shared.table.WithLock(func() { rel = g.agg.Result() })
		if rel != nil {
			r.tierIncrement.Inc()
			break
		}
		fallthrough
	case g.plan != nil:
		var win *sqlengine.Relation
		win, err = shared.relation()
		if err == nil {
			rel, err = g.plan.ExecuteParams(win.Rows, g.params, opts)
			r.tierCompiled.Inc()
		}
	default:
		rel, err = sqlengine.Execute(g.stmt, shared.catalog(), opts)
		r.tierGeneral.Inc()
	}
	return rel, time.Since(start), err
}

// EvaluateForSerial replicates the seed's evaluation strategy — every
// registered query re-executed independently, interpreted, with its
// own window scan — for the equivalence property tests and as the
// baseline of the queries benchmark. Results and per-query counters
// are identical to EvaluateFor's; only the cost model differs.
func (r *QueryRepository) EvaluateForSerial(sensor string, cat sqlengine.Catalog, opts sqlengine.Options) int {
	canonical := stream.CanonicalName(sensor)
	r.mu.RLock()
	sq := r.bySensor[canonical]
	if sq == nil {
		r.mu.RUnlock()
		return 0
	}
	var list []*ClientQuery
	for _, g := range sq.work {
		list = append(list, g.subscribers()...)
	}
	r.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })

	evaluated := 0
	for _, q := range list {
		if !q.sample() {
			continue
		}
		start := time.Now()
		var rel *sqlengine.Relation
		var err error
		stmt := q.group.stmt
		if stmt == nil {
			// The reference interpreter runs the group's original text,
			// never a statement template.
			stmt, err = sqlparser.Parse(q.group.sql)
		}
		if err == nil {
			rel, err = sqlengine.Execute(stmt, cat, opts)
		}
		elapsed := time.Since(start)
		q.evaluations.Add(1)
		q.lastLatency.Store(int64(elapsed))
		if err != nil {
			q.errors.Add(1)
		}
		evaluated++
		if err == nil && q.cb != nil {
			q.cb(rel)
		}
	}
	return evaluated
}

// Stats lists per-query counters ordered by id.
func (r *QueryRepository) Stats() []ClientQueryStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ClientQueryStats, 0, len(r.queries))
	for _, q := range r.queries {
		out = append(out, ClientQueryStats{
			ID:           q.ID,
			Sensor:       q.Sensor,
			SQL:          q.SQL,
			Evaluations:  q.evaluations.Load(),
			Errors:       q.errors.Load(),
			LastLatency:  time.Duration(q.lastLatency.Load()),
			SamplingRate: q.SamplingRate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
