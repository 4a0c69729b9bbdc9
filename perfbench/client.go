package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// client-queries (the paper's Figure 4 shape, reads beside writes): one
// camera-frame sensor with a count window and a disk history, fed open
// loop at a modest fixed rate; 1000 seeded registered continuous
// queries (duplicate, unique and GROUP BY); one closed-loop ad-hoc
// client over window aggregates, GROUP BY and timed BETWEEN scans of
// rows the window evicted to disk. No composition, no p2p.
const (
	cqWindow     = 200                   // output window (count)
	cqRooms      = 8                     // GROUP BY cardinality
	cqPrefill    = 2000                  // history rows written during set-up
	cqTick       = 25 * time.Millisecond // one frame per tick
	cqRegistered = 1000
	cqDupPool    = 8                 // distinct texts shared by the duplicate queries
	cqCheckEvery = 8                 // registered queries whose every result is checked: index % cqCheckEvery == 0
	cqTsBase     = 1_600_000_000_000 // element timestamp of seq 0, in ms
	cqBin        = 2500 * time.Millisecond
)

var camRoomSchema = stream.MustSchema(
	stream.Field{Name: "seq", Type: stream.TypeInt},
	stream.Field{Name: "gen", Type: stream.TypeInt},
	stream.Field{Name: "room", Type: stream.TypeString},
	stream.Field{Name: "v", Type: stream.TypeInt},
	stream.Field{Name: "frame", Type: stream.TypeBytes},
)

const cqDescriptor = `<virtual-sensor name="cams">
  <output-structure>
    <field name="seq" type="integer"/><field name="gen" type="integer"/>
    <field name="room" type="varchar"/><field name="v" type="integer"/>
  </output-structure>
  <storage size="200" permanent-storage="true" history="disk"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="bench"><predicate key="kind" val="camroom"/><predicate key="id" val="0"/></address>
      <query>select seq, gen, room, v, timed from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

// pred is a registered query's WHERE clause: lo <= v < hi and room <>
// notRoom (-1: the always-true room <> 'none').
type pred struct {
	lo, hi  int64
	notRoom int64
	grouped bool
}

func (p pred) admits(v, room int64) bool {
	return v >= p.lo && v < p.hi && room != p.notRoom
}

func (p pred) sql() string {
	if p.grouped {
		return fmt.Sprintf("select room, max(gen) as g, count(*) as n, sum(v) as s from CAMS where v >= %d and v < %d and seq >= 0 group by room", p.lo, p.hi)
	}
	room := "none"
	if p.notRoom >= 0 {
		room = roomName(p.notRoom)
	}
	return fmt.Sprintf("select max(gen) as g, count(*) as n, sum(v) as s from CAMS where v >= %d and v < %d and room <> '%s'", p.lo, p.hi, room)
}

// always is the predicate admitting every row: its results' max(gen) is
// the newest output, so its callbacks measure freshness.
var always = pred{lo: 0, hi: 1000, notRoom: -1}

// registeredMix draws the seeded registered-query set. Its shape is the
// same for every seed, so seeds vary the inputs, not the load: 10% are
// the always-true text, and of the rest 40% duplicate one of
// cqDupPool-1 shared texts, 40% are unique filters and 20% GROUP BY.
// Every filter admits a v range of width 400 and excludes one room;
// sampling rates are a seeded permutation of an even grid over
// [0.1, 0.9).
func registeredMix(rng *rand.Rand) ([]pred, []float64) {
	randPred := func(grouped bool) pred {
		lo := rng.Int63n(600)
		p := pred{lo: lo, hi: lo + 400, notRoom: rng.Int63n(cqRooms), grouped: grouped}
		if grouped {
			p.notRoom = -1
		}
		return p
	}
	var pool []pred
	for len(pool) < cqDupPool-1 {
		pool = append(pool, randPred(false))
	}
	rest := cqRegistered - cqRegistered/10
	kinds := make([]int, rest) // 0 duplicate, 1 unique, 2 grouped
	for i := range kinds {
		switch {
		case i < rest*2/5:
			kinds[i] = 0
		case i < rest*4/5:
			kinds[i] = 1
		default:
			kinds[i] = 2
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	preds := make([]pred, 0, cqRegistered)
	for i := 0; i < cqRegistered/10; i++ {
		preds = append(preds, always)
	}
	for _, k := range kinds {
		switch k {
		case 0:
			preds = append(preds, pool[rng.Intn(len(pool))])
		case 1:
			preds = append(preds, randPred(false))
		default:
			preds = append(preds, randPred(true))
		}
	}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	sampling := make([]float64, cqRegistered)
	for i, j := range rng.Perm(cqRegistered) {
		sampling[i] = 0.1 + 0.8*(float64(j)+0.5)/cqRegistered
	}
	return preds, sampling
}

// outLog is the subscriber's record of the output stream, in output
// order: what the window of any evaluation holds is a range of it.
type outLog struct {
	mu   sync.Mutex
	seq  []int64
	gen  []int64
	room []int64
	v    []int64
	pos  map[int64]int // gen → position
}

func newOutLog() *outLog { return &outLog{pos: map[int64]int{}} }

func (l *outLog) add(seq, gen, room, v int64) {
	l.mu.Lock()
	l.pos[gen] = len(l.seq)
	l.seq = append(l.seq, seq)
	l.gen = append(l.gen, gen)
	l.room = append(l.room, room)
	l.v = append(l.v, v)
	l.mu.Unlock()
}

func (l *outLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.seq)
}

// groupAgg is one room's (or the whole window's) reference aggregate.
type groupAgg struct{ g, n, s int64 }

// window returns the aggregates of the cqWindow outputs ending at
// position p under predicate pr, overall and per room. Caller holds mu.
func (l *outLog) window(p int, pr pred) (groupAgg, map[int64]groupAgg) {
	var all groupAgg
	var rooms map[int64]groupAgg
	if pr.grouped {
		rooms = map[int64]groupAgg{}
	}
	for i := max(0, p-cqWindow+1); i <= p; i++ {
		if !pr.admits(l.v[i], l.room[i]) {
			continue
		}
		all.n++
		all.s += l.v[i]
		all.g = max(all.g, l.gen[i])
		if rooms == nil {
			continue
		}
		g := rooms[l.room[i]]
		g.n++
		g.s += l.v[i]
		g.g = max(g.g, l.gen[i])
		rooms[l.room[i]] = g
	}
	return all, rooms
}

// result is a compact copy of an aggregate result relation: the whole
// row for a plain query, one row per room for a grouped one.
type result struct {
	q     int // registered query index, -1 for ad-hoc
	pr    pred
	all   groupAgg
	rooms map[int64]groupAgg
}

// parseResult reads a (room,) g, n, s relation.
func parseResult(rel *sqlengine.Relation, pr pred) (result, bool) {
	res := result{pr: pr}
	if pr.grouped {
		res.rooms = map[int64]groupAgg{}
		for _, row := range rel.Rows {
			if len(row) != 4 {
				return res, false
			}
			name, _ := row[0].(string)
			var room int64
			if _, err := fmt.Sscanf(name, "r%d", &room); err != nil {
				return res, false
			}
			g, ok1 := asInt(row[1])
			n, ok2 := asInt(row[2])
			s, ok3 := asInt(row[3])
			if !ok1 || !ok2 || !ok3 {
				return res, false
			}
			res.rooms[room] = groupAgg{g, n, s}
			res.all.g = max(res.all.g, g)
			res.all.n += n
			res.all.s += s
		}
		return res, len(res.rooms) > 0
	}
	if len(rel.Rows) != 1 || len(rel.Rows[0]) != 3 {
		return res, false
	}
	g, ok1 := asInt(rel.Rows[0][0])
	n, ok2 := asInt(rel.Rows[0][1])
	s, ok3 := asInt(rel.Rows[0][2])
	res.all = groupAgg{g, n, s}
	return res, ok1 && ok2 && ok3
}

// check reports whether res equals the reference aggregate of a window
// the program may have evaluated: one ending at the row of res's
// max(gen), or at a later row up to the next one the predicate admits.
// known=false means the log does not yet reach far enough to decide:
// the row of max(gen), or the next admitted row after it, has not been
// logged. With final set (the stream has stopped) the log is complete.
func (l *outLog) check(res result, final bool) (ok, known bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, found := l.pos[res.all.g]
	if !found {
		return false, false
	}
	for end := p; ; end++ {
		if end == len(l.seq) {
			return false, final
		}
		if end > p && res.pr.admits(l.v[end], l.room[end]) {
			return false, true
		}
		all, rooms := l.window(end, res.pr)
		if all != res.all {
			continue
		}
		if !res.pr.grouped {
			return true, true
		}
		if len(rooms) == len(res.rooms) {
			same := true
			for r, g := range rooms {
				if res.rooms[r] != g {
					same = false
					break
				}
			}
			if same {
				return true, true
			}
		}
	}
}

type cqNode struct {
	c      *core.Container
	emit   wrappers.EmitFunc
	next   int64 // next seq
	frames [][]byte
	log    *outLog
	fs     *timingFS
	in     inputs
	rec    *recorder

	mu        sync.Mutex
	measuring bool     // count callbacks from the measured phase only
	pending   []result // registered results awaiting their check
}

func (n *cqNode) element(gen int64) stream.Element {
	seq := n.next
	n.next++
	return stream.MustElement(camRoomSchema, stream.Timestamp(cqTsBase+seq), seq, gen,
		roomName(n.in.room(0, seq, cqRooms)), n.in.v(0, seq), n.frames[seq%int64(len(n.frames))])
}

// adhoc is one ad-hoc statement of the client mix.
type adhoc struct {
	class string // window | grouped | history
	sql   string
	pr    pred
	a, b  int64 // history: seq range
}

// adhocMix draws the next ad-hoc statement: 60% window aggregates, 25%
// GROUP BY (each spread over several always-true texts, so the result
// cache mostly misses and sometimes hits) and 15% timed BETWEEN scans
// of evicted rows. The median lands inside the window class. There are
// 112 distinct texts in all, few enough that every sub-run sees each
// early and the caches, and so the heap, reach a steady size.
func adhocMix(rng *rand.Rand) adhoc {
	switch x := rng.Float64(); {
	case x < 0.60:
		k := 1 + rng.Intn(64)
		return adhoc{class: "window", pr: always,
			sql: fmt.Sprintf("select max(gen) as g, count(*) as n, sum(v) as s from CAMS where v > %d", -k)}
	case x < 0.85:
		k := 1 + rng.Intn(16)
		return adhoc{class: "grouped", pr: pred{lo: 0, hi: 1000, notRoom: -1, grouped: true},
			sql: fmt.Sprintf("select room, max(gen) as g, count(*) as n, sum(v) as s from CAMS where v > %d group by room", -k)}
	default:
		a := rng.Int63n(32) * ((cqPrefill - 2*cqWindow) / 32)
		b := a + 50 + a%150
		return adhoc{class: "history", a: a, b: b,
			sql: fmt.Sprintf("select count(*) as n, sum(v) as s, min(seq) as lo, max(seq) as hi from CAMS where timed between %d and %d",
				cqTsBase+a, cqTsBase+b)}
	}
}

// checkHistory verifies a timed BETWEEN result: every prefilled seq in
// [a, b] reached the output, so the scan must see exactly those.
func checkHistory(in inputs, rel *sqlengine.Relation, a, b int64) bool {
	if len(rel.Rows) != 1 || len(rel.Rows[0]) != 4 {
		return false
	}
	var sum int64
	for s := a; s <= b; s++ {
		sum += in.v(0, s)
	}
	want := []int64{b - a + 1, sum, a, b}
	for i, w := range want {
		if got, ok := asInt(rel.Rows[0][i]); !ok || got != w {
			return false
		}
	}
	return true
}

func runClientQueries(e *env, tr *tracer) (*report, error) {
	in := inputs{seed: e.seed}
	rng := rand.New(rand.NewSource(e.seed))
	frames := seededFrames(rng)
	preds, sampling := registeredMix(rng)
	r, t := newReport(), newTally()
	build := func() (*cqNode, error) { return newCQNode(e, tr, in, frames, preds, sampling, len(t.setup)) }
	if err := timeSetups(t, build, func(n *cqNode) { n.c.Close() }); err != nil {
		return nil, err
	}
	phase := time.Duration(e.seconds * float64(time.Second) / subRuns)
	for i := 0; i < subRuns; i++ {
		start := time.Now()
		n, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.setup = append(t.setup, time.Since(start).Seconds())
		err = n.measure(e, tr, r, t, phase, i)
		n.c.Close()
		if err != nil {
			return nil, err
		}
	}
	t.finish(r)
	t.setQ(r, "fresh_p50_ms", "ms", "fresh", 0.5)
	t.setQ(r, "fresh_p99_ms", "ms", "fresh", 0.99)
	t.setRate(r, "outputs_per_s", "callbacks")
	t.setQ(r, "op_p50_ms", "ms", "op", 0.5)
	t.setQ(r, "op_p99_ms", "ms", "op", 0.99)
	t.setRate(r, "op_per_s", "op")
	for _, class := range []string{"window", "grouped", "history"} {
		t.setQ(r, "sql."+class+"_us.p50", "us", class, 0.5)
	}
	arrivals := t.sums["arrivals"]
	r.set("ingress.emits", "count", arrivals, int(arrivals))
	r.set("trigger.arrivals", "count", arrivals, int(arrivals))
	r.set("trigger.outputs_per_arrival", "ratio", ratio(float64(t.k.outputs), arrivals), int(arrivals))
	r.set("repo.callbacks_per_arrival", "ratio", ratio(float64(t.counts["callbacks"]), arrivals), int(arrivals))
	r.set("checked_results", "count", t.sums["checked"], int(t.sums["checked"]))
	t.lagReport(r)
	if tr != nil {
		cqLayers(r, tr, t)
	}
	return r, nil
}

// newCQNode builds one client-queries container: the sensor, its
// subscriber, the prefilled history and the registered query set.
func newCQNode(e *env, tr *tracer, in inputs, frames [][]byte, preds []pred, sampling []float64, i int) (*cqNode, error) {
	dir, err := freshDir(filepath.Join(e.dir, fmt.Sprintf("cq%d", i)))
	if err != nil {
		return nil, err
	}
	hub := newSourceHub(map[string]*stream.Schema{"camroom": camRoomSchema})
	n := &cqNode{frames: frames, log: newOutLog(), in: in, rec: newRecorder()}
	opts := core.Options{Name: "perfbench-cq", DataDir: dir, Registry: hub.registry()}
	if tr != nil {
		n.fs = newTimingFS(storage.DefaultFS(), tr)
		opts.StorageFS = n.fs
	}
	c, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	n.c = c
	fail := func(err error) (*cqNode, error) {
		c.Close()
		return nil, err
	}
	if err := c.DeployXML([]byte(cqDescriptor)); err != nil {
		return fail(err)
	}
	err = subscribe(c, "cams", func(ev notify.Event) {
		t := e.now()
		el := ev.Element
		seq, gen := intField(el, "SEQ"), intField(el, "GEN")
		n.log.add(seq, gen, n.in.room(0, seq, cqRooms), intField(el, "V"))
		tr.add("sub.cb", uint64(gen), t, t)
	})
	if err != nil {
		return fail(err)
	}
	if n.emit, _, err = hub.emitters("0"); err != nil {
		return fail(err)
	}
	// Prefill the history one element at a time, each waiting for its
	// output, so every prefilled seq reaches the output table.
	if err := n.feed(e, cqPrefill); err != nil {
		return fail(err)
	}
	for q := range preds {
		if _, err := c.RegisterQuery("cams", preds[q].sql(), sampling[q], n.onResult(e, tr, q, preds[q])); err != nil {
			return fail(err)
		}
	}
	// Warm-up: a few arrivals through the registered set and a few
	// statements of every ad-hoc class.
	if err := n.feed(e, 10); err != nil {
		return fail(err)
	}
	warm := rand.New(rand.NewSource(e.seed + 1))
	for k := 0; k < 50; k++ {
		if _, err := c.Query(adhocMix(warm).sql); err != nil {
			return fail(err)
		}
	}
	if err := quiesce(setupPoll, c); err != nil {
		return fail(err)
	}
	return n, nil
}

// feed emits count elements one at a time, each once the previous one
// has reached the subscriber.
func (n *cqNode) feed(e *env, count int) error {
	deadline := time.Now().Add(30 * time.Second)
	for want := n.log.len() + 1; count > 0; count-- {
		n.emit(n.element(e.now()))
		for n.log.len() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("perfbench: feeding stalled at seq %d", n.next-1)
			}
			runtime.Gosched()
		}
		want++
	}
	return nil
}

// onResult is registered query q's callback: it counts the delivery,
// takes freshness from the always-true queries and queues the results
// of every cqCheckEvery-th query for the reference check.
func (n *cqNode) onResult(e *env, tr *tracer, q int, pr pred) func(*sqlengine.Relation) {
	return func(rel *sqlengine.Relation) {
		t := e.now()
		n.mu.Lock()
		live := n.measuring
		n.mu.Unlock()
		if !live {
			return
		}
		n.rec.count("callbacks", 1)
		if pr != always && q%cqCheckEvery != 0 {
			return
		}
		res, ok := parseResult(rel, pr)
		if !ok {
			n.rec.count("mismatch", 1)
			return
		}
		res.q = q
		if pr == always {
			n.rec.sample("fresh", res.all.g, float64(t-res.all.g)/1e6)
			tr.add("repo.cb", uint64(res.all.g), t, t)
		}
		if q%cqCheckEvery == 0 {
			n.mu.Lock()
			n.pending = append(n.pending, res)
			n.mu.Unlock()
		}
	}
}

// measure runs one sub-run's measured phase: the open-loop stream on
// one goroutine, the closed-loop ad-hoc client on this one.
func (n *cqNode) measure(e *env, tr *tracer, r *report, t *tally, phase time.Duration, sub int) error {
	m := begin(e, n.fs, n.c)
	start := time.Now()
	end := start.Add(phase)
	from, to := int64(start.Sub(e.epoch)), int64(end.Sub(e.epoch))
	nb := bins(phase, cqBin)
	n.rec.reset(from, to, nb)
	n.mu.Lock()
	n.measuring = true
	n.mu.Unlock()

	var arrivals int64
	lag := &dist{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		arrivals = openLoop(start, end, cqTick, lag, func(k int64, due time.Time) {
			el := n.element(int64(due.Sub(e.epoch)))
			t0 := e.now()
			n.emit(el)
			tr.add("emit", uint64(n.next-1), t0, e.now())
		})
	}()

	ops := newBinned(from, to, nb)
	classes := map[string]*binned{}
	for _, c := range []string{"window", "grouped", "history"} {
		classes[c] = newBinned(from, to, nb)
	}
	var queries, qerrs, mismatches, checked int64
	// late holds results whose newest row the subscriber has not logged
	// yet; they are re-checked every lateEvery queries. A result served
	// again from the result cache (the same relation) is not checked
	// twice.
	const lateEvery = 256
	var late []result
	lastRel := map[string]*sqlengine.Relation{}
	recheck := func(final bool) {
		n.mu.Lock()
		checked += int64(len(n.pending))
		late = append(late, n.pending...)
		n.pending = n.pending[:0]
		n.mu.Unlock()
		kept := late[:0]
		for _, res := range late {
			switch ok, known := n.log.check(res, final); {
			case !known:
				kept = append(kept, res)
			case !ok:
				mismatches++
				r.note("query %d (%s) returned %+v, which no window of the logged outputs gives", res.q, res.pr.sql(), res.all)
			}
		}
		late = kept
	}
	qrng := rand.New(rand.NewSource(e.seed + 2 + int64(sub)))
	for ; time.Now().Before(end); time.Sleep(thinkTime) {
		q := adhocMix(qrng)
		t0 := e.now()
		rel, err := n.c.Query(q.sql)
		t1 := e.now()
		tr.add("query", uint64(queries), t0, t1)
		queries++
		ops.add(t0, float64(t1-t0)/1e6)
		classes[q.class].add(t0, float64(t1-t0)/1e3)
		if queries%lateEvery == 0 {
			recheck(false)
		}
		if err != nil {
			qerrs++
			continue
		}
		if lastRel[q.sql] == rel {
			continue
		}
		lastRel[q.sql] = rel
		checked++
		if q.class == "history" {
			if !checkHistory(n.in, rel, q.a, q.b) {
				mismatches++
				r.note("%s returned %v", q.sql, rel.Rows)
			}
			continue
		}
		res, ok := parseResult(rel, q.pr)
		if !ok {
			mismatches++
			r.note("%s returned %v", q.sql, rel.Rows)
			continue
		}
		res.q = -1
		late = append(late, res)
	}
	elapsed := time.Since(start).Seconds()
	<-done
	if err := quiesce(phasePoll, n.c); err != nil {
		return err
	}
	n.mu.Lock()
	n.measuring = false
	n.mu.Unlock()
	t.end(e, m, n.fs, arrivals+queries, n.c)
	recheck(true)

	t.addBins("fresh", n.rec.binned("fresh"))
	t.addRate("callbacks", n.rec.get("callbacks"), elapsed)
	t.addBins("op", ops)
	t.addRate("op", queries, elapsed)
	for c, b := range classes {
		t.addBins(c, b)
	}
	t.lag.merge(lag)
	t.sums["arrivals"] += float64(arrivals)
	t.sums["checked"] += float64(checked)
	r.attempted += arrivals + queries + checked
	r.fail("query_errors", qerrs)
	r.fail("reference_mismatches", mismatches+n.rec.get("mismatch"))
	n.rec.reset(0, 0, 0)
	t.measureHeap()
	return nil
}

// cqLayers derives the client-queries span metrics: the repository
// sweep (subscriber sees an output → registered callback for the same
// gen), emits and storage.
func cqLayers(r *report, tr *tracer, t *tally) {
	in := t.spans(tr)
	sub := map[uint64]int64{}
	for _, s := range in("sub.cb") {
		sub[s.id] = s.start
	}
	var sweep [][2]int64
	for _, s := range in("repo.cb") {
		if at, ok := sub[s.id]; ok {
			sweep = append(sweep, [2]int64{at, s.start})
		}
	}
	layerQ(r, "repo.sweep_us", gapsUS(sweep), true)
	emitLayer(r, in)
	fsLayers(r, in)
}
