package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// sensor-pipeline (the paper's Figure 3 shape, write-heavy): 16 mote
// sources and 4 camera sources with 16 KB frames, grouped into 4
// network sensors with permanent storage; a local composition chain
// (site fan-in over the networks, then a filtering leaf) above them.
// An open-loop phase at a fixed offered rate measures freshness and
// delivered outputs; a closed-loop burst phase through BatchEmitFunc
// measures ingest. No client queries, no p2p.
const (
	spNets        = 4
	spMotes       = 4                    // mote sources per network; source index spMotes is the camera
	spPerNet      = spMotes + 1          // sources per network
	spMoteWindow  = 8                    // mote source window (count)
	spTick        = 4 * time.Millisecond // every mote emits once per tick, one camera rotating
	spCamMaxV     = 900                  // camera filter: v < spCamMaxV
	spLeafMinV    = 250                  // leaf filter: v >= spLeafMinV
	spBurstMotes  = 64
	spBurstFrames = 4
	spFixedShare  = 0.6 // share of each sub-run at the fixed offered rate
	spBin         = 500 * time.Millisecond
)

var (
	moteSchema = stream.MustSchema(
		stream.Field{Name: "src", Type: stream.TypeInt},
		stream.Field{Name: "seq", Type: stream.TypeInt},
		stream.Field{Name: "gen", Type: stream.TypeInt},
		stream.Field{Name: "v", Type: stream.TypeInt},
	)
	cameraSchema = stream.MustSchema(
		stream.Field{Name: "src", Type: stream.TypeInt},
		stream.Field{Name: "seq", Type: stream.TypeInt},
		stream.Field{Name: "gen", Type: stream.TypeInt},
		stream.Field{Name: "v", Type: stream.TypeInt},
		stream.Field{Name: "frame", Type: stream.TypeBytes},
	)
)

const spOutput = `<output-structure>
    <field name="src" type="integer"/><field name="seq" type="integer"/><field name="gen" type="integer"/>
    <field name="n" type="integer"/><field name="v" type="double"/>
  </output-structure>`

func spNetDescriptor(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<virtual-sensor name=\"net%d\">\n  %s\n  <storage size=\"256\" permanent-storage=\"true\"/>\n", i, spOutput)
	for j := 0; j < spMotes; j++ {
		fmt.Fprintf(&b, `  <input-stream name="m%d">
    <stream-source alias="s" storage-size="%d">
      <address wrapper="bench"><predicate key="kind" val="mote"/><predicate key="id" val="%d"/></address>
      <query>select max(src) as src, max(seq) as seq, max(gen) as gen, count(*) as n, avg(v) as v from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
`, j, spMoteWindow, i*spPerNet+j)
	}
	fmt.Fprintf(&b, `  <input-stream name="cam">
    <stream-source alias="s" storage-size="1">
      <address wrapper="bench"><predicate key="kind" val="camera"/><predicate key="id" val="%d"/></address>
      <query>select src, seq, gen, 1 as n, v * 1.0 as v from WRAPPER where v &lt; %d</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, i*spPerNet+spMotes, spCamMaxV)
	return b.String()
}

func spSiteDescriptor() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<virtual-sensor name=\"site\">\n  %s\n  <storage size=\"256\"/>\n", spOutput)
	for i := 0; i < spNets; i++ {
		fmt.Fprintf(&b, `  <input-stream name="n%d">
    <stream-source alias="s" storage-size="1">
      <address wrapper="local"><predicate key="sensor" val="net%d"/></address>
      <query>select * from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
`, i, i)
	}
	b.WriteString("</virtual-sensor>")
	return b.String()
}

func spLeafDescriptor() string {
	return fmt.Sprintf(`<virtual-sensor name="leaf">
  %s
  <storage size="256"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="local"><predicate key="sensor" val="site"/></address>
      <query>select * from WRAPPER where v &gt;= %d</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, spOutput, spLeafMinV)
}

// spCheck verifies one network or leaf output row against the generated
// inputs: a mote row is the count/avg of the spMoteWindow elements
// ending at its max(seq), a camera row is that frame's reading.
func spCheck(in inputs, e stream.Element) bool {
	src, seq := intField(e, "SRC"), intField(e, "SEQ")
	n := intField(e, "N")
	vv, _ := e.ValueByName("V")
	v, ok := asFloat(vv)
	if !ok || src < 0 || src >= spNets*spPerNet || seq < 0 {
		return false
	}
	if src%spPerNet == spMotes {
		want := in.v(src, seq)
		return n == 1 && want < spCamMaxV && sameFloat(v, float64(want))
	}
	lo := max(0, seq-spMoteWindow+1)
	var sum int64
	for s := lo; s <= seq; s++ {
		sum += in.v(src, s)
	}
	cnt := seq - lo + 1
	return n == cnt && sameFloat(v, float64(sum)/float64(cnt))
}

// spNode is one assembled sensor-pipeline container.
type spNode struct {
	c      *core.Container
	emit   [spNets * spPerNet]wrappers.EmitFunc
	batch  [spNets * spPerNet]wrappers.BatchEmitFunc
	seq    [spNets * spPerNet]int64
	frames [][]byte
	fs     *timingFS
	rec    *recorder
	in     inputs
	// burstFrom is the gen at which the burst phase starts; callbacks
	// of earlier elements belong to the fixed-rate phase.
	burstFrom atomic.Int64
}

// element builds the next element of source src with the given gen.
func (n *spNode) element(src, gen int64) stream.Element {
	seq := n.seq[src]
	n.seq[src]++
	v := n.in.v(src, seq)
	if src%spPerNet == spMotes {
		return stream.MustElement(cameraSchema, 0, src, seq, gen, v, n.frames[seq%int64(len(n.frames))])
	}
	return stream.MustElement(moteSchema, 0, src, seq, gen, v)
}

func runSensorPipeline(e *env, tr *tracer) (*report, error) {
	in := inputs{seed: e.seed}
	frames := seededFrames(rand.New(rand.NewSource(e.seed)))
	r, t := newReport(), newTally()
	build := func() (*spNode, error) { return newSPNode(e, tr, in, frames, len(t.setup)) }
	if err := timeSetups(t, build, func(n *spNode) { n.c.Close() }); err != nil {
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
		err = n.measure(e, tr, r, t, phase)
		n.c.Close()
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
	t.setQ(r, "leaf_fresh_p50_ms", "ms", "leaf_fresh", 0.5)
	t.setRate(r, "ingest_per_s", "ingest")
	r.set("ingress.emits", "count", float64(t.ops), int(t.ops))
	arrivals := t.sums["arrivals"]
	r.set("trigger.arrivals", "count", arrivals, int(arrivals))
	r.set("trigger.outputs_per_arrival", "ratio", ratio(t.sums["net_outputs"], arrivals), int(arrivals))
	t.lagReport(r)
	if tr != nil {
		spLayers(r, tr, t)
	}
	return r, nil
}

// newSPNode builds and warms up one sensor-pipeline container; its
// data lives in sub-directory i of the run's scratch directory.
func newSPNode(e *env, tr *tracer, in inputs, frames [][]byte, i int) (*spNode, error) {
	dir, err := freshDir(filepath.Join(e.dir, fmt.Sprintf("sp%d", i)))
	if err != nil {
		return nil, err
	}
	hub := newSourceHub(map[string]*stream.Schema{"mote": moteSchema, "camera": cameraSchema})
	n := &spNode{frames: frames, rec: newRecorder(), in: in}
	n.burstFrom.Store(1 << 62)
	opts := core.Options{Name: "perfbench-sp", DataDir: dir, Registry: hub.registry()}
	if tr != nil {
		n.fs = newTimingFS(storage.DefaultFS(), tr)
		opts.StorageFS = n.fs
	}
	c, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	n.c = c
	fail := func(err error) (*spNode, error) {
		c.Close()
		return nil, err
	}
	var descs []string
	for k := 0; k < spNets; k++ {
		descs = append(descs, spNetDescriptor(k))
	}
	for _, d := range append(descs, spSiteDescriptor(), spLeafDescriptor()) {
		if err := c.DeployXML([]byte(d)); err != nil {
			return fail(err)
		}
	}
	for k := 0; k < spNets; k++ {
		if err := subscribe(c, fmt.Sprintf("net%d", k), n.onOutput(e, tr, "net")); err != nil {
			return fail(err)
		}
	}
	if err := subscribe(c, "leaf", n.onOutput(e, tr, "leaf")); err != nil {
		return fail(err)
	}
	for src := range n.emit {
		emit, batch, err := hub.emitters(fmt.Sprint(src))
		if err != nil {
			return fail(err)
		}
		n.emit[src], n.batch[src] = emit, batch
	}
	// Warm-up: a few elements per source through both emit paths, so
	// lazy state (statement caches, WAL files) exists before the
	// measured phase.
	for r := 0; r < 16; r++ {
		for src := range n.emit {
			n.emit[src](n.element(int64(src), e.now()))
		}
	}
	for src := range n.batch {
		n.batch[src]([]stream.Element{n.element(int64(src), e.now()), n.element(int64(src), e.now())})
	}
	if err := quiesce(setupPoll, c); err != nil {
		return fail(err)
	}
	return n, nil
}

// measure runs one sub-run's measured phase: spFixedShare of it open
// loop at the fixed offered rate, the rest a closed-loop burst.
func (n *spNode) measure(e *env, tr *tracer, r *report, t *tally, phase time.Duration) error {
	m := begin(e, n.fs, n.c)

	// Fixed-rate phase: open loop; each tick every mote emits one
	// element and one camera, taking the networks in turn, one frame.
	fixedDur := time.Duration(spFixedShare * float64(phase))
	start := time.Now()
	from := int64(start.Sub(e.epoch))
	n.rec.reset(from, from+int64(fixedDur), bins(fixedDur, spBin))
	var arrivals int64
	openLoop(start, start.Add(fixedDur), spTick, &t.lag, func(k int64, due time.Time) {
		gen := int64(due.Sub(e.epoch))
		for net := int64(0); net < spNets; net++ {
			for j := int64(0); j < spMotes; j++ {
				n.emitOne(tr, e, net*spPerNet+j, gen)
			}
		}
		n.emitOne(tr, e, k%spNets*spPerNet+spMotes, gen)
		arrivals += spNets*spMotes + 1
	})

	fixedSecs := time.Since(start).Seconds()

	// Burst phase: closed loop, one BatchEmitFunc call per op, rotating
	// over every source.
	n.burstFrom.Store(e.now())
	burstDur := phase - fixedDur
	burstStart := time.Now()
	bFrom := int64(burstStart.Sub(e.epoch))
	ops := newBinned(bFrom, bFrom+int64(burstDur), bins(burstDur, spBin))
	var calls, burstElems int64
	for ; time.Since(burstStart) < burstDur; calls++ {
		src := calls % (spNets * spPerNet)
		size := spBurstMotes
		if src%spPerNet == spMotes {
			size = spBurstFrames
		}
		gen := e.now()
		batch := make([]stream.Element, size)
		for i := range batch {
			batch[i] = n.element(src, gen)
		}
		t0 := e.now()
		n.batch[src](batch)
		t1 := e.now()
		tr.add("emit", key(src, n.seq[src]-1), t0, t1)
		ops.add(t0, float64(t1-t0)/1e6)
		burstElems += int64(size)
	}
	burstSecs := time.Since(burstStart).Seconds()
	if err := quiesce(phasePoll, n.c); err != nil {
		return err
	}
	t.end(e, m, n.fs, arrivals+burstElems, n.c)

	t.addBins("fresh", n.rec.binned("fresh"))
	t.addBins("leaf_fresh", n.rec.binned("leaf_fresh"))
	t.addRate("delivered", n.rec.get("fixed.net")+n.rec.get("fixed.leaf"), fixedSecs)
	t.addBins("op", ops)
	t.addRate("op", calls, burstSecs)
	t.addRate("ingest", burstElems, burstSecs)
	t.sums["arrivals"] += float64(arrivals)
	t.sums["net_outputs"] += float64(n.rec.get("fixed.net"))
	checked := n.rec.get("checked")
	r.attempted += arrivals + burstElems + checked
	r.fail("reference_mismatches", n.rec.get("mismatch"))
	if checked == 0 {
		r.fail("no_outputs_checked", 1)
	}
	n.rec.reset(0, 0, 0)
	t.measureHeap()
	return nil
}

// emitOne emits the next element of src through its EmitFunc.
func (n *spNode) emitOne(tr *tracer, e *env, src, gen int64) {
	el := n.element(src, gen)
	t0 := e.now()
	n.emit[src](el)
	tr.add("emit", key(src, n.seq[src]-1), t0, e.now())
}

// onOutput is the subscriber callback of a network sensor (tier "net")
// or of the leaf: it checks the row against the reference and records
// freshness for rows of the fixed-rate phase.
func (n *spNode) onOutput(e *env, tr *tracer, tier string) func(notify.Event) {
	return func(ev notify.Event) {
		t0 := e.now()
		el := ev.Element
		gen := intField(el, "GEN")
		ok := spCheck(n.in, el)
		if tier == "leaf" {
			vv, _ := el.ValueByName("V")
			v, _ := asFloat(vv)
			ok = ok && v >= spLeafMinV
		}
		n.rec.count("checked", 1)
		if !ok {
			n.rec.count("mismatch", 1)
		}
		if gen < n.burstFrom.Load() {
			n.rec.count("fixed."+tier, 1)
			n.rec.sample(map[string]string{"net": "fresh", "leaf": "leaf_fresh"}[tier], gen, float64(t0-gen)/1e6)
		}
		id := key(intField(el, "SRC"), intField(el, "SEQ"))
		tr.add(tier+".cb", id, t0, t0)
		tr.add("notify.cb", id, t0, e.now())
	}
}

// spLayers derives the sensor-pipeline per-layer metrics from the spans
// of the measured phases.
func spLayers(r *report, tr *tracer, t *tally) {
	in := t.spans(tr)
	emits := emitLayer(r, in)
	emitEnd := make(map[uint64]int64, len(emits))
	for _, s := range emits {
		emitEnd[s.id] = s.end
	}
	netCB := make(map[uint64]int64)
	var wait, hop [][2]int64
	for _, s := range in("net.cb") {
		netCB[s.id] = s.start
		if end, ok := emitEnd[s.id]; ok {
			wait = append(wait, [2]int64{end, s.start})
		}
	}
	for _, s := range in("leaf.cb") {
		if t, ok := netCB[s.id]; ok {
			hop = append(hop, [2]int64{t, s.start})
		}
	}
	layerQ(r, "trigger.wait_us", gapsUS(wait), true)
	layerQ(r, "compose.hop_us", gapsUS(hop), true)
	cb := &dist{}
	for _, s := range in("notify.cb") {
		cb.add(float64(s.dur()) / 1e3)
	}
	layerQ(r, "notify.cb_us", cb, false)
	fsLayers(r, in)
}

// emitLayer reports the self time of the phase's emit calls and
// returns their spans. No span is recorded inside an emit call (source
// windows are memory tables; WAL writes happen on trigger workers), so
// an emit's self time is its whole span.
func emitLayer(r *report, in func(string) []span) []span {
	emits := in("emit")
	self := &dist{}
	for _, st := range selfTimes(emits, nil) {
		self.add(float64(st) / 1e3)
	}
	layerQ(r, "ingress.emit_us", self, true)
	return emits
}

// fsLayers reports the durations of the timing FS's spans.
func fsLayers(r *report, in func(string) []span) {
	durs := func(layer string) *dist {
		d := &dist{}
		for _, s := range in(layer) {
			d.add(float64(s.dur()) / 1e3)
		}
		return d
	}
	layerQ(r, "storage.write_us", durs("fs.write"), true)
	layerQ(r, "storage.sync_us", durs("fs.sync"), false)
	layerQ(r, "storage.read_us", durs("fs.read"), true)
}
