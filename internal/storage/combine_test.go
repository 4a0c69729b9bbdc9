package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/stream"
)

// prodSchema tags every element with its producer and per-producer
// sequence number, so the concurrency tests can check FIFO and multiset
// properties after arbitrary interleaving.
var prodSchema = stream.MustSchema(
	stream.Field{Name: "producer", Type: stream.TypeInt},
	stream.Field{Name: "seq", Type: stream.TypeInt},
	stream.Field{Name: "value", Type: stream.TypeInt},
)

func prodElem(producer, seq, value int64) stream.Element {
	return stream.MustElement(prodSchema, stream.Timestamp(producer*1_000_000+seq), producer, seq, value)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

type prodKey struct{ producer, seq int64 }

func keyOf(e stream.Element) prodKey {
	return prodKey{e.Value(0).(int64), e.Value(1).(int64)}
}

// eventMirror is an aggregate-maintainer-style observer: it records the
// full insert/evict event sequence, mirrors the window FIFO, maintains
// count/sum, and tracks the newest sequence number it has seen per
// producer. Callbacks run under the table lock; readers use WithLock.
type eventMirror struct {
	events []string
	order  []stream.Element // every insert, in window-commit order
	window []stream.Element
	sum    int64
	seen   map[int64]int64 // producer -> newest seq inserted
}

func newEventMirror() *eventMirror { return &eventMirror{seen: map[int64]int64{}} }

func (m *eventMirror) OnInsert(e stream.Element) {
	k := keyOf(e)
	m.events = append(m.events, "+"+e.String())
	m.order = append(m.order, e)
	m.window = append(m.window, e)
	m.sum += e.Value(2).(int64)
	m.seen[k.producer] = k.seq
}

func (m *eventMirror) OnEvict(e stream.Element) {
	if len(m.window) == 0 || keyOf(m.window[0]) != keyOf(e) {
		panic("eventMirror: evict does not match FIFO head")
	}
	m.events = append(m.events, "-"+e.String())
	m.sum -= e.Value(2).(int64)
	m.window = m.window[1:]
}

func (m *eventMirror) OnTruncate() {
	m.events = append(m.events, "truncate")
	m.window = nil
	m.sum = 0
}

func newProdStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := NewStore(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	return store, dir
}

func prodOptions(policy SyncPolicy, window int) TableOptions {
	return TableOptions{
		Window:          stream.Window{Kind: stream.CountWindow, Count: window},
		Permanent:       true,
		Sync:            policy,
		RecoverInterval: -1,
	}
}

// checkProducerFIFO fails unless every producer's sequence numbers
// appear in order in elems, each exactly once from 0, and returns the
// per-producer counts.
func checkProducerFIFO(t *testing.T, what string, elems []stream.Element) map[int64]int64 {
	t.Helper()
	next := map[int64]int64{}
	for i, e := range elems {
		k := keyOf(e)
		if k.seq != next[k.producer] {
			t.Fatalf("%s position %d: producer %d seq %d, want %d (FIFO, loss or duplicate)",
				what, i, k.producer, k.seq, next[k.producer])
		}
		next[k.producer]++
	}
	return next
}

func sameKeys(t *testing.T, what string, got, want []stream.Element) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if keyOf(got[i]) != keyOf(want[i]) {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, keyOf(got[i]), keyOf(want[i]))
		}
	}
}

// TestLanesConcurrentEquivalence is the concurrent-producer property
// test for every WAL policy (one ingest lane per producer goroutine), the combined sync=durable path included:
// 8 producers push random Insert/InsertBatch splits, each call's rows
// are visible when it returns, and the result — window, WAL and
// observer event sequence — is indistinguishable from one serial
// InsertBatch of the resulting commit order.
func TestLanesConcurrentEquivalence(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncDurable} {
		t.Run(policy.String(), func(t *testing.T) {
			testConcurrentEquivalence(t, policy)
		})
	}
}

func testConcurrentEquivalence(t *testing.T, policy SyncPolicy) {
	const (
		producers   = 8
		perProducer = 250
		windowSize  = 256
	)
	store, dir := newProdStore(t)
	defer store.Close()
	mirror := newEventMirror()
	tab, err := store.CreateTable("conc", prodSchema, prodOptions(policy, windowSize))
	if err != nil {
		t.Fatal(err)
	}
	if (tab.comb != nil) != (policy == SyncDurable) {
		t.Fatalf("combiner engaged = %v under sync=%s", tab.comb != nil, policy)
	}
	tab.SetObserver(mirror)

	var wg sync.WaitGroup
	var calls atomic.Uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + p))
			for seq := int64(0); seq < perProducer; {
				n := min(1+rng.Int63n(7), perProducer-seq)
				batch := make([]stream.Element, n)
				for i := range batch {
					batch[i] = prodElem(p, seq, rng.Int63n(1000))
					seq++
				}
				calls.Add(1)
				var err error
				if n == 1 && rng.Intn(2) == 0 {
					err = tab.Insert(batch[0])
				} else {
					err = tab.InsertBatch(batch)
				}
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				// Visible on return: the observer has seen this call's
				// last row.
				tab.WithLock(func() {
					if got := mirror.seen[p]; got != seq-1 {
						t.Errorf("producer %d: newest visible seq %d on return, want %d", p, got, seq-1)
					}
				})
			}
		}(int64(p))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Durable on return: SyncAlways and SyncDurable commit inside every
	// call, so the file already holds every row without a Flush.
	if policy != SyncInterval {
		_, rep, err := ReplayLog(filepath.Join(dir, "CONC.gsnlog"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep) != producers*perProducer {
			t.Fatalf("WAL holds %d rows before any flush, want %d", len(rep), producers*perProducer)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}

	var order []stream.Element
	var events []string
	var sum int64
	tab.WithLock(func() {
		order = append(order, mirror.order...)
		events = append(events, mirror.events...)
		sum = mirror.sum
	})
	for p, n := range checkProducerFIFO(t, "commit order", order) {
		if n != perProducer {
			t.Fatalf("producer %d committed %d rows, want %d", p, n, perProducer)
		}
	}
	if len(order) != producers*perProducer {
		t.Fatalf("committed %d rows, want %d", len(order), producers*perProducer)
	}
	snap := tab.Snapshot()
	sameKeys(t, "window", snap, order[len(order)-windowSize:])

	// Replay order equals window (commit) order.
	_, rep, err := ReplayLog(filepath.Join(dir, "CONC.gsnlog"))
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "WAL replay", rep, order)

	// The serial reference: one InsertBatch of the commit order yields
	// the identical window, WAL, aggregates and observer events.
	serialMirror := newEventMirror()
	serial, err := store.CreateTable("serial", prodSchema, prodOptions(policy, windowSize))
	if err != nil {
		t.Fatal(err)
	}
	serial.SetObserver(serialMirror)
	if err := serial.InsertBatch(order); err != nil {
		t.Fatal(err)
	}
	if err := serial.Flush(); err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "serial window", serial.Snapshot(), snap)
	_, serialRep, err := ReplayLog(filepath.Join(dir, "SERIAL.gsnlog"))
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "serial WAL replay", serialRep, rep)
	serial.WithLock(func() {
		if serialMirror.sum != sum {
			t.Errorf("maintained sum %d != serial %d", sum, serialMirror.sum)
		}
		if len(serialMirror.events) != len(events) {
			t.Fatalf("observer saw %d events, serial InsertBatch %d", len(events), len(serialMirror.events))
		}
		for i := range events {
			if events[i] != serialMirror.events[i] {
				t.Fatalf("observer event %d = %s, serial InsertBatch %s", i, events[i], serialMirror.events[i])
			}
		}
	})

	// Combining only ever merges commits: never more than one per call.
	if policy == SyncDurable {
		commits := tab.Stats().LogFlushes
		if commits > calls.Load() {
			t.Fatalf("%d WAL commits for %d calls", commits, calls.Load())
		}
		t.Logf("%d WAL commits for %d calls, %d rows", commits, calls.Load(), len(order))
	}
}

// TestLaneSyncAlwaysDurableOnAck: under the policies that commit inside
// every call, an acknowledged Insert is in the WAL file on return — read
// as-is, without a Flush.
func TestLaneSyncAlwaysDurableOnAck(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncDurable} {
		t.Run(policy.String(), func(t *testing.T) {
			store, dir := newProdStore(t)
			defer store.Close()
			tab, err := store.CreateTable("d", prodSchema, prodOptions(policy, 64))
			if err != nil {
				t.Fatal(err)
			}
			const n = 50
			for i := int64(0); i < n; i++ {
				if err := tab.Insert(prodElem(1, i, i)); err != nil {
					t.Fatal(err)
				}
				_, rep, err := ReplayLog(filepath.Join(dir, "D.gsnlog"))
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(rep)) != i+1 {
					t.Fatalf("WAL holds %d records after %d acked sync=%s inserts", len(rep), i+1, policy)
				}
			}
		})
	}
}

// TestLaneHandleLessVisibleOnReturn: plain Table.Insert from concurrent
// producers, with no per-producer handle and no drain step, makes each
// row visible in the window before it returns.
func TestLaneHandleLessVisibleOnReturn(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncDurable} {
		t.Run(policy.String(), func(t *testing.T) {
			const producers, perProducer = 4, 100
			store, _ := newProdStore(t)
			defer store.Close()
			tab, err := store.CreateTable("v", prodSchema, prodOptions(policy, producers*perProducer))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for p := int64(0); p < producers; p++ {
				wg.Add(1)
				go func(p int64) {
					defer wg.Done()
					for i := int64(0); i < perProducer; i++ {
						before := tab.Len()
						if err := tab.Insert(prodElem(p, i, i)); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
						if after := tab.Len(); after <= before {
							t.Errorf("producer %d seq %d not visible on return: Len %d before, %d after", p, i, before, after)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			if got := tab.Len(); got != producers*perProducer {
				t.Fatalf("Len = %d, want %d", got, producers*perProducer)
			}
			checkProducerFIFO(t, "window", tab.Snapshot())
		})
	}
}

// TestCombinerTruncateRace: Truncate racing durable producers resurrects
// nothing and strands no caller. Every producer returns, and at the end
// the WAL holds exactly the window (the rows since the last truncation),
// in window order — no pre-truncate row survives in the file, no
// post-truncate row is missing from it.
func TestCombinerTruncateRace(t *testing.T) {
	const producers, perProducer = 8, 150
	store, dir := newProdStore(t)
	defer store.Close()
	tab, err := store.CreateTable("trunc", prodSchema, prodOptions(SyncDurable, producers*perProducer))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := int64(0); p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perProducer; i++ {
				if err := tab.Insert(prodElem(p, i, i)); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(time.Minute)
	truncs := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-deadline:
			t.Fatal("producers stranded")
		case <-time.After(time.Millisecond):
			if err := tab.Truncate(); err != nil {
				t.Fatal(err)
			}
			truncs++
		}
	}
	t.Logf("%d truncations raced the producers", truncs)

	snap := tab.Snapshot()
	_, rep, err := ReplayLog(filepath.Join(dir, "TRUNC.gsnlog"))
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "WAL after truncations", rep, snap)
	// Each producer's surviving rows are a contiguous, in-order run.
	last := map[int64]int64{}
	for i, e := range snap {
		k := keyOf(e)
		if prev, ok := last[k.producer]; ok && k.seq != prev+1 {
			t.Fatalf("window position %d: producer %d seq %d after %d", i, k.producer, k.seq, prev)
		}
		last[k.producer] = k.seq
	}
}

// TestCombinerCloseRace: Close racing durable producers strands no
// caller, and every row whose Insert returned before Close began is in
// the file afterwards, exactly once and in per-producer order.
func TestCombinerCloseRace(t *testing.T) {
	const producers, perProducer = 8, 200
	store, dir := newProdStore(t)
	tab, err := store.CreateTable("close", prodSchema, prodOptions(SyncDurable, producers*perProducer))
	if err != nil {
		t.Fatal(err)
	}
	var closing atomic.Bool
	acked := make([]int64, producers) // rows acked before Close began
	var wg sync.WaitGroup
	for p := int64(0); p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < perProducer; i++ {
				if err := tab.Insert(prodElem(p, i, i)); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				if !closing.Load() {
					acked[p] = i + 1
				}
			}
		}()
	}
	for tab.Stats().Inserted < producers*perProducer/4 {
		time.Sleep(100 * time.Microsecond)
	}
	closing.Store(true)
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("producers stranded by Close")
	}

	_, rep, err := ReplayLog(filepath.Join(dir, "CLOSE.gsnlog"))
	if err != nil {
		t.Fatal(err)
	}
	inFile := checkProducerFIFO(t, "WAL after Close", rep)
	for p, n := range acked {
		if inFile[int64(p)] < n {
			t.Fatalf("producer %d: %d rows acked before Close, %d in the file", p, n, inFile[int64(p)])
		}
	}
	store.Close()
}

// gateObserver blocks the commit of a chosen producer's rows inside
// the table lock, so a test can hold a combined commit mid-flight.
type gateObserver struct {
	entered, release map[int64]chan struct{}
}

func (g *gateObserver) OnInsert(e stream.Element) {
	if p := keyOf(e).producer; g.entered[p] != nil {
		close(g.entered[p])
		<-g.release[p]
	}
}
func (g *gateObserver) OnEvict(stream.Element) {}
func (g *gateObserver) OnTruncate()            {}

// TestCombinerStrandsNoCaller pins the release-recheck: a request queued
// while the role holder is mid-commit is served by that holder after it
// releases the role, even when no other caller ever arrives.
func TestCombinerStrandsNoCaller(t *testing.T) {
	store, _ := newProdStore(t)
	defer store.Close()
	tab, err := store.CreateTable("strand", prodSchema, prodOptions(SyncDurable, 64))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateObserver{entered: map[int64]chan struct{}{}, release: map[int64]chan struct{}{}}
	for _, p := range []int64{1, 2} {
		gate.entered[p], gate.release[p] = make(chan struct{}), make(chan struct{})
	}
	tab.SetObserver(gate)
	queued := func(n int) {
		for {
			tab.comb.mu.Lock()
			got := len(tab.comb.pending)
			tab.comb.mu.Unlock()
			if got == n {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	errs := make(chan error, 3)
	insert := func(p int64) { errs <- tab.Insert(prodElem(p, 0, 0)) }

	go insert(1) // uncontended: commits directly, held inside the commit
	<-gate.entered[1]
	go insert(2) // queues behind producer 1's commit
	queued(1)
	close(gate.release[1]) // producer 1 now serves producer 2 as role holder
	<-gate.entered[2]
	go insert(3) // queues while the holder is mid-commit, and is the last caller
	queued(1)
	close(gate.release[2])
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a queued caller was stranded")
		}
	}
	if got := tab.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestCombinerClosedLogError: when the log is closed under a combined
// group, the error reaches the direct committer and every merged caller,
// and the window is unchanged.
func TestCombinerClosedLogError(t *testing.T) {
	const producers = 8
	store, _ := newProdStore(t)
	defer store.Close()
	tab, err := store.CreateTable("shut", prodSchema, prodOptions(SyncDurable, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(prodElem(99, 0, 0)); err != nil {
		t.Fatal(err)
	}
	before := tab.Snapshot()

	// Hold the table lock so the first producer takes the combiner role
	// and blocks, and the rest queue behind it.
	tab.mu.Lock()
	errs := make(chan error, producers)
	for p := int64(0); p < producers; p++ {
		go func() {
			if p%2 == 0 {
				errs <- tab.Insert(prodElem(p, 0, 1))
			} else {
				errs <- tab.InsertBatch([]stream.Element{prodElem(p, 0, 1), prodElem(p, 1, 1)})
			}
		}()
	}
	for {
		tab.comb.mu.Lock()
		n := len(tab.comb.pending)
		tab.comb.mu.Unlock()
		if n == producers-1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := tab.log.Close(); err != nil {
		t.Fatal(err)
	}
	tab.mu.Unlock()
	for i := 0; i < producers; i++ {
		if err := <-errs; !errors.Is(err, os.ErrClosed) {
			t.Fatalf("caller %d: err = %v, want os.ErrClosed", i, err)
		}
	}
	sameKeys(t, "window after closed-log commit", tab.Snapshot(), before)
	if st := tab.Stats(); st.Inserted != 1 || st.Degraded {
		t.Fatalf("stats = %+v, want 1 insert and no degradation", st)
	}
}

// TestCombinerUncontendedAllocsNothing: a lone durable producer commits
// directly, without queueing a request or taking a done channel.
func TestCombinerUncontendedAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	store, _ := newProdStore(t)
	defer store.Close()
	tab, err := store.CreateTable("solo", prodSchema, prodOptions(SyncDurable, 64))
	if err != nil {
		t.Fatal(err)
	}
	e := prodElem(1, 0, 0)
	batch := []stream.Element{e, e}
	for i := 0; i < 200; i++ { // grow the window slice to its steady size
		if err := tab.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	before := tab.Stats().LogFlushes
	const runs = 50
	if n := testing.AllocsPerRun(runs, func() {
		if err := tab.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("uncontended durable insert allocates %.1f times per call", n)
	}
	// AllocsPerRun adds one warm-up run: two calls per run, one commit
	// per call.
	if got := tab.Stats().LogFlushes - before; got != 2*(runs+1) {
		t.Fatalf("%d WAL commits for %d calls, want one per call", got, 2*(runs+1))
	}
}
