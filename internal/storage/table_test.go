package storage

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gsn/internal/stream"
)

var tempSchema = stream.MustSchema(
	stream.Field{Name: "temperature", Type: stream.TypeInt},
)

func intElem(t *testing.T, ts stream.Timestamp, v int64) stream.Element {
	t.Helper()
	e, err := stream.NewElement(tempSchema, ts, v)
	if err != nil {
		t.Fatalf("NewElement: %v", err)
	}
	return e
}

func TestCountWindowEviction(t *testing.T) {
	clock := stream.NewManualClock(0)
	tab, err := NewTable("t", tempSchema, stream.MustWindow("3"), clock)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := tab.Insert(intElem(t, stream.Timestamp(i), i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	snap := tab.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("live = %d, want 3", len(snap))
	}
	if snap[0].Value(0) != int64(3) || snap[2].Value(0) != int64(5) {
		t.Errorf("window contents = %v", snap)
	}
	st := tab.Stats()
	if st.Inserted != 5 || st.Evicted != 2 || st.Live != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTimeWindowEviction(t *testing.T) {
	clock := stream.NewManualClock(0)
	tab, err := NewTable("t", tempSchema, stream.MustWindow("10s"), clock)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	for i := 0; i < 5; i++ {
		clock.Advance(3 * time.Second) // t = 3s, 6s, 9s, 12s, 15s
		e := intElem(t, clock.Now(), int64(i))
		if err := tab.Insert(e); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// now = 15s; 10s window keeps ts > 5s → elements at 6,9,12,15.
	if n := tab.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	// Advance without inserting: expiry must apply on read.
	clock.Advance(6 * time.Second) // now = 21s, keeps ts > 11s → 12s, 15s
	if n := tab.Len(); n != 2 {
		t.Fatalf("Len after advance = %d, want 2", n)
	}
	clock.Advance(time.Hour)
	if n := tab.Len(); n != 0 {
		t.Fatalf("Len after hour = %d, want 0", n)
	}
}

func TestInsertSchemaMismatch(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("5"), nil)
	other := stream.MustSchema(stream.Field{Name: "x", Type: stream.TypeFloat})
	e, _ := stream.NewElement(other, 1, 1.0)
	if err := tab.Insert(e); err == nil {
		t.Fatal("Insert accepted mismatched schema")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", nil, stream.MustWindow("5"), nil); err == nil {
		t.Error("accepted nil schema")
	}
	if _, err := NewTable("t", tempSchema, stream.Window{Kind: stream.CountWindow}, nil); err == nil {
		t.Error("accepted zero count window")
	}
	if _, err := NewTable("t", tempSchema, stream.Window{Kind: stream.TimeWindow}, nil); err == nil {
		t.Error("accepted zero time window")
	}
}

func TestLastAndSinceAndLatest(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("100"), stream.NewManualClock(0))
	for i := int64(1); i <= 10; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i*100), i))
	}
	last := tab.Last(3)
	if len(last) != 3 || last[0].Value(0) != int64(8) {
		t.Errorf("Last(3) = %v", last)
	}
	if got := tab.Last(0); got != nil {
		t.Errorf("Last(0) = %v", got)
	}
	if got := tab.Last(99); len(got) != 10 {
		t.Errorf("Last(99) returned %d", len(got))
	}
	since := tab.Since(700)
	if len(since) != 3 {
		t.Errorf("Since(700) = %v", since)
	}
	latest, ok := tab.Latest()
	if !ok || latest.Value(0) != int64(10) {
		t.Errorf("Latest = %v, %v", latest, ok)
	}
	tab.Truncate()
	if _, ok := tab.Latest(); ok {
		t.Error("Latest after Truncate should report empty")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("100"), stream.NewManualClock(0))
	for i := int64(0); i < 10; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	var seen int
	tab.ForEach(func(e stream.Element) bool {
		seen++
		return seen < 4
	})
	if seen != 4 {
		t.Errorf("ForEach visited %d, want 4", seen)
	}
}

func TestRingCompaction(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("10"), stream.NewManualClock(0))
	// Many times the window size to force repeated compaction.
	for i := int64(0); i < 10_000; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	if n := tab.Len(); n != 10 {
		t.Fatalf("Len = %d", n)
	}
	snap := tab.Snapshot()
	if snap[0].Value(0) != int64(9990) || snap[9].Value(0) != int64(9999) {
		t.Errorf("window after churn = %v ... %v", snap[0], snap[9])
	}
	// Backing slice must not grow unboundedly: allow generous slack.
	tab.mu.RLock()
	backing := len(tab.elems)
	tab.mu.RUnlock()
	if backing > 1000 {
		t.Errorf("backing slice holds %d slots for a 10-element window", backing)
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("50"), stream.NewManualClock(0))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tab.Insert(intElem(t, stream.Timestamp(i+1), int64(w*1000+i)))
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tab.Snapshot()
				tab.Len()
				tab.Stats()
			}
		}()
	}
	wg.Wait()
	st := tab.Stats()
	if st.Inserted != 2000 {
		t.Errorf("inserted = %d", st.Inserted)
	}
	if st.Live != 50 {
		t.Errorf("live = %d", st.Live)
	}
}

// Property: for any insert sequence, a count-window table never holds
// more than its bound and always holds the most recent elements.
func TestQuickCountWindowInvariant(t *testing.T) {
	f := func(values []int64, bound uint8) bool {
		n := int(bound%20) + 1
		tab, err := NewTable("t", tempSchema, stream.Window{Kind: stream.CountWindow, Count: n}, stream.NewManualClock(0))
		if err != nil {
			return false
		}
		for i, v := range values {
			e, err := stream.NewElement(tempSchema, stream.Timestamp(i+1), v)
			if err != nil {
				return false
			}
			if tab.Insert(e) != nil {
				return false
			}
		}
		snap := tab.Snapshot()
		want := len(values)
		if want > n {
			want = n
		}
		if len(snap) != want {
			return false
		}
		for i, e := range snap {
			if e.Value(0) != values[len(values)-want+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: time windows retain exactly the elements newer than
// now - size.
func TestQuickTimeWindowInvariant(t *testing.T) {
	f := func(gaps []uint16, sizeSec uint8) bool {
		size := time.Duration(int(sizeSec%60)+1) * time.Second
		clock := stream.NewManualClock(0)
		tab, err := NewTable("t", tempSchema, stream.Window{Kind: stream.TimeWindow, Size: size}, clock)
		if err != nil {
			return false
		}
		var stamps []stream.Timestamp
		for i, g := range gaps {
			clock.Advance(time.Duration(g%5000) * time.Millisecond)
			ts := clock.Now()
			stamps = append(stamps, ts)
			e, _ := stream.NewElement(tempSchema, ts, int64(i))
			if tab.Insert(e) != nil {
				return false
			}
		}
		now := clock.Now()
		wantLive := 0
		for _, ts := range stamps {
			if ts > now.Add(-size) {
				wantLive++
			}
		}
		return tab.Len() == wantLive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableStatsBytes(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("2"), stream.NewManualClock(0))
	e := intElem(t, 1, 42)
	tab.Insert(e)
	tab.Insert(e)
	st := tab.Stats()
	if st.Bytes != 2*e.Size() {
		t.Errorf("bytes = %d, want %d", st.Bytes, 2*e.Size())
	}
	tab.Insert(e) // evicts one
	if st := tab.Stats(); st.Bytes != 2*e.Size() {
		t.Errorf("bytes after eviction = %d", st.Bytes)
	}
}

func BenchmarkInsertCountWindow(b *testing.B) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("1000"), stream.NewManualClock(0))
	e, _ := stream.NewElement(tempSchema, 1, int64(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Insert(e.WithTimestamp(stream.Timestamp(i + 1)))
	}
}

func BenchmarkSnapshot1000(b *testing.B) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("1000"), stream.NewManualClock(0))
	for i := 0; i < 1000; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i+1), int64(i))
		tab.Insert(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tab.Snapshot()) != 1000 {
			b.Fatal("bad snapshot")
		}
	}
}

func ExampleTable_Snapshot() {
	tab, _ := NewTable("demo", tempSchema, stream.MustWindow("2"), stream.NewManualClock(0))
	for i := int64(1); i <= 3; i++ {
		e, _ := stream.NewElement(tempSchema, stream.Timestamp(i), i*10)
		tab.Insert(e)
	}
	for _, e := range tab.Snapshot() {
		fmt.Println(e.Value(0))
	}
	// Output:
	// 20
	// 30
}

// TestConcurrentInsertAndForEach exercises the fixed ForEach lock
// hand-off under the race detector: eviction and iteration now happen
// in one critical section, so every scan must observe a consistent
// window — never more elements than the count bound, always in
// non-decreasing timestamp order.
func TestConcurrentInsertAndForEach(t *testing.T) {
	const bound = 50
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("50"), stream.NewManualClock(0))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tab.Insert(intElem(t, stream.Timestamp(w*1000+i+1), int64(i)))
			}
		}(w)
	}
	errs := make(chan string, 8)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				seen := 0
				valid := true
				tab.ForEach(func(e stream.Element) bool {
					// A zero element would mean the scan crossed into dead
					// space a concurrent eviction cleared mid-iteration.
					if e.Schema() == nil {
						valid = false
					}
					seen++
					return true
				})
				if !valid {
					errs <- "scan observed a zero element"
					return
				}
				if seen > bound {
					errs <- fmt.Sprintf("scan saw %d elements, window bound is %d", seen, bound)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// tableObserverLog records lifecycle events for observer tests.
type tableObserverLog struct {
	inserts   int
	evicts    int
	truncates int
	liveDelta int
}

func (l *tableObserverLog) OnInsert(e stream.Element) { l.inserts++; l.liveDelta++ }
func (l *tableObserverLog) OnEvict(e stream.Element)  { l.evicts++; l.liveDelta-- }
func (l *tableObserverLog) OnTruncate()               { l.truncates++; l.liveDelta = 0 }

// TestObserverMirrorsWindow: insert/evict events keep an observer's
// element count equal to the table's live count, SetObserver replays
// pre-existing contents, and Truncate resets.
func TestObserverMirrorsWindow(t *testing.T) {
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("5"), stream.NewManualClock(0))
	for i := int64(0); i < 3; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	log := &tableObserverLog{}
	tab.SetObserver(log)
	if log.inserts != 3 || log.liveDelta != 3 {
		t.Fatalf("SetObserver should replay current contents: %+v", log)
	}
	for i := int64(3); i < 12; i++ {
		tab.Insert(intElem(t, stream.Timestamp(i+1), i))
	}
	if log.liveDelta != tab.Len() {
		t.Errorf("observer live = %d, table live = %d", log.liveDelta, tab.Len())
	}
	if log.evicts != 7 {
		t.Errorf("evicts = %d, want 7", log.evicts)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	if log.truncates != 2 || log.liveDelta != 0 { // 1 from SetObserver reset + 1 real
		t.Errorf("after truncate: %+v", log)
	}
}

// TestTimeWindowBoundaryEviction pins the half-open window semantics at
// the storage layer: an element whose timestamp is exactly now-Size is
// outside the window (Window.Covers is strict) and must be evicted.
func TestTimeWindowBoundaryEviction(t *testing.T) {
	clock := stream.NewManualClock(0)
	tab, _ := NewTable("t", tempSchema, stream.MustWindow("10s"), clock)
	tab.Insert(intElem(t, 1_000, 1)) // @1s
	tab.Insert(intElem(t, 5_000, 2)) // @5s

	clock.Set(11_000) // element@1s is now exactly 10s old → out (strict bound)
	if got := tab.Len(); got != 1 {
		t.Errorf("live at exact boundary = %d, want 1 (boundary element excluded)", got)
	}
	clock.Set(14_999) // element@5s is 9.999s old → still in
	if got := tab.Len(); got != 1 {
		t.Errorf("live just inside boundary = %d, want 1", got)
	}
	clock.Set(15_000) // exactly 10s old → out
	if got := tab.Len(); got != 0 {
		t.Errorf("live at second boundary = %d, want 0", got)
	}
}

// TestIngestAllocs: once the window has grown to its steady size,
// Insert and InsertBatch allocate nothing, on a memory-only table and on
// a permanent sync="interval" table, whose WAL appends reuse the log's
// buffer. BenchmarkIngest times the same cells.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const window = 1000
	memory, err := NewTable("memory", prodSchema, stream.Window{Kind: stream.CountWindow, Count: window}, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := newProdStore(t)
	defer store.Close()
	interval, err := store.CreateTable("interval", prodSchema, prodOptions(SyncInterval, window))
	if err != nil {
		t.Fatal(err)
	}
	e := prodElem(1, 0, 0)
	batch := make([]stream.Element, 64)
	for i := range batch {
		batch[i] = e
	}
	for _, tab := range []*Table{memory, interval} {
		for i := 0; i < 2*window; i++ { // grow the window slice to its steady size
			if err := tab.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(1000, func() {
			if err := tab.Insert(e); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Insert allocates %.1f times per call", tab.Name(), n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if err := tab.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: InsertBatch of %d allocates %.1f times per call", tab.Name(), len(batch), n)
		}
	}
}
