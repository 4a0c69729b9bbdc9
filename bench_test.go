// Benchmarks of the costs behind the paper's evaluation: processing
// time per element (Figure 3) and per client query (Figure 4), the
// ablations of the design choices that shape them, and the write path.
// perfbench/ measures the same workloads end to end. The benchmarks
// that carry a within-run ratio bound check it themselves, with the
// bound a constant beside its check; `make bench-check` runs them.
package gsn_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"gsn"
	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// runTime is one sub-benchmark's measurement. The testing package runs
// a sub-benchmark's function with growing b.N and keeps the last run,
// so recording at the end of the function keeps the reported figure.
type runTime struct {
	n       int
	nsPerOp float64
}

func (r *runTime) record(b *testing.B) {
	r.n = b.N
	r.nsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
}

// gateMinIters is the fewest iterations each side of a ratio needs
// before the ratio is held to its bound. A one-iteration run, such as
// benchsmoke's -benchtime 1x, exercises the code without measuring it.
const gateMinIters = 3

// checkSpeedup logs base's time per op over fast's and fails b when the
// ratio is below bound. A side that did not run (filtered out by -bench) or ran
// fewer than gateMinIters iterations leaves the ratio unchecked.
func checkSpeedup(b *testing.B, what string, fast, base runTime, bound float64) {
	b.Helper()
	if fast.n < gateMinIters || base.n < gateMinIters {
		return
	}
	ratio := base.nsPerOp / fast.nsPerOp
	b.Logf("%s: %.2fx (bound %.1fx)", what, ratio, bound)
	if ratio < bound {
		b.Fail()
	}
}

// figure3Node builds the Figure 3 processing pipeline for one device at
// a given element size: time-window source, aggregate source query,
// windowed output.
func figure3Node(b *testing.B, ses string) *gsn.Node {
	b.Helper()
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench3", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	desc := fmt.Sprintf(`
<virtual-sensor name="net">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="image" type="binary"/>
  </output-structure>
  <storage size="20"/>
  <input-stream name="in">
    <stream-source alias="cam" storage-size="100">
      <address wrapper="camera">
        <predicate key="payload" val=%q/>
        <predicate key="seed" val="5"/>
      </address>
      <query>select count(*) as n, last(image) as image from WRAPPER</query>
    </stream-source>
    <query>select * from cam</query>
  </input-stream>
</virtual-sensor>`, ses)
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	// Fill the window to steady state before measuring.
	for i := 0; i < 100; i++ {
		node.Pulse()
	}
	return node
}

// BenchmarkFigure3 measures the per-element node-internal processing
// cost (arrival → stored + notified) for each stream element size on
// the paper's x-axis.
func BenchmarkFigure3(b *testing.B) {
	for _, ses := range []string{"15B", "50B", "100B", "16KB", "32KB", "75KB"} {
		b.Run("SES="+ses, func(b *testing.B) {
			node := figure3Node(b, ses)
			size, _ := parseSES(ses)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
		})
	}
}

func parseSES(s string) (int, error) {
	switch s {
	case "15B":
		return 15, nil
	case "50B":
		return 50, nil
	case "100B":
		return 100, nil
	case "16KB":
		return 16 << 10, nil
	case "32KB":
		return 32 << 10, nil
	case "75KB":
		return 75 << 10, nil
	}
	return 0, fmt.Errorf("unknown SES %s", s)
}

// BenchmarkFigure4 measures the total client-query evaluation cost per
// element arrival for increasing client counts (SES=32KB), the paper's
// Figure 4 series.
func BenchmarkFigure4(b *testing.B) {
	for _, clients := range []int{0, 100, 250, 500} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench4", SyncProcessing: true})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			desc := `
<virtual-sensor name="frames">
  <output-structure>
    <field name="frame" type="integer"/>
    <field name="sz" type="integer"/>
  </output-structure>
  <storage size="20"/>
  <input-stream name="in">
    <stream-source alias="cam" storage-size="1">
      <address wrapper="camera">
        <predicate key="payload" val="32KB"/>
        <predicate key="seed" val="7"/>
      </address>
      <query>select frame, length(image) as sz from WRAPPER</query>
    </stream-source>
    <query>select * from cam</query>
  </input-stream>
</virtual-sensor>`
			if err := node.DeployXML([]byte(desc)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < clients; i++ {
				sql := fmt.Sprintf(
					"select count(*), avg(sz) from frames where timed >= now() - %d and frame %% %d = %d and sz > %d",
					(time.Duration(i%1800)*time.Second + time.Second).Milliseconds(),
					2+i%5, i%(2+i%5), 1024*(1+i%32))
				if _, err := node.RegisterQuery("frames", sql, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				node.Pulse()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
		})
	}
}

// BenchmarkWrapperProduce isolates device simulation cost per platform,
// backing the §5 wrapper-effort discussion with a throughput number.
func BenchmarkWrapperProduce(b *testing.B) {
	for _, kind := range []string{"mote", "rfid", "timer"} {
		b.Run(kind, func(b *testing.B) {
			node, err := gsn.NewNode(gsn.NodeOptions{Name: "benchw", SyncProcessing: true})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			var query string
			switch kind {
			case "mote":
				query = "select temperature from WRAPPER"
			case "rfid":
				query = "select tag_id from WRAPPER"
			case "timer":
				query = "select tick from WRAPPER"
			}
			desc := fmt.Sprintf(`
<virtual-sensor name="w">
  <output-structure><field name="v" type="varchar"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper=%q><predicate key="seed" val="3"/><predicate key="presence" val="1"/></address>
      <query>%s</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, kind, query)
			if err := node.DeployXML([]byte(desc)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
		})
	}
}

// Ablation benchmarks: each design choice against the simpler
// alternative it replaced.

// syntheticRelations builds two joinable relations of the given sizes:
// right holds keys 0..nRight-1 once each, left draws its keys from that
// range, so every left row joins exactly one right row.
func syntheticRelations(nLeft, nRight int, seed int64) (left, right *sqlengine.Relation) {
	rng := rand.New(rand.NewSource(seed))
	left = sqlengine.NewRelation("k", "x")
	for i := 0; i < nLeft; i++ {
		left.AddRow(int64(rng.Intn(nRight)), int64(i))
	}
	right = sqlengine.NewRelation("k", "y")
	for i := 0; i < nRight; i++ {
		right.AddRow(int64(i), int64(rng.Intn(1000)))
	}
	return left, right
}

func BenchmarkAblationJoinHash(b *testing.B) {
	left, right := syntheticRelations(500, 500, 1)
	cat := sqlengine.MapCatalog{"L": left, "R": right}
	stmt, err := sqlparser.Parse("select count(*) from l join r on l.k = r.k")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJoinNestedLoop(b *testing.B) {
	left, right := syntheticRelations(500, 500, 1)
	cat := sqlengine.MapCatalog{"L": left, "R": right}
	stmt, err := sqlparser.Parse("select count(*) from l join r on l.k = r.k")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{DisableHashJoin: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPlanCacheOn(b *testing.B) {
	rel := sqlengine.NewRelation("v", "timed")
	for i := 0; i < 50; i++ {
		rel.AddRow(int64(i), int64(i*100))
	}
	cat := sqlengine.MapCatalog{"T": rel}
	sql := "select count(*), avg(v) from t where timed >= 100 and v % 3 = 1 and v > 5"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.ExecuteSQL(sql, cat, sqlengine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPlanCacheOff(b *testing.B) {
	rel := sqlengine.NewRelation("v", "timed")
	for i := 0; i < 50; i++ {
		rel.AddRow(int64(i), int64(i*100))
	}
	cat := sqlengine.MapCatalog{"T": rel}
	sql := "select count(*), avg(v) from t where timed >= 100 and v % 3 = 1 and v > 5"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlengine.ParseNoCache(sql)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPoolSize(b *testing.B) {
	// Paper's pool-size knob: async trigger processing with 1 vs 8
	// workers under a window-scan load.
	for _, pool := range []int{1, 8} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			node, err := gsn.NewNode(gsn.NodeOptions{Name: "benchp"})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			desc := fmt.Sprintf(`
<virtual-sensor name="pooled">
  <life-cycle pool-size="%d"/>
  <output-structure><field name="n" type="integer"/></output-structure>
  <storage size="10"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="200">
      <address wrapper="random-walk"><predicate key="seed" val="2"/></address>
      <query>select count(*) as n from WRAPPER where value > 10</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, pool)
			if err := node.DeployXML([]byte(desc)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				node.Pulse()
			}
			waitForOutputs(b, node, 1)
			before, _ := node.SensorStats("pooled")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
			// Wait until the pool drains so the timer covers real work.
			waitForOutputs(b, node, before.Triggers+uint64(b.N))
		})
	}
}

func waitForOutputs(b *testing.B, node *gsn.Node, want uint64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := node.SensorStats("pooled")
		if err != nil {
			b.Fatal(err)
		}
		// Every trigger is either evaluated (one output for this
		// query), shed by the full queue, or coalesced into a pending
		// evaluation.
		if st.Outputs+st.Dropped+st.Coalesced >= want {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("pool never drained: %+v (want %d)", st, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkIngest measures the write path across the batching ×
// durability matrix: per-element Insert vs 64-element InsertBatch, on a
// memory-only table and on permanent tables under each WAL sync policy.
// The seed path is per-element + SyncAlways (one write syscall per
// element); the headline comparison is batched + SyncInterval, the
// group-commit configuration, which must beat the seed path. The zero
// allocations per element are TestIngestAllocs in internal/storage.
func BenchmarkIngest(b *testing.B) {
	// groupCommitSpeedupBound is the least unbatched/sync=always over
	// batched/sync=interval time per element.
	const groupCommitSpeedupBound = 1
	schema := stream.MustSchema(
		stream.Field{Name: "node_id", Type: stream.TypeInt},
		stream.Field{Name: "temperature", Type: stream.TypeFloat},
	)
	const batchSize = 64
	makeElems := func(b *testing.B, n int) []stream.Element {
		elems := make([]stream.Element, n)
		for i := range elems {
			e, err := stream.NewElement(schema, stream.Timestamp(i+1), int64(i%32), float64(i%97)+0.5)
			if err != nil {
				b.Fatal(err)
			}
			elems[i] = e
		}
		return elems
	}
	newTable := func(b *testing.B, sync string) *storage.Table {
		b.Helper()
		opts := storage.TableOptions{
			Window: stream.Window{Kind: stream.CountWindow, Count: 1000},
		}
		if sync != "memory" {
			policy, ok := storage.ParseSyncPolicy(sync)
			if !ok {
				b.Fatalf("bad policy %q", sync)
			}
			opts.Permanent = true
			opts.Sync = policy
		}
		store, err := storage.NewStore(stream.NewManualClock(0), b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		table, err := store.CreateTable("ingest", schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		return table
	}

	var seedPath, groupCommit runTime // unbatched/sync=always, batched/sync=interval
	for _, sync := range []string{"memory", "always", "interval", "none"} {
		var unbatched, batched runTime
		b.Run("unbatched/sync="+sync, func(b *testing.B) {
			table := newTable(b, sync)
			elems := makeElems(b, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := table.Insert(elems[0].WithTimestamp(stream.Timestamp(i + 1))); err != nil {
					b.Fatal(err)
				}
			}
			unbatched.record(b)
		})
		b.Run("batched/sync="+sync, func(b *testing.B) {
			table := newTable(b, sync)
			elems := makeElems(b, batchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batchSize {
				n := batchSize
				if done+n > b.N {
					n = b.N - done
				}
				if err := table.InsertBatch(elems[:n]); err != nil {
					b.Fatal(err)
				}
			}
			batched.record(b)
		})
		switch sync {
		case "always":
			seedPath = unbatched
		case "interval":
			groupCommit = batched
		}
	}
	checkSpeedup(b, "batched/sync=interval over unbatched/sync=always",
		groupCommit, seedPath, groupCommitSpeedupBound)
}

// BenchmarkDurableProducers measures sync="durable" ingestion, where
// every Insert returns only once its element is fdatasynced, from 1
// producer and from 8 concurrent producers, each on its own permanent
// table. Concurrent commits combine into one synced WAL group, so 8
// producers must reach durableSpeedupBound times the 1-producer
// throughput, which pays one fdatasync per element, with at most
// durableCommitsBound WAL commits per element.
//
// Each op is one round: the lone producer writes roundElems elements,
// then the 8 producers write roundElems each. Alternating the two in
// short rounds keeps the ratio steady while the disk's sync latency
// drifts. The bounds assume the producers can interleave (GOMAXPROCS
// >= 8); at fewer procs, as under -cpu 1, the figures are reported but
// not checked.
func BenchmarkDurableProducers(b *testing.B) {
	const (
		durableSpeedupBound float64 = 2.5
		durableCommitsBound float64 = 0.4
		producers                   = 8
		roundElems                  = 100
	)
	schema := stream.MustSchema(
		stream.Field{Name: "node_id", Type: stream.TypeInt},
		stream.Field{Name: "temperature", Type: stream.TypeFloat},
	)
	store, err := storage.NewStore(stream.NewManualClock(0), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	newTable := func(name string) *storage.Table {
		table, err := store.CreateTable(name, schema, storage.TableOptions{
			Window:    stream.Window{Kind: stream.CountWindow, Count: 1000},
			Permanent: true,
			Sync:      storage.SyncDurable,
		})
		if err != nil {
			b.Fatal(err)
		}
		return table
	}
	soloTable, sharedTable := newTable("solo"), newTable("shared")
	// write runs producer p's share of a round; disjoint timestamp ranges
	// keep each producer's sequence apart in the merged window.
	write := func(table *storage.Table, p, round int) error {
		e := stream.MustElement(schema, 0, int64(p), 0.5)
		base := p*10_000_000 + round*roundElems
		for i := 1; i <= roundElems; i++ {
			if err := table.Insert(e.WithTimestamp(stream.Timestamp(base + i))); err != nil {
				return err
			}
		}
		return nil
	}
	var solo, shared time.Duration
	errs := make(chan error, producers)
	b.ResetTimer()
	for round := 0; round < b.N; round++ {
		start := time.Now()
		if err := write(soloTable, 0, round); err != nil {
			b.Fatal(err)
		}
		solo += time.Since(start)

		start = time.Now()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				if err := write(sharedTable, p, round); err != nil {
					errs <- err
				}
			}(p)
		}
		wg.Wait()
		shared += time.Since(start)
		select {
		case err := <-errs:
			b.Fatal(err)
		default:
		}
	}
	b.StopTimer()

	elems := float64(b.N * roundElems)
	soloRate := elems / solo.Seconds()
	sharedRate := producers * elems / shared.Seconds()
	commits := float64(sharedTable.Stats().LogFlushes) / (producers * elems)
	b.ReportMetric(soloRate, "1p-elems/s")
	b.ReportMetric(sharedRate, "8p-elems/s")
	b.ReportMetric(sharedRate/soloRate, "8p-speedup")
	b.ReportMetric(commits, "8p-commits/elem")
	if b.N < gateMinIters || runtime.GOMAXPROCS(0) < producers {
		return
	}
	if sharedRate < durableSpeedupBound*soloRate {
		b.Errorf("8 durable producers: %.2fx the 1-producer throughput, below the %.1fx bound",
			sharedRate/soloRate, durableSpeedupBound)
	}
	if commits > durableCommitsBound {
		b.Errorf("8 durable producers: %.3f WAL commits per element, above the %.1f bound",
			commits, durableCommitsBound)
	}
}

// BenchmarkHistoryReopen measures the restart of a disk-history table
// after a crash. The table keeps a 1,000-row hot window over `retention`
// rows on disk, was checkpointed, and then took a 2,000-row WAL tail.
// ns/op is the reopen, which replays only that tail, so it should stay
// flat as the retention grows. scan-us is a cold TimedRange over 2,000
// long-evicted rows, served through the history's time index.
func BenchmarkHistoryReopen(b *testing.B) {
	const (
		hotWindow = 1_000
		tail      = 2_000
		scanRows  = 2_000
		batchSize = 256
	)
	schema := stream.MustSchema(
		stream.Field{Name: "node_id", Type: stream.TypeInt},
		stream.Field{Name: "temperature", Type: stream.TypeFloat},
	)
	opts := storage.TableOptions{
		Window:    stream.Window{Kind: stream.CountWindow, Count: hotWindow},
		Permanent: true,
		Sync:      storage.SyncNone,
		History:   true,
	}
	open := func(b *testing.B, dir string) (*storage.Store, *storage.Table) {
		store, err := storage.NewStore(stream.NewManualClock(0), dir)
		if err != nil {
			b.Fatal(err)
		}
		table, err := store.CreateTable("hist", schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		return store, table
	}
	for _, retention := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("retention=%d", retention), func(b *testing.B) {
			crashed := b.TempDir()
			_, table := open(b, crashed)
			batch := make([]stream.Element, 0, batchSize)
			ingest := func(from, to int) {
				for i := from; i < to; {
					batch = batch[:0]
					for ; i < to && len(batch) < batchSize; i++ {
						batch = append(batch, stream.MustElement(schema, stream.Timestamp(i+1),
							int64(i%32), float64(i%97)+0.5))
					}
					if err := table.InsertBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			ingest(0, retention)
			if err := table.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			ingest(retention, retention+tail)
			if err := table.Flush(); err != nil {
				b.Fatal(err)
			}
			// The store is abandoned, not closed: Close would checkpoint
			// and leave no tail. SyncNone runs no background flusher, so
			// the files hold what a crash would leave.

			dir := filepath.Join(b.TempDir(), "reopen")
			lo := stream.Timestamp(retention/4 + 1)
			var replayed int
			var scan time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copyDir(b, crashed, dir)
				b.StartTimer()
				store, reopened := open(b, dir)
				b.StopTimer()
				replayed = reopened.Stats().Replayed
				start := time.Now()
				rows, err := reopened.TimedRange(lo, lo+scanRows-1)
				scan += time.Since(start)
				if err != nil || len(rows) != scanRows {
					b.Fatalf("cold scan: %d rows, err %v; want %d", len(rows), err, scanRows)
				}
				if err := store.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(replayed), "replayed-rows")
			b.ReportMetric(float64(scan.Microseconds())/float64(b.N), "scan-us")
		})
	}
}

// copyDir replaces dst with a copy of the regular files in src.
func copyDir(b *testing.B, src, dst string) {
	b.Helper()
	if err := os.RemoveAll(dst); err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// compiledSpeedupBound is the least serial-interpreted over
// compiled-shared time per sweep at 1,000 registered queries, plain and
// grouped.
const compiledSpeedupBound = 5

// BenchmarkClientQueries is the acceptance benchmark of the query
// repository rebuild: 1,000 registered client queries (mixed
// unique/duplicate SQL, the Figure 4 load shape) evaluated per trigger
// against a count-1000 output window. The compiled/shared/parallel
// sweep must beat the seed's serial interpreted strategy by
// compiledSpeedupBound.
func BenchmarkClientQueries(b *testing.B) {
	const window = 1000
	const clients = 1000
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench-cq", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	desc := fmt.Sprintf(`
<virtual-sensor name="q">
  <output-structure>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="timer"/>
      <query>select tick %% 101 as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, window)
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		node.Pulse()
	}
	duplicates := []string{
		"select count(*), avg(value) from q",
		"select count(*) as n, min(value) as lo, max(value) as hi from q",
		"select count(*), avg(value) from q where value > 40",
		"select value from q where value > 95",
		"select count(*) from q where value between 20 and 60",
	}
	texts := make([]string, clients)
	for i := range texts {
		texts[i] = duplicates[i%len(duplicates)]
		if i%2 == 1 {
			// Unique half: the upper bound exceeds the value domain, so
			// it only makes the SQL text (the evaluation group) unique.
			texts[i] = fmt.Sprintf("select count(*), avg(value) from q where value > %d and value <= %d",
				i%97, 101+i)
		}
	}
	// B/query is the heap the repository retains per registration (the
	// caller's SQL text excluded).
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, sql := range texts {
		if _, err := node.RegisterQuery("q", sql, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerQuery := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / clients
	c := node.Container()
	repo := c.QueryRepositoryRef()
	cat := c.Catalog()
	opts := sqlengine.Options{Clock: c.Clock()}

	var serial, compiled runTime
	b.Run("serial-interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateForSerial("q", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
		serial.record(b)
	})
	b.Run("compiled-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateFor("q", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
		compiled.record(b)
		b.ReportMetric(bytesPerQuery, "B/query")
	})
	checkSpeedup(b, "compiled-shared over serial-interpreted", compiled, serial, compiledSpeedupBound)
	runtime.KeepAlive(texts)
}

// BenchmarkClientQueriesGrouped extends the acceptance benchmark to
// grouped rollups: 1,000 registered GROUP BY
// client queries (mixed unique/duplicate, ~100 live groups) against a
// count-1000 window with a round-robin room key. The compiled grouped
// bound-program tier plus the grouped AggMaintainer must beat the
// serial interpreted strategy by compiledSpeedupBound.
func BenchmarkClientQueriesGrouped(b *testing.B) {
	const window = 1000
	const clients = 1000
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench-cqg", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	desc := fmt.Sprintf(`
<virtual-sensor name="g">
  <output-structure>
    <field name="room" type="integer"/>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="timer"/>
      <query>select tick %% 100 as room, tick %% 101 as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, window)
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		node.Pulse()
	}
	duplicates := []string{
		"select room, count(*) as n, avg(value) as a from g group by room",
		"select room, min(value) as lo, max(value) as hi from g group by room",
		"select room, count(*) as n from g group by room having count(*) > 2",
		"select room, avg(value) as a from g where value > 50 group by room",
		"select room % 10 as shard, count(*) as n from g group by room % 10",
	}
	for i := 0; i < clients; i++ {
		sql := duplicates[i%len(duplicates)]
		if i%2 == 1 {
			// Unique half: the upper bound exceeds the value domain, so
			// it only makes the SQL text (the evaluation group) unique.
			sql = fmt.Sprintf("select room, count(*) as n from g where value > %d and value <= %d group by room",
				i%97, 101+i)
		}
		if _, err := node.RegisterQuery("g", sql, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	c := node.Container()
	repo := c.QueryRepositoryRef()
	cat := c.Catalog()
	opts := sqlengine.Options{Clock: c.Clock()}

	var serial, compiled runTime
	b.Run("serial-interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateForSerial("g", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
		serial.record(b)
	})
	b.Run("compiled-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateFor("g", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
		compiled.record(b)
	})
	checkSpeedup(b, "compiled-shared over serial-interpreted", compiled, serial, compiledSpeedupBound)
}

// triggerPipelineTable builds a 1000-element count window for the
// trigger pipeline benchmark.
func triggerPipelineTable(b *testing.B) *storage.Table {
	b.Helper()
	schema := stream.MustSchema(stream.Field{Name: "temperature", Type: stream.TypeFloat})
	table, err := storage.NewTable("wrapper", schema,
		stream.Window{Kind: stream.CountWindow, Count: 1000}, stream.NewManualClock(0))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e, err := stream.NewElement(schema, stream.Timestamp(i+1), float64(i%37)+0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := table.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	return table
}

const triggerPipelineQuery = "select count(*) as n, avg(temperature) as a, " +
	"min(temperature) as mn, max(temperature) as mx from wrapper"

// BenchmarkTriggerPipeline compares the three per-trigger source
// evaluation tiers on the Figure-3-style aggregate workload over a
// 1000-element count window:
//
//	snapshot-replan:    the seed path — copy the window (Snapshot),
//	                    materialise a relation, plan and execute the
//	                    statement from scratch every trigger.
//	zerocopy-compiled:  scan the table in place (ForEach) and run the
//	                    deploy-time compiled plan.
//	incremental:        read the maintained aggregates; O(1) in the
//	                    window size.
//
// Both deploy-time tiers must beat the seed path.
func BenchmarkTriggerPipeline(b *testing.B) {
	// tierSpeedupBound is the least snapshot-replan over compiled or
	// incremental time per trigger.
	const tierSpeedupBound = 1
	stmt, err := sqlparser.Parse(triggerPipelineQuery)
	if err != nil {
		b.Fatal(err)
	}

	var replan, compiled, incremental runTime
	b.Run("snapshot-replan", func(b *testing.B) {
		table := triggerPipelineTable(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel := sqlengine.RelationOfElements(table.Schema(), table.Snapshot())
			cat := sqlengine.MapCatalog{"WRAPPER": rel}
			if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		replan.record(b)
	})

	b.Run("zerocopy-compiled", func(b *testing.B) {
		table := triggerPipelineTable(b)
		plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(table.Schema()), "wrapper")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.ExecuteSource(table, sqlengine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		compiled.record(b)
	})

	b.Run("incremental", func(b *testing.B) {
		table := triggerPipelineTable(b)
		plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(table.Schema()), "wrapper")
		if err != nil {
			b.Fatal(err)
		}
		prog := plan.Incremental()
		if prog == nil {
			b.Fatal("benchmark query should be incrementally maintainable")
		}
		m := sqlengine.NewAggMaintainer(prog)
		table.SetObserver(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rel *sqlengine.Relation
			table.WithLock(func() { rel = m.Result() })
			if rel == nil || len(rel.Rows) != 1 {
				b.Fatal("maintainer produced no result")
			}
		}
		incremental.record(b)
	})
	checkSpeedup(b, "zerocopy-compiled over snapshot-replan", compiled, replan, tierSpeedupBound)
	checkSpeedup(b, "incremental over snapshot-replan", incremental, replan, tierSpeedupBound)
}

// BenchmarkTriggerPipelineEndToEnd measures the full arrival→output
// path through a container for the same workload, with the pipeline
// tiers picked automatically by the deploy-time compiler.
func BenchmarkTriggerPipelineEndToEnd(b *testing.B) {
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench-tp", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	desc := `
<virtual-sensor name="agg">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="a" type="double"/>
  </output-structure>
  <storage size="1"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1000">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/>
        <predicate key="seed" val="9"/>
      </address>
      <query>select count(*) as n, avg(temperature) as a from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		node.Pulse()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Pulse()
	}
}
