package bench

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/core"
	"gsn/internal/p2p"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// ClusterConfig parameterises the federation experiment: N worker
// nodes each ingesting a partition of a grouped stream, one
// coordinator answering distributed GROUP BY over all of them. Each
// (nodes, volume) cell measures aggregate ingest throughput, grouped
// query latency through partial-aggregate shipping, and — the claim
// this experiment exists for — the bytes the coordinator moves per
// query under partial shipping versus the raw-row union fallback.
// Partial bytes are proportional to group cardinality, union bytes to
// window volume, so doubling the stream volume should leave the
// partial column flat while the union column doubles.
type ClusterConfig struct {
	// Nodes is the swept list of worker node counts (the coordinator is
	// always one more).
	Nodes []int
	// RowsPerNode is the base per-worker window volume; every node
	// count is measured at this volume and at double it, which is the
	// sublinearity axis.
	RowsPerNode int
	// Rooms is the GROUP BY cardinality.
	Rooms int
	// Queries is how many grouped (and union-fallback) statements are
	// timed per cell.
	Queries int
}

// DefaultCluster sizes the sweep so the 4-node cell still assembles
// and tears down in seconds (every cell builds nodes+1 real HTTP
// servers on the loopback).
func DefaultCluster() ClusterConfig {
	return ClusterConfig{Nodes: []int{1, 2, 4}, RowsPerNode: 3_000, Rooms: 8, Queries: 8}
}

// ClusterPoint is one measured (nodes, volume) cell.
type ClusterPoint struct {
	Nodes       int
	RowsPerNode int
	TotalRows   int     // raw stream volume across all workers
	IngestSec   float64 // aggregate ingest throughput, elems/sec
	QueryMS     float64 // mean grouped-query latency via partial shipping
	PartialB    uint64  // bytes/query moved by partial-aggregate shipping
	UnionB      uint64  // bytes/query moved by the raw-row union fallback
}

// ClusterResult is the full sweep.
type ClusterResult struct {
	Points []ClusterPoint
}

// Table renders the aligned sweep.
func (r *ClusterResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %10s %12s %10s %14s %14s\n",
		"nodes", "rows/node", "total", "ingest/sec", "query ms", "partial B/q", "union B/q")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6d %10d %10d %12.0f %10.2f %14d %14d\n",
			p.Nodes, p.RowsPerNode, p.TotalRows, p.IngestSec, p.QueryMS, p.PartialB, p.UnionB)
	}
	return b.String()
}

// CSV renders the sweep for external plotting.
func (r *ClusterResult) CSV() string {
	var b strings.Builder
	b.WriteString("nodes,rows_per_node,total_rows,ingest_elems_per_sec,grouped_query_ms,partial_bytes_per_query,union_bytes_per_query\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%d,%d,%d,%.0f,%.2f,%d,%d\n",
			p.Nodes, p.RowsPerNode, p.TotalRows, p.IngestSec, p.QueryMS, p.PartialB, p.UnionB)
	}
	return b.String()
}

// ShapeReport asserts the sublinearity claim: at every node count,
// partial-aggregate shipping moves a small fraction of the union
// fallback's bytes, and doubling the raw stream volume leaves the
// partial column near-flat while the union column scales with it.
func (r *ClusterResult) ShapeReport() string {
	var b strings.Builder
	ok := true
	// Points come in (base volume, double volume) pairs per node count.
	for i := 0; i+1 < len(r.Points); i += 2 {
		lo, hi := r.Points[i], r.Points[i+1]
		frac := float64(hi.PartialB) / float64(hi.UnionB)
		partialGrowth := float64(hi.PartialB) / float64(lo.PartialB)
		unionGrowth := float64(hi.UnionB) / float64(lo.UnionB)
		cheap := frac < 0.2
		sublinear := partialGrowth < 1.5 && unionGrowth > 1.5
		if !cheap || !sublinear {
			ok = false
		}
		fmt.Fprintf(&b, "nodes=%d: partial/union = %.4f (cheap: %v); 2x volume -> partial %.2fx, union %.2fx (sublinear: %v)\n",
			lo.Nodes, frac, cheap, partialGrowth, unionGrowth, sublinear)
	}
	fmt.Fprintf(&b, "shape: %s\n", map[bool]string{true: "OK", false: "DEGENERATE"}[ok])
	return b.String()
}

var clusterFeedSchema = stream.MustSchema(
	stream.Field{Name: "room", Type: stream.TypeString},
	stream.Field{Name: "v", Type: stream.TypeInt},
)

// clusterFeed is the pull-driven partition source: each Produce emits
// the next (room, v) pair, rooms cycling so every worker holds every
// group.
type clusterFeed struct {
	clock stream.Clock
	rooms int
	n     atomic.Int64
}

func (w *clusterFeed) Kind() string                  { return "clusterfeed" }
func (w *clusterFeed) Schema() *stream.Schema        { return clusterFeedSchema }
func (w *clusterFeed) Start(wrappers.EmitFunc) error { return nil }
func (w *clusterFeed) Stop() error                   { return nil }
func (w *clusterFeed) Produce() (stream.Element, error) {
	n := w.n.Add(1)
	room := fmt.Sprintf("r%02d", n%int64(w.rooms))
	return stream.MustElement(clusterFeedSchema, w.clock.Now(), room, n), nil
}

func clusterFeedRegistry(rooms int) *wrappers.Registry {
	reg := wrappers.NewRegistry()
	reg.Register("clusterfeed", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		return &clusterFeed{clock: cfg.Clock, rooms: rooms}, nil
	})
	return reg
}

func clusterDescriptor(window int) string {
	return fmt.Sprintf(`
<virtual-sensor name="metrics">
  <output-structure>
    <field name="room" type="varchar"/>
    <field name="v" type="integer"/>
  </output-structure>
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="clusterfeed"/>
      <query>select room, v from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, window)
}

// clusterBenchNode is one assembled federation member: container, p2p
// server on a loopback listener, federation injected as the
// container's cluster seam.
type clusterBenchNode struct {
	c   *core.Container
	fed *p2p.Federation
	srv *http.Server
	url string
}

func newClusterBenchNode(name string, clock stream.Clock, rooms int, httpc *http.Client) (*clusterBenchNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	url := "http://" + ln.Addr().String()
	c, err := core.New(core.Options{
		Name:           name,
		Clock:          clock,
		SyncProcessing: true,
		Registry:       clusterFeedRegistry(rooms),
		NodeAddress:    url,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &clusterBenchNode{c: c, url: url}
	n.fed = p2p.NewFederation(c, httpc)
	c.SetCluster(n.fed)
	n.srv = &http.Server{Handler: p2p.NewServer(c, "").Handler()}
	go n.srv.Serve(ln)
	return n, nil
}

func (n *clusterBenchNode) close() {
	n.srv.Close()
	n.c.Close()
}

// runClusterCell assembles a fresh (workers+coordinator) federation,
// ingests rows on every worker in parallel, then measures the two
// query transports from the coordinator.
func runClusterCell(cfg ClusterConfig, workers, rows int) (ClusterPoint, error) {
	point := ClusterPoint{Nodes: workers, RowsPerNode: rows, TotalRows: workers * rows}
	clock := stream.NewManualClock(1_000_000)
	httpc := &http.Client{Timeout: 30 * time.Second}

	nodes := make([]*clusterBenchNode, 0, workers+1)
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	for i := 0; i < workers; i++ {
		n, err := newClusterBenchNode(fmt.Sprintf("worker-%d", i), clock, cfg.Rooms, httpc)
		if err != nil {
			return point, err
		}
		nodes = append(nodes, n)
		if err := n.c.DeployXML([]byte(clusterDescriptor(rows))); err != nil {
			return point, err
		}
	}
	coord, err := newClusterBenchNode("coord", clock, cfg.Rooms, httpc)
	if err != nil {
		return point, err
	}
	nodes = append(nodes, coord)
	// The coordinator holds an empty local window of the same sensor:
	// its fold contributes nothing, but its presence routes the
	// non-distributable control statements through the union fallback
	// at every node count, so the two transports stay comparable.
	if err := coord.c.DeployXML([]byte(clusterDescriptor(rows))); err != nil {
		return point, err
	}
	for _, n := range nodes[:workers] {
		coord.fed.AddPeer(n.url)
	}
	coord.fed.GossipRound()

	// Ingest: every worker pulses its partition concurrently.
	var (
		wg       sync.WaitGroup
		firstErr error
		errMu    sync.Mutex
	)
	begin := time.Now()
	for _, n := range nodes[:workers] {
		wg.Add(1)
		go func(n *clusterBenchNode) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				clock.Advance(time.Millisecond)
				if got := n.c.Pulse(); got != 1 {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("bench: pulse injected %d elements", got)
					}
					errMu.Unlock()
					return
				}
			}
		}(n)
	}
	wg.Wait()
	if firstErr != nil {
		return point, firstErr
	}
	point.IngestSec = float64(point.TotalRows) / time.Since(begin).Seconds()

	// Grouped query via partial-aggregate shipping: WHERE + GROUP BY
	// fold on every owner, mergeable states back to the coordinator.
	const grouped = "select room, count(*) as n, sum(v) as total, avg(v) as mean from metrics group by room order by room"
	before := coord.fed.Info()
	begin = time.Now()
	for q := 0; q < cfg.Queries; q++ {
		rel, err := coord.c.Query(grouped)
		if err != nil {
			return point, err
		}
		if len(rel.Rows) != cfg.Rooms {
			return point, fmt.Errorf("bench: grouped query returned %d groups, want %d", len(rel.Rows), cfg.Rooms)
		}
	}
	point.QueryMS = float64(time.Since(begin)) / float64(time.Millisecond) / float64(cfg.Queries)
	after := coord.fed.Info()
	if after.UnionBytes != before.UnionBytes {
		return point, fmt.Errorf("bench: grouped query took the union fallback")
	}
	point.PartialB = (after.PartialBytes - before.PartialBytes) / uint64(cfg.Queries)

	// The same aggregate through the raw-row union fallback (DISTINCT
	// is not distributable), which prices the window freight partial
	// shipping avoids.
	const unionSQL = "select room, count(distinct v) as u from metrics group by room order by room"
	before = after
	for q := 0; q < cfg.Queries; q++ {
		rel, err := coord.c.Query(unionSQL)
		if err != nil {
			return point, err
		}
		if len(rel.Rows) != cfg.Rooms {
			return point, fmt.Errorf("bench: union query returned %d groups, want %d", len(rel.Rows), cfg.Rooms)
		}
	}
	after = coord.fed.Info()
	if after.UnionBytes == before.UnionBytes {
		return point, fmt.Errorf("bench: control query did not take the union fallback")
	}
	point.UnionB = (after.UnionBytes - before.UnionBytes) / uint64(cfg.Queries)
	return point, nil
}

// RunCluster executes the nodes × volume matrix, streaming progress to
// w. Every cell assembles a real federation on the loopback: HTTP
// servers, directory gossip, and both query transports end to end.
func RunCluster(cfg ClusterConfig, w io.Writer) (*ClusterResult, error) {
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = DefaultCluster().Nodes
	}
	if cfg.RowsPerNode <= 0 {
		cfg.RowsPerNode = DefaultCluster().RowsPerNode
	}
	if cfg.Rooms <= 0 {
		cfg.Rooms = DefaultCluster().Rooms
	}
	if cfg.Queries <= 0 {
		cfg.Queries = DefaultCluster().Queries
	}
	res := &ClusterResult{}
	for _, workers := range cfg.Nodes {
		for _, rows := range []int{cfg.RowsPerNode, 2 * cfg.RowsPerNode} {
			point, err := runClusterCell(cfg, workers, rows)
			if err != nil {
				return nil, fmt.Errorf("nodes=%d rows=%d: %w", workers, rows, err)
			}
			fmt.Fprintf(w, "  nodes=%d rows/node=%-6d ingest %10.0f elems/sec  query %6.2f ms  partial %8d B/q  union %10d B/q\n",
				point.Nodes, point.RowsPerNode, point.IngestSec, point.QueryMS, point.PartialB, point.UnionB)
			res.Points = append(res.Points, point)
		}
	}
	return res, nil
}
