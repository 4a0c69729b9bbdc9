package p2p

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/core"
	"gsn/internal/sqlengine"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// Federation implements core.Cluster over the p2p protocol: node
// membership is an explicit peer set plus whatever the gossiped
// directory reveals, sensor placement is the directory's name
// predicate, remote composition edges ride the exactly-once
// (epoch, seq) stream wrapper, and the three query transports map to
// the typed federation endpoints. One Federation serves one node;
// inject it with Container.SetCluster.
type Federation struct {
	c     *core.Container
	self  string
	httpc *http.Client

	mu    sync.Mutex
	peers map[string]*Client // base URL → client

	partialBytes atomic.Uint64
	unionBytes   atomic.Uint64
	routedBytes  atomic.Uint64
}

// NewFederation creates the federation for a container. httpc is the
// transport every peer connection uses — the seam the chaos harness
// threads a FaultTransport through; nil uses the default transport.
func NewFederation(c *core.Container, httpc *http.Client) *Federation {
	return &Federation{
		c:     c,
		self:  c.NodeAddress(),
		httpc: httpc,
		peers: make(map[string]*Client),
	}
}

// AddPeer registers a peer node by base URL (e.g. "http://host:22001").
func (f *Federation) AddPeer(base string) {
	base = strings.TrimRight(base, "/")
	if base == "" || base == f.self {
		return
	}
	f.mu.Lock()
	if _, ok := f.peers[base]; !ok {
		f.peers[base] = &Client{Base: base, HTTP: f.httpc}
	}
	f.mu.Unlock()
}

// Peers lists the known peer base URLs, sorted.
func (f *Federation) Peers() []string {
	f.mu.Lock()
	out := make([]string, 0, len(f.peers))
	for base := range f.peers {
		out = append(out, base)
	}
	f.mu.Unlock()
	sort.Strings(out)
	return out
}

// peerClient returns the client for a base URL, creating one on demand:
// the directory may reveal owners that were never explicitly AddPeer'd
// (a peer of a peer, learned through gossip).
func (f *Federation) peerClient(base string) *Client {
	base = strings.TrimRight(base, "/")
	f.mu.Lock()
	defer f.mu.Unlock()
	cl, ok := f.peers[base]
	if !ok {
		cl = &Client{Base: base, HTTP: f.httpc}
		f.peers[base] = cl
	}
	return cl
}

// GossipRound performs one push-pull directory exchange with every
// peer and returns the total number of adopted entries. The node's
// periodic gossip loop calls this; tests call it directly to converge
// placement deterministically.
func (f *Federation) GossipRound() int {
	adopted := 0
	for _, base := range f.Peers() {
		n, err := f.peerClient(base).Gossip(f.c.Directory())
		if err != nil {
			continue
		}
		adopted += n
	}
	return adopted
}

// Owners implements core.Cluster: the peers currently publishing the
// sensor, per the gossiped directory, excluding this node, sorted.
func (f *Federation) Owners(sensor string) []string {
	entries := f.c.Directory().Query(map[string]string{"name": stream.CanonicalName(sensor)})
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		if e.Node == "" || e.Node == f.self || seen[e.Node] {
			continue
		}
		seen[e.Node] = true
		out = append(out, e.Node)
	}
	sort.Strings(out)
	return out
}

// Schema implements core.Cluster.
func (f *Federation) Schema(owner, sensor string) (*stream.Schema, error) {
	return f.peerClient(owner).Schema(sensor)
}

// RemoteSource implements core.Cluster: a composition edge backed by
// the exactly-once (epoch, seq) stream wrapper, pointed at the
// sensor's first owner. The wrapper owns reconnection, epoch re-sync
// and duplicate filtering; the quality chain and window table it feeds
// are the downstream sensor's ordinary ones.
func (f *Federation) RemoteSource(sensor string, params map[string]string) (wrappers.Wrapper, error) {
	canonical := stream.CanonicalName(sensor)
	owners := f.Owners(canonical)
	if len(owners) == 0 {
		return nil, fmt.Errorf("p2p: no cluster node publishes %s", canonical)
	}
	p := wrappers.Params{}
	for k, v := range params {
		p[k] = v
	}
	p["url"] = owners[0]
	p["vs"] = canonical
	return newRemote(wrappers.Config{
		Name:   "cluster/" + canonical,
		Params: p,
		Clock:  f.c.Clock(),
	}, f.c.Directory(), f.c.Keys(), f.httpc)
}

// PartialQuery implements core.Cluster.
func (f *Federation) PartialQuery(owner, sql string) (*sqlengine.PartialRollup, error) {
	var pr sqlengine.PartialRollup
	n, err := f.peerClient(owner).getJSONCounted("/p2p/partial?sql="+url.QueryEscape(sql), &pr)
	f.partialBytes.Add(uint64(n))
	if err != nil {
		return nil, err
	}
	return &pr, nil
}

// RouteQuery implements core.Cluster.
func (f *Federation) RouteQuery(owner, sql string) (*sqlengine.Relation, error) {
	var tr TypedResult
	n, err := f.peerClient(owner).getJSONCounted("/p2p/query?sql="+url.QueryEscape(sql), &tr)
	f.routedBytes.Add(uint64(n))
	if err != nil {
		return nil, err
	}
	return relationOfTyped(tr), nil
}

// UnionRows implements core.Cluster: the raw-row fallback transport,
// accounted separately from routed statements so partial-aggregate
// shipping has a bytes-moved baseline.
func (f *Federation) UnionRows(owner, table string) (*sqlengine.Relation, error) {
	var tr TypedResult
	n, err := f.peerClient(owner).getJSONCounted(
		"/p2p/query?sql="+url.QueryEscape("SELECT * FROM "+table), &tr)
	f.unionBytes.Add(uint64(n))
	if err != nil {
		return nil, err
	}
	return relationOfTyped(tr), nil
}

// ErrUnknownSession reports a routed-query poll whose session the peer
// reclaimed (idle sweep, or the peer restarted).
var ErrUnknownSession = errors.New("p2p: unknown query session")

// RegisterRemote implements core.Cluster: register the continuous
// query on the owning peer and long-poll result revisions back into
// cb. A reclaimed session (peer restart, idle sweep after a long
// partition) transparently re-registers, so the subscription survives
// the same failures the stream protocol does.
func (f *Federation) RegisterRemote(owner, sensor, sql string, sampling float64, cb func(*sqlengine.Relation)) (func(), error) {
	cl := f.peerClient(owner)
	id, err := cl.RegisterContinuous(sensor, sql, sampling)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		after := uint64(0)
		backoff := 100 * time.Millisecond
		for ctx.Err() == nil {
			page, n, err := cl.PollResults(ctx, id, after, 25*time.Second)
			f.routedBytes.Add(uint64(n))
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				if errors.Is(err, ErrUnknownSession) {
					// The peer forgot us (restart or idle sweep): start a
					// fresh session and replay from its first revision.
					if newID, rerr := cl.RegisterContinuous(sensor, sql, sampling); rerr == nil {
						id, after = newID, 0
						backoff = 100 * time.Millisecond
						continue
					}
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > 5*time.Second {
					backoff = 5 * time.Second
				}
				continue
			}
			backoff = 100 * time.Millisecond
			if page.Rev > after {
				after = page.Rev
				cb(relationOfTyped(page.Result))
			}
		}
	}()
	stop := func() {
		cancel()
		<-done
		_ = cl.UnregisterContinuous(id)
	}
	return stop, nil
}

// Info implements core.Cluster.
func (f *Federation) Info() core.ClusterInfo {
	info := core.ClusterInfo{
		Self:         f.self,
		Peers:        f.Peers(),
		Placements:   map[string][]string{},
		PartialBytes: f.partialBytes.Load(),
		UnionBytes:   f.unionBytes.Load(),
		RoutedBytes:  f.routedBytes.Load(),
	}
	for _, e := range f.c.Directory().Query(nil) {
		if e.Node == "" {
			continue
		}
		nodes := info.Placements[e.Sensor]
		dup := false
		for _, n := range nodes {
			if n == e.Node {
				dup = true
				break
			}
		}
		if !dup {
			info.Placements[e.Sensor] = append(nodes, e.Node)
		}
	}
	for _, nodes := range info.Placements {
		sort.Strings(nodes)
	}
	return info
}

// --- typed client calls ---------------------------------------------

// getJSONCounted is getJSON, also reporting how many response-body
// bytes crossed the wire (the federation's transport accounting).
func (c *Client) getJSONCounted(path string, out any) (int, error) {
	resp, cancel, err := c.short(http.MethodGet, path, nil, "")
	if err != nil {
		return 0, err
	}
	defer cancel()
	defer resp.Body.Close()
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxJSONBody))
	if resp.StatusCode != http.StatusOK {
		return len(body), fmt.Errorf("p2p: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	if rerr != nil {
		return len(body), rerr
	}
	return len(body), json.Unmarshal(body, out)
}

// RegisterContinuous registers a continuous query on the peer and
// returns the session id to poll with.
func (c *Client) RegisterContinuous(vs, sql string, sampling float64) (string, error) {
	payload, err := json.Marshal(RegisterRequest{VS: vs, SQL: sql, Sampling: sampling})
	if err != nil {
		return "", err
	}
	resp, cancel, err := c.short(http.MethodPost, "/p2p/register", bytes.NewReader(payload), "application/json")
	if err != nil {
		return "", err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("p2p: register on %s: %s", c.Base, resp.Status)
	}
	var out RegisterResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxJSONBody)).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// PollResults long-polls one routed-query result revision (rev >
// after). Issued under ctx with the long-poll transport (not the
// breaker-gated short path): a poll outliving ShortTimeout is the
// normal idle case, not a failure.
func (c *Client) PollResults(ctx context.Context, id string, after uint64, wait time.Duration) (ResultsPage, int, error) {
	u := fmt.Sprintf("%s/p2p/results?id=%s&after=%d&wait=%d",
		c.Base, url.QueryEscape(id), after, wait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return ResultsPage{}, 0, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return ResultsPage{}, 0, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxJSONBody))
	if resp.StatusCode == http.StatusNotFound {
		return ResultsPage{}, len(body), ErrUnknownSession
	}
	if resp.StatusCode != http.StatusOK {
		return ResultsPage{}, len(body), fmt.Errorf("p2p: results %s: %s", id, resp.Status)
	}
	if rerr != nil {
		return ResultsPage{}, len(body), rerr
	}
	var page ResultsPage
	if err := json.Unmarshal(body, &page); err != nil {
		return ResultsPage{}, len(body), err
	}
	return page, len(body), nil
}

// UnregisterContinuous tears a routed-query session down on the peer.
func (c *Client) UnregisterContinuous(id string) error {
	resp, cancel, err := c.short(http.MethodDelete, "/p2p/register?id="+url.QueryEscape(id), nil, "")
	if err != nil {
		return err
	}
	defer cancel()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("p2p: unregister %s: %s", id, resp.Status)
	}
	return nil
}
