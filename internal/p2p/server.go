// Package p2p implements GSN's inter-container communication (paper §4:
// "GSN nodes communicate among each other in a peer-to-peer fashion"):
// an HTTP protocol for pulling remote virtual sensor streams
// (long-poll), exchanging directory snapshots (push-pull gossip), and
// the "remote" wrapper that makes another node's virtual sensor appear
// as a local data source with logical (predicate-based) addressing.
//
// Elements travel in the stream package's binary encoding with the
// schema in a header, so numeric types survive the wire exactly;
// payloads can be HMAC-signed via the integrity keyring.
package p2p

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gsn/internal/core"
	"gsn/internal/directory"
	"gsn/internal/integrity"
	"gsn/internal/stream"
)

// Header names of the GSN p2p protocol.
const (
	schemaHeader    = "X-Gsn-Schema"
	signatureHeader = "X-Gsn-Signature"
	keyIDHeader     = "X-Gsn-Key-Id"
	// Sequence-protocol headers (set on /p2p/stream responses when the
	// request carries an after= cursor): the serving table's epoch, the
	// sequence number of the first body element (0 when empty), and the
	// live window's sequence bounds at serve time.
	epochHeader    = "X-Gsn-Epoch"
	firstHeader    = "X-Gsn-First"
	winFirstHeader = "X-Gsn-Window-First"
	winLastHeader  = "X-Gsn-Window-Last"
)

// Server exposes a container to peer nodes. Mount its Handler under
// /p2p/ on the node's HTTP server; call Close when done to stop the
// background session reaper.
type Server struct {
	container *core.Container
	keys      *integrity.KeyRing
	signKeyID string // sign responses with this key when set
	sessions  *sessionTable

	reapStop  chan struct{}
	reapDone  chan struct{}
	closeOnce sync.Once
}

// NewServer creates a p2p server for the container. signKeyID is
// optional; when set, stream responses carry an HMAC signature from the
// container's keyring.
func NewServer(c *core.Container, signKeyID string) *Server {
	return newServer(c, signKeyID, sessionIdleLimit, sessionReapInterval)
}

// newServer is NewServer with the reap cadence injectable for tests.
func newServer(c *core.Container, signKeyID string, idleLimit, reapEvery time.Duration) *Server {
	s := &Server{
		container: c,
		keys:      c.Keys(),
		signKeyID: signKeyID,
		sessions:  newSessionTable(),
		reapStop:  make(chan struct{}),
		reapDone:  make(chan struct{}),
	}
	go s.reapLoop(idleLimit, reapEvery)
	return s
}

// reapLoop periodically reclaims routed-query sessions whose
// coordinator stopped polling. A timer (rather than piggybacking on
// incoming requests) is load-bearing: an owner that never hears from
// another coordinator again must still unregister the orphaned
// continuous queries, or they run forever.
func (s *Server) reapLoop(idleLimit, reapEvery time.Duration) {
	defer close(s.reapDone)
	t := time.NewTicker(reapEvery)
	defer t.Stop()
	for {
		select {
		case <-s.reapStop:
			return
		case <-t.C:
			s.sweepSessions(idleLimit)
		}
	}
}

// Close stops the background session reaper. It does not tear live
// sessions down — their continuous queries belong to the container,
// whose Close unregisters everything.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.reapStop) })
	<-s.reapDone
}

// Handler returns the p2p HTTP handler (paths are rooted at /p2p/).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /p2p/info", s.handleInfo)
	mux.HandleFunc("GET /p2p/sensors", s.handleSensors)
	mux.HandleFunc("GET /p2p/schema", s.handleSchema)
	mux.HandleFunc("GET /p2p/stream", s.handleStream)
	mux.HandleFunc("GET /p2p/query", s.handleQuery)
	mux.HandleFunc("GET /p2p/partial", s.handlePartial)
	mux.HandleFunc("GET /p2p/cluster", s.handleCluster)
	mux.HandleFunc("POST /p2p/register", s.handleRegister)
	mux.HandleFunc("GET /p2p/results", s.handleResults)
	mux.HandleFunc("DELETE /p2p/register", s.handleUnregister)
	mux.HandleFunc("GET /p2p/directory", s.handleDirectory)
	mux.HandleFunc("POST /p2p/directory/merge", s.handleDirectoryMerge)
	return mux
}

// InfoResponse describes a node.
type InfoResponse struct {
	Name    string   `json:"name"`
	Address string   `json:"address"`
	Sensors []string `json:"sensors"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := InfoResponse{Name: s.container.Name(), Address: s.container.NodeAddress()}
	for _, vs := range s.container.Sensors() {
		info.Sensors = append(info.Sensors, vs.Name())
	}
	writeJSON(w, info)
}

// SensorInfo describes one virtual sensor to peers.
type SensorInfo struct {
	Name   string            `json:"name"`
	Fields map[string]string `json:"fields"`
}

func (s *Server) handleSensors(w http.ResponseWriter, r *http.Request) {
	var out []SensorInfo
	for _, vs := range s.container.Sensors() {
		fields := map[string]string{}
		for _, f := range vs.OutputSchema().Fields() {
			fields[f.Name] = f.Type.String()
		}
		out = append(out, SensorInfo{Name: vs.Name(), Fields: fields})
	}
	writeJSON(w, out)
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	vs, ok := s.container.Sensor(r.URL.Query().Get("vs"))
	if !ok {
		http.Error(w, "unknown virtual sensor", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(stream.EncodeSchema(nil, vs.OutputSchema()))
}

// handleStream serves stream elements. Two cursor modes exist: the
// legacy since= timestamp cursor (elements with timestamp > since) and
// the exactly-once after= sequence cursor (elements with sequence
// number > after, response annotated with epoch and window bounds so a
// consumer can distinguish a resumable cursor from one that must
// re-sync). When no data is available either mode long-polls up to the
// wait parameter (milliseconds, capped at 30s) before returning an
// empty body.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	vs, ok := s.container.Sensor(q.Get("vs"))
	if !ok {
		http.Error(w, "unknown virtual sensor", http.StatusNotFound)
		return
	}
	since := int64(0)
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = n
	}
	seqMode := false
	after := uint64(0)
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad after parameter", http.StatusBadRequest)
			return
		}
		seqMode, after = true, n
	}
	waitMS := 0
	if v := q.Get("wait"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad wait parameter", http.StatusBadRequest)
			return
		}
		waitMS = n
		if waitMS > 30_000 {
			waitMS = 30_000
		}
	}
	limit := 500
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit parameter", http.StatusBadRequest)
			return
		}
		if n < limit {
			limit = n
		}
	}

	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)
	var (
		elems                           []stream.Element
		first, winFirst, winLast, epoch uint64
	)
	for {
		if seqMode {
			elems, first, winFirst, winLast, epoch = vs.Output().SinceSeq(after)
		} else {
			elems = vs.Output().Since(stream.Timestamp(since))
		}
		if len(elems) > 0 || waitMS == 0 || time.Now().After(deadline) {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	if len(elems) > limit {
		// The suffix stays contiguous from first, so truncation only
		// trims the tail the consumer will ask for next poll.
		elems = elems[:limit]
	}

	var body bytes.Buffer
	for _, e := range elems {
		if err := stream.WriteElement(&body, e); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(schemaHeader,
		base64.StdEncoding.EncodeToString(stream.EncodeSchema(nil, vs.OutputSchema())))
	if seqMode {
		w.Header().Set(epochHeader, strconv.FormatUint(epoch, 10))
		w.Header().Set(firstHeader, strconv.FormatUint(first, 10))
		w.Header().Set(winFirstHeader, strconv.FormatUint(winFirst, 10))
		w.Header().Set(winLastHeader, strconv.FormatUint(winLast, 10))
	}
	if s.signKeyID != "" {
		sig, err := s.keys.Sign(s.signKeyID, body.Bytes())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set(keyIDHeader, sig.KeyID)
		w.Header().Set(signatureHeader, sig.MAC)
	}
	w.Write(body.Bytes())
}

// handleQuery runs a one-shot SQL query over the node's stored streams
// on behalf of a peer and answers with exact-typed rows (TypedResult):
// the endpoint behind Client.Query, routed queries and union fallbacks.
// It goes through the container's version-stamped result cache, so
// repeated identical pulls between inserts cost one map lookup.
// Strictly local (LocalQuery, like every peer-serving endpoint): a node
// answering a coordinator must not re-route the statement back into
// the cluster.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("sql")
	if sql == "" {
		http.Error(w, "missing sql parameter", http.StatusBadRequest)
		return
	}
	rel, err := s.container.LocalQuery(sql)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, typedOfRelation(rel))
}

func (s *Server) handleDirectory(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.container.Directory().Snapshot())
}

// handleDirectoryMerge implements push-pull gossip: the peer posts its
// snapshot, we merge it and answer with ours.
func (s *Server) handleDirectoryMerge(w http.ResponseWriter, r *http.Request) {
	var entries []directory.Entry
	if err := json.NewDecoder(r.Body).Decode(&entries); err != nil {
		http.Error(w, fmt.Sprintf("bad snapshot: %v", err), http.StatusBadRequest)
		return
	}
	s.container.Directory().Merge(entries)
	writeJSON(w, s.container.Directory().Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
