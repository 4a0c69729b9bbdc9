package main

import (
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// benchSource is the benchmark's own wrapper. It produces nothing by
// itself: the container starts it like any push wrapper, and the
// generator calls the EmitFunc / BatchEmitFunc it captured. Registered
// through core.Options.Registry under the kind "bench"; the "id"
// address predicate names the generator-side handle.
type benchSource struct {
	schema *stream.Schema

	mu        sync.Mutex
	emit      wrappers.EmitFunc
	emitBatch wrappers.BatchEmitFunc
}

func (s *benchSource) Kind() string           { return "bench" }
func (s *benchSource) Schema() *stream.Schema { return s.schema }

func (s *benchSource) Start(emit wrappers.EmitFunc) error { return s.StartBatch(emit, nil) }

func (s *benchSource) StartBatch(emit wrappers.EmitFunc, emitBatch wrappers.BatchEmitFunc) error {
	s.mu.Lock()
	s.emit, s.emitBatch = emit, emitBatch
	s.mu.Unlock()
	return nil
}

func (s *benchSource) Stop() error {
	s.mu.Lock()
	s.emit, s.emitBatch = nil, nil
	s.mu.Unlock()
	return nil
}

// funcs returns the captured emit functions (nil before Start or after
// Stop).
func (s *benchSource) funcs() (wrappers.EmitFunc, wrappers.BatchEmitFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.emit, s.emitBatch
}

// sourceHub owns every bench wrapper of one container, by id.
type sourceHub struct {
	schemas map[string]*stream.Schema // schema by "kind" predicate
	mu      sync.Mutex
	srcs    map[string]*benchSource
}

func newSourceHub(schemas map[string]*stream.Schema) *sourceHub {
	return &sourceHub{schemas: schemas, srcs: map[string]*benchSource{}}
}

// registry returns a wrapper registry holding only the bench kind.
func (h *sourceHub) registry() *wrappers.Registry {
	reg := wrappers.NewRegistry()
	reg.Register("bench", func(cfg wrappers.Config) (wrappers.Wrapper, error) {
		kind, id := cfg.Params.Get("kind", ""), cfg.Params.Get("id", "")
		schema, ok := h.schemas[kind]
		if !ok || id == "" {
			return nil, fmt.Errorf("perfbench: bench wrapper needs a known kind and an id (got %q, %q)", kind, id)
		}
		src := &benchSource{schema: schema}
		h.mu.Lock()
		h.srcs[id] = src
		h.mu.Unlock()
		return src, nil
	})
	return reg
}

// emitters returns the captured emit functions of source id.
func (h *sourceHub) emitters(id string) (wrappers.EmitFunc, wrappers.BatchEmitFunc, error) {
	h.mu.Lock()
	src, ok := h.srcs[id]
	h.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("perfbench: source %q was never started", id)
	}
	emit, batch := src.funcs()
	if emit == nil || batch == nil {
		return nil, nil, fmt.Errorf("perfbench: source %q has no batch emit path", id)
	}
	return emit, batch, nil
}

// ioCounters are the timing FS's operation counts.
type ioCounters struct {
	writes, writeBytes, syncs, reads, readBytes atomic.Int64
}

// ioStats is a snapshot of ioCounters.
type ioStats struct {
	writes, writeBytes, syncs, reads, readBytes int64
}

// stats snapshots the counters; a nil FS (untraced run) reads zero.
func (t *timingFS) stats() ioStats {
	if t == nil {
		return ioStats{}
	}
	return ioStats{
		writes: t.io.writes.Load(), writeBytes: t.io.writeBytes.Load(), syncs: t.io.syncs.Load(),
		reads: t.io.reads.Load(), readBytes: t.io.readBytes.Load(),
	}
}

func (a ioStats) minus(b ioStats) ioStats {
	return ioStats{a.writes - b.writes, a.writeBytes - b.writeBytes, a.syncs - b.syncs, a.reads - b.reads, a.readBytes - b.readBytes}
}

func (a ioStats) plus(b ioStats) ioStats {
	return ioStats{a.writes + b.writes, a.writeBytes + b.writeBytes, a.syncs + b.syncs, a.reads + b.reads, a.readBytes + b.readBytes}
}

// timingFS is a pass-through storage.FS: every call, byte, Sync and
// error reaches the inner FS and comes back unchanged. It records one
// span per file write, sync and read.
type timingFS struct {
	inner storage.FS
	tr    *tracer
	io    *ioCounters
}

func newTimingFS(inner storage.FS, tr *tracer) *timingFS {
	return &timingFS{inner: inner, tr: tr, io: &ioCounters{}}
}

func (t *timingFS) wrap(f storage.File, err error) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	return t.wrap(t.inner.OpenFile(name, flag, perm))
}
func (t *timingFS) Open(name string) (storage.File, error) { return t.wrap(t.inner.Open(name)) }
func (t *timingFS) Rename(oldpath, newpath string) error   { return t.inner.Rename(oldpath, newpath) }
func (t *timingFS) Remove(name string) error               { return t.inner.Remove(name) }
func (t *timingFS) Stat(name string) (fs.FileInfo, error)  { return t.inner.Stat(name) }

type timingFile struct {
	storage.File
	fs *timingFS
}

func (f *timingFile) timed(layer string, op func() (int, error)) (int, error) {
	start := f.fs.tr.now()
	n, err := op()
	f.fs.tr.add(layer, 0, start, f.fs.tr.now())
	return n, err
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.timed("fs.write", func() (int, error) { return f.File.Write(p) })
	f.fs.io.writes.Add(1)
	f.fs.io.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.timed("fs.write", func() (int, error) { return f.File.WriteAt(p, off) })
	f.fs.io.writes.Add(1)
	f.fs.io.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Read(p []byte) (int, error) {
	n, err := f.timed("fs.read", func() (int, error) { return f.File.Read(p) })
	f.fs.io.reads.Add(1)
	f.fs.io.readBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.timed("fs.read", func() (int, error) { return f.File.ReadAt(p, off) })
	f.fs.io.reads.Add(1)
	f.fs.io.readBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	_, err := f.timed("fs.sync", func() (int, error) { return 0, f.File.Sync() })
	f.fs.io.syncs.Add(1)
	return err
}

// timingTransport is a pass-through http.RoundTripper recording one
// "p2p.rtt" span per round trip, with the owner index (by request host)
// as the span id. The request and response are not touched.
type timingTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	owners map[string]uint64 // host:port → owner index
	errors atomic.Int64
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := t.tr.now()
	owner := t.owners[r.URL.Host]
	resp, err := t.inner.RoundTrip(r)
	if err != nil {
		t.errors.Add(1)
		t.tr.add("p2p.rtt", owner, start, t.tr.now())
		return resp, err
	}
	if resp.StatusCode >= 500 {
		t.errors.Add(1)
	}
	// The round trip ends when the caller has consumed the body and
	// closes it, not when the headers arrive.
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.tr.add("p2p.rtt", owner, start, t.tr.now())
	}}
	return resp, nil
}

// timedBody passes reads through and runs done once, on the first
// Close.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timingHandler is a pass-through middleware recording one "p2p.owner"
// span per request an owner's p2p server handles.
func timingHandler(inner http.Handler, tr *tracer, owner uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := tr.now()
		inner.ServeHTTP(w, r)
		tr.add("p2p.owner", owner, start, tr.now())
	})
}
