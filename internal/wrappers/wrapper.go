// Package wrappers implements GSN's platform abstraction (paper §5):
// a wrapper adapts one sensor platform to the middleware by producing
// timestamped stream elements. The original GSN shipped Java/C wrappers
// for TinyOS motes, wireless cameras and RFID readers; this package
// provides deterministic simulations of those platforms (the paper's
// experiments only require the devices as timed producers of elements
// of a given size) plus generic utility wrappers.
//
// Adding a platform means implementing Wrapper (typically 100–200 lines,
// matching the paper's reported effort) and registering a factory.
package wrappers

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"gsn/internal/stream"
)

// EmitFunc delivers one produced element downstream (into the
// container's input stream manager).
type EmitFunc func(stream.Element)

// BatchEmitFunc delivers a burst of produced elements downstream as one
// batch, in arrival order. Ownership of the slice passes to the callee;
// the wrapper must not reuse it after emitting.
type BatchEmitFunc func([]stream.Element)

// Wrapper is the platform adaptation interface. Implementations must be
// safe for the container to Start and Stop from different goroutines.
type Wrapper interface {
	// Kind returns the wrapper type identifier (e.g. "mote").
	Kind() string
	// Schema describes the elements the wrapper produces.
	Schema() *stream.Schema
	// Start begins production, delivering elements through emit until
	// Stop is called. Start must not block.
	Start(emit EmitFunc) error
	// Stop halts production and releases resources. It blocks until the
	// production goroutine has exited and is idempotent.
	Stop() error
}

// Producer is implemented by pull-capable wrappers: Produce generates
// the next reading synchronously. The container's tests, the benchmark
// harness and manual-clock simulations use it to drive wrappers
// deterministically without real-time pacing.
type Producer interface {
	// Produce returns the next reading. It returns ErrNoReading when
	// the device has nothing to report this poll (e.g. an RFID reader
	// with no tag in range).
	Produce() (stream.Element, error)
}

// BatchEmitter is the optional burst capability of the wrapper
// contract: a wrapper that naturally produces several elements at once
// (a replayed file, a radio packet train, a long-poll fetch) delivers
// them through emitBatch so the whole burst crosses the quality chain
// and the window table with one lock acquisition and one WAL group
// append. The container prefers StartBatch over Start when a wrapper
// implements it; a wrapper may still use emit for single readings.
type BatchEmitter interface {
	Wrapper
	// StartBatch begins production like Start, delivering bursts
	// through emitBatch (slice ownership passes to the callee) and
	// single readings through emit. It must not block.
	StartBatch(emit EmitFunc, emitBatch BatchEmitFunc) error
}

// BatchProducer is the pull-capable burst form: ProduceBatch generates
// up to max readings synchronously in one call. Like Produce it returns
// ErrNoReading when the device has nothing at all to report.
type BatchProducer interface {
	Producer
	ProduceBatch(max int) ([]stream.Element, error)
}

// ProduceUpTo drains a Producer into a burst of at most max elements,
// stopping at the first empty poll. It returns ErrNoReading only when
// nothing at all was produced — wrappers without a cheaper native batch
// use it to satisfy BatchProducer.
func ProduceUpTo(p Producer, max int) ([]stream.Element, error) {
	var out []stream.Element
	for len(out) < max {
		e, err := p.Produce()
		if err == ErrNoReading {
			break
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, ErrNoReading
	}
	return out, nil
}

// ErrNoReading signals an empty poll from a Producer.
var ErrNoReading = fmt.Errorf("wrappers: no reading available")

// ReplicationStats are the exactly-once delivery counters of a wrapper
// that replicates a remote stream (the p2p remote wrapper).
type ReplicationStats struct {
	// Fetches/Failures count long-poll attempts and transport errors.
	Fetches, Failures uint64
	// Resyncs counts cursor rewinds to the peer's window start;
	// EpochMismatches counts the subset caused by an observed epoch
	// change (peer restart or truncate — the rest are raw sequence
	// regressions, e.g. a peer whose epoch persistence was lost).
	Resyncs, EpochMismatches uint64
	// DuplicatesDropped counts re-delivered elements the consumer-side
	// dedup suppressed (retries after torn responses, re-syncs).
	DuplicatesDropped uint64
	// Connected reports whether the last fetch succeeded.
	Connected bool
}

// Replicator is implemented by wrappers that replicate a remote stream
// and account for exactly-once delivery. The container aggregates these
// counters into its metrics endpoint.
type Replicator interface {
	ReplicationStats() ReplicationStats
}

// HealthReporter is implemented by wrappers that can judge their own
// connection health (e.g. a remote wrapper counting consecutive fetch
// failures). The container folds a degraded report into the sensor's
// health ladder without restarting the wrapper — unlike a silent
// source, a disconnected peer is not fixed by a local restart.
type HealthReporter interface {
	// HealthState returns degraded=true with a reason while the wrapper
	// considers its upstream link unhealthy.
	HealthState() (degraded bool, reason string)
}

// Config configures one wrapper instance.
type Config struct {
	// Name is the instance name (the stream source alias, for logs).
	Name string
	// Params carries the key/value pairs from the descriptor's
	// <address> element.
	Params Params
	// Seed makes simulated devices deterministic. Zero means derive
	// from Name.
	Seed int64
	// Clock stamps produced elements; nil means the system clock.
	Clock stream.Clock
}

// normalise fills defaults.
func (c Config) normalise() Config {
	if c.Clock == nil {
		c.Clock = stream.SystemClock()
	}
	if c.Params == nil {
		c.Params = Params{}
	}
	if c.Seed == 0 {
		var h int64 = 1469598103934665603
		for _, b := range []byte(c.Name) {
			h ^= int64(b)
			h *= 1099511628211
		}
		if h == 0 {
			h = 1
		}
		c.Seed = h
	}
	return c
}

// Params is the wrapper parameter map (string-typed, as parsed from the
// XML descriptor's predicate list).
type Params map[string]string

// Get returns the value for key or def when absent/empty.
func (p Params) Get(key, def string) string {
	if v, ok := p[key]; ok && v != "" {
		return v
	}
	return def
}

// Int parses an integer parameter.
func (p Params) Int(key string, def int) (int, error) {
	v, ok := p[key]
	if !ok || v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("wrappers: parameter %s=%q is not an integer", key, v)
	}
	return n, nil
}

// Float parses a float parameter.
func (p Params) Float(key string, def float64) (float64, error) {
	v, ok := p[key]
	if !ok || v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("wrappers: parameter %s=%q is not a number", key, v)
	}
	return f, nil
}

// Duration parses a duration parameter ("500ms", "2s", or a bare
// millisecond count).
func (p Params) Duration(key string, def time.Duration) (time.Duration, error) {
	v, ok := p[key]
	if !ok || v == "" {
		return def, nil
	}
	if ms, err := strconv.Atoi(v); err == nil {
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("wrappers: parameter %s=%q is not a duration", key, v)
	}
	return d, nil
}

// Bool parses a boolean parameter.
func (p Params) Bool(key string, def bool) (bool, error) {
	v, ok := p[key]
	if !ok || v == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("wrappers: parameter %s=%q is not a boolean", key, v)
	}
	return b, nil
}

// Factory creates a wrapper instance from a config.
type Factory func(Config) (Wrapper, error)

// Registry maps wrapper kinds to factories.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a factory under kind. Registering a duplicate kind is an
// error (wrapper kinds are a global namespace in descriptors).
func (r *Registry) Register(kind string, f Factory) error {
	if kind == "" || f == nil {
		return fmt.Errorf("wrappers: invalid registration for kind %q", kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[kind]; dup {
		return fmt.Errorf("wrappers: kind %q already registered", kind)
	}
	r.factories[kind] = f
	return nil
}

// New instantiates a wrapper of the given kind.
func (r *Registry) New(kind string, cfg Config) (Wrapper, error) {
	r.mu.RLock()
	f, ok := r.factories[kind]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wrappers: unknown wrapper kind %q (known: %v)", kind, r.Kinds())
	}
	return f(cfg.normalise())
}

// Clone returns a new registry with the same factories. Containers
// clone the default registry to add node-specific wrappers (e.g. the
// remote wrapper bound to the node's directory) without mutating global
// state.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := NewRegistry()
	for k, f := range r.factories {
		out.factories[k] = f
	}
	return out
}

// Kinds lists registered kinds, sorted.
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for k := range r.factories {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// defaultRegistry holds the built-in wrappers; packages providing
// additional kinds (e.g. the p2p remote wrapper) register here from
// their init functions.
var defaultRegistry = NewRegistry()

// Register adds a factory to the default registry.
func Register(kind string, f Factory) error { return defaultRegistry.Register(kind, f) }

// New instantiates from the default registry.
func New(kind string, cfg Config) (Wrapper, error) { return defaultRegistry.New(kind, cfg) }

// Kinds lists the default registry's kinds.
func Kinds() []string { return defaultRegistry.Kinds() }

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
