// Package notify implements GSN's notification manager (paper §4):
// delivery of new stream elements to registered clients over an
// extensible set of notification channels. Each subscription gets its
// own bounded queue and delivery goroutine so one slow client cannot
// stall the processing pipeline — overflow drops the newest event and
// counts it, which is the correct behaviour for observations.
package notify

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/resilience"
	"gsn/internal/stream"
)

// Event is one notification: a new output element of a virtual sensor.
type Event struct {
	// Sensor is the producing virtual sensor's name.
	Sensor string
	// Seq is the per-sensor sequence number (1-based).
	Seq uint64
	// Element is the produced stream element.
	Element stream.Element
}

// Channel delivers events to one kind of client endpoint. Deliver may
// block (network I/O); the manager calls it from the subscription's own
// goroutine. Implementations must be safe for use from one goroutine at
// a time.
type Channel interface {
	// Name identifies the channel instance in stats and logs.
	Name() string
	// Deliver sends one event; an error counts as a failed delivery
	// (the manager retries).
	Deliver(Event) error
	// Close releases channel resources.
	Close() error
}

// SubscriptionStats reports one subscription's delivery counters.
type SubscriptionStats struct {
	ID        int64
	Sensor    string
	Channel   string
	Delivered uint64
	Failed    uint64
	Dropped   uint64
}

// Options tunes the manager.
type Options struct {
	// QueueSize bounds each subscription's event queue (default 256).
	QueueSize int
	// Retries is the number of delivery attempts per event, the first
	// included (default 2): Retries 3 tries an event at most three times.
	Retries int
	// RetryDelay sleeps between retries (default 10ms; tests use 0).
	RetryDelay time.Duration
}

type subscription struct {
	id      int64
	sensor  string // canonical; "" subscribes to every sensor
	channel Channel
	queue   chan Event
	done    chan struct{}

	delivered atomic.Uint64
	failed    atomic.Uint64
	dropped   atomic.Uint64
}

// Manager fans events out to subscriptions.
type Manager struct {
	opts Options

	mu     sync.RWMutex
	subs   map[int64]*subscription
	nextID int64
	seq    map[string]*atomic.Uint64
	closed bool

	pending atomic.Int64 // events enqueued but not yet finished
}

// NewManager creates a notification manager.
func NewManager(opts Options) *Manager {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 256
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.RetryDelay == 0 {
		opts.RetryDelay = 10 * time.Millisecond
	}
	return &Manager{
		opts: opts,
		subs: make(map[int64]*subscription),
		seq:  make(map[string]*atomic.Uint64),
	}
}

// Subscribe registers a channel for a sensor's events. An empty sensor
// name subscribes to all sensors. It returns the subscription id.
func (m *Manager) Subscribe(sensor string, ch Channel) (int64, error) {
	if ch == nil {
		return 0, fmt.Errorf("notify: nil channel")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("notify: manager is closed")
	}
	m.nextID++
	sub := &subscription{
		id:      m.nextID,
		sensor:  stream.CanonicalName(sensor),
		channel: ch,
		queue:   make(chan Event, m.opts.QueueSize),
		done:    make(chan struct{}),
	}
	m.subs[sub.id] = sub
	go m.deliverLoop(sub)
	return sub.id, nil
}

// Unsubscribe removes a subscription and closes its channel.
func (m *Manager) Unsubscribe(id int64) error {
	m.mu.Lock()
	sub, ok := m.subs[id]
	delete(m.subs, id)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("notify: no subscription %d", id)
	}
	close(sub.queue)
	<-sub.done
	return sub.channel.Close()
}

// UnsubscribeSensor removes every subscription bound to the sensor
// (used when a virtual sensor is undeployed).
func (m *Manager) UnsubscribeSensor(sensor string) {
	canonical := stream.CanonicalName(sensor)
	m.mu.Lock()
	var victims []*subscription
	for id, sub := range m.subs {
		if sub.sensor == canonical {
			victims = append(victims, sub)
			delete(m.subs, id)
		}
	}
	m.mu.Unlock()
	for _, sub := range victims {
		close(sub.queue)
		<-sub.done
		sub.channel.Close()
	}
}

// Publish fans a new element out to matching subscriptions. It never
// blocks: full queues drop the event for that subscription.
func (m *Manager) Publish(sensor string, e stream.Element) {
	canonical := stream.CanonicalName(sensor)
	m.mu.RLock()
	counter, ok := m.seq[canonical]
	if !ok {
		m.mu.RUnlock()
		m.mu.Lock()
		if m.seq[canonical] == nil {
			m.seq[canonical] = &atomic.Uint64{}
		}
		counter = m.seq[canonical]
		m.mu.Unlock()
		m.mu.RLock()
	}
	ev := Event{Sensor: canonical, Seq: counter.Add(1), Element: e}
	for _, sub := range m.subs {
		if sub.sensor != "" && sub.sensor != canonical {
			continue
		}
		m.pending.Add(1)
		select {
		case sub.queue <- ev:
		default:
			sub.dropped.Add(1)
			m.pending.Add(-1)
		}
	}
	m.mu.RUnlock()
}

func (m *Manager) deliverLoop(sub *subscription) {
	defer close(sub.done)
	policy := resilience.Policy{
		Base:        m.opts.RetryDelay,
		Cap:         4 * m.opts.RetryDelay,
		MaxAttempts: m.opts.Retries,
		Seed:        sub.id,
	}
	// One closure per subscription, not per event: with the Backoff
	// built only on a failure, a first-attempt delivery allocates
	// nothing.
	var ev Event
	deliver := func() error { return sub.channel.Deliver(ev) }
	for ev = range sub.queue {
		err := resilience.Do(nil, policy, deliver)
		if err != nil {
			sub.failed.Add(1)
		} else {
			sub.delivered.Add(1)
		}
		m.pending.Add(-1)
	}
}

// Flush blocks until all enqueued events have been delivered (or
// dropped/failed), up to the timeout. It returns false on timeout.
// Tests and graceful shutdown use it.
func (m *Manager) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for m.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Stats lists per-subscription delivery counters, ordered by id.
func (m *Manager) Stats() []SubscriptionStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]SubscriptionStats, 0, len(m.subs))
	for _, sub := range m.subs {
		out = append(out, SubscriptionStats{
			ID:        sub.id,
			Sensor:    sub.sensor,
			Channel:   sub.channel.Name(),
			Delivered: sub.delivered.Load(),
			Failed:    sub.failed.Load(),
			Dropped:   sub.dropped.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close shuts down every subscription.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	subs := make([]*subscription, 0, len(m.subs))
	for id, sub := range m.subs {
		subs = append(subs, sub)
		delete(m.subs, id)
	}
	m.mu.Unlock()
	var first error
	for _, sub := range subs {
		close(sub.queue)
		<-sub.done
		if err := sub.channel.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
