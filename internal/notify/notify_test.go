package notify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/stream"
)

var nSchema = stream.MustSchema(
	stream.Field{Name: "temperature", Type: stream.TypeInt},
	stream.Field{Name: "img", Type: stream.TypeBytes},
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func nElem(t *testing.T, ts stream.Timestamp, temp int64) stream.Element {
	t.Helper()
	e, err := stream.NewElement(nSchema, ts, temp, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testManager() *Manager {
	return NewManager(Options{QueueSize: 64, Retries: 2, RetryDelay: time.Millisecond})
}

func TestPublishToSubscriber(t *testing.T) {
	m := testManager()
	defer m.Close()
	var got atomic.Int64
	_, err := m.Subscribe("vs1", FuncChannel{Fn: func(ev Event) error {
		if ev.Sensor != "VS1" {
			t.Errorf("sensor = %q", ev.Sensor)
		}
		got.Add(1)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m.Publish("vs1", nElem(t, stream.Timestamp(i+1), int64(i)))
	}
	if !m.Flush(time.Second) {
		t.Fatal("Flush timed out")
	}
	if got.Load() != 5 {
		t.Errorf("delivered %d of 5", got.Load())
	}
}

func TestSequenceNumbersPerSensor(t *testing.T) {
	m := testManager()
	defer m.Close()
	var mu sync.Mutex
	seqs := map[string][]uint64{}
	m.Subscribe("", FuncChannel{Fn: func(ev Event) error {
		mu.Lock()
		seqs[ev.Sensor] = append(seqs[ev.Sensor], ev.Seq)
		mu.Unlock()
		return nil
	}})
	m.Publish("a", nElem(t, 1, 1))
	m.Publish("b", nElem(t, 2, 2))
	m.Publish("a", nElem(t, 3, 3))
	if !m.Flush(time.Second) {
		t.Fatal("Flush timed out")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs["A"]) != 2 || seqs["A"][0] != 1 || seqs["A"][1] != 2 {
		t.Errorf("sensor A seqs = %v", seqs["A"])
	}
	if len(seqs["B"]) != 1 || seqs["B"][0] != 1 {
		t.Errorf("sensor B seqs = %v", seqs["B"])
	}
}

func TestWildcardAndFiltering(t *testing.T) {
	m := testManager()
	defer m.Close()
	var all, onlyA atomic.Int64
	m.Subscribe("", FuncChannel{Fn: func(Event) error { all.Add(1); return nil }})
	m.Subscribe("a", FuncChannel{Fn: func(Event) error { onlyA.Add(1); return nil }})
	m.Publish("a", nElem(t, 1, 1))
	m.Publish("b", nElem(t, 2, 2))
	m.Flush(time.Second)
	if all.Load() != 2 || onlyA.Load() != 1 {
		t.Errorf("all=%d onlyA=%d", all.Load(), onlyA.Load())
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	m := testManager()
	defer m.Close()
	var got atomic.Int64
	id, _ := m.Subscribe("s", FuncChannel{Fn: func(Event) error { got.Add(1); return nil }})
	m.Publish("s", nElem(t, 1, 1))
	m.Flush(time.Second)
	if err := m.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	m.Publish("s", nElem(t, 2, 2))
	m.Flush(time.Second)
	if got.Load() != 1 {
		t.Errorf("delivered %d, want 1", got.Load())
	}
	if err := m.Unsubscribe(id); err == nil {
		t.Error("double unsubscribe succeeded")
	}
}

func TestUnsubscribeSensor(t *testing.T) {
	m := testManager()
	defer m.Close()
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }})
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }})
	m.Subscribe("other", FuncChannel{Fn: func(Event) error { return nil }})
	m.UnsubscribeSensor("s")
	stats := m.Stats()
	if len(stats) != 1 || stats[0].Sensor != "OTHER" {
		t.Errorf("stats after UnsubscribeSensor = %+v", stats)
	}
}

func TestRetriesThenFailure(t *testing.T) {
	m := NewManager(Options{QueueSize: 8, Retries: 3, RetryDelay: time.Millisecond})
	defer m.Close()
	var attempts atomic.Int64
	m.Subscribe("s", FuncChannel{Fn: func(Event) error {
		attempts.Add(1)
		return fmt.Errorf("nope")
	}})
	m.Publish("s", nElem(t, 1, 1))
	m.Flush(time.Second)
	if attempts.Load() != 3 {
		t.Errorf("attempts = %d, want 3", attempts.Load())
	}
	st := m.Stats()
	if st[0].Failed != 1 || st[0].Delivered != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetryEventualSuccess(t *testing.T) {
	m := NewManager(Options{QueueSize: 8, Retries: 3, RetryDelay: time.Millisecond})
	defer m.Close()
	var attempts atomic.Int64
	m.Subscribe("s", FuncChannel{Fn: func(Event) error {
		if attempts.Add(1) < 2 {
			return fmt.Errorf("flaky")
		}
		return nil
	}})
	m.Publish("s", nElem(t, 1, 1))
	m.Flush(time.Second)
	st := m.Stats()
	if st[0].Delivered != 1 || st[0].Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueueOverflowDropsAndCounts(t *testing.T) {
	m := NewManager(Options{QueueSize: 1, Retries: 1, RetryDelay: time.Millisecond})
	defer m.Close()
	block := make(chan struct{})
	m.Subscribe("s", FuncChannel{Fn: func(Event) error {
		<-block
		return nil
	}})
	for i := 0; i < 10; i++ {
		m.Publish("s", nElem(t, stream.Timestamp(i+1), int64(i)))
	}
	close(block)
	m.Flush(time.Second)
	st := m.Stats()[0]
	if st.Dropped == 0 {
		t.Errorf("expected drops under a blocked consumer: %+v", st)
	}
	if st.Delivered+st.Dropped != 10 {
		t.Errorf("delivered %d + dropped %d != 10", st.Delivered, st.Dropped)
	}
}

func TestManagerCloseIsIdempotentAndFinal(t *testing.T) {
	m := testManager()
	m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe("s", FuncChannel{Fn: func(Event) error { return nil }}); err == nil {
		t.Error("Subscribe after Close succeeded")
	}
}

func TestNilChannelRejected(t *testing.T) {
	m := testManager()
	defer m.Close()
	if _, err := m.Subscribe("s", nil); err == nil {
		t.Error("nil channel accepted")
	}
}

func TestMarshalEventSummarisesBytes(t *testing.T) {
	ev := Event{Sensor: "S", Seq: 7, Element: nElem(t, 1234, 42)}
	data, err := MarshalEvent(ev)
	if err != nil {
		t.Fatal(err)
	}
	var decoded EventJSON
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Sensor != "S" || decoded.Seq != 7 || decoded.Timestamp != 1234 {
		t.Errorf("decoded = %+v", decoded)
	}
	if decoded.Values["TEMPERATURE"] != float64(42) {
		t.Errorf("temperature = %v", decoded.Values["TEMPERATURE"])
	}
	if decoded.Values["IMG"] != "<3 bytes>" {
		t.Errorf("img = %v", decoded.Values["IMG"])
	}
}

func TestChanChannel(t *testing.T) {
	ch := NewChanChannel(2)
	ev := Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 1)}
	if err := ch.Deliver(ev); err != nil {
		t.Fatal(err)
	}
	if err := ch.Deliver(ev); err != nil {
		t.Fatal(err)
	}
	if err := ch.Deliver(ev); err == nil {
		t.Error("full channel accepted delivery")
	}
	<-ch.C
	ch.Close()
	if _, open := <-ch.C; !open {
		// one event was still buffered; after reading it the channel
		// reports closed
	}
}

func TestLogChannel(t *testing.T) {
	var buf bytes.Buffer
	ch := NewLogChannel(&buf)
	if err := ch.Deliver(Event{Sensor: "S", Seq: 3, Element: nElem(t, 1, 9)}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "notify S #3") || !strings.Contains(out, "TEMPERATURE") {
		t.Errorf("log line = %q", out)
	}
}

func TestFileChannel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	ch, err := NewFileChannel(path)
	if err != nil {
		t.Fatal(err)
	}
	ch.Deliver(Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 5)})
	ch.Deliver(Event{Sensor: "S", Seq: 2, Element: nElem(t, 2, 6)})
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("file has %d lines", len(lines))
	}
	var decoded EventJSON
	if err := json.Unmarshal([]byte(lines[1]), &decoded); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if decoded.Seq != 2 {
		t.Errorf("seq = %d", decoded.Seq)
	}
}

func TestWebhookChannel(t *testing.T) {
	var mu sync.Mutex
	var bodies []EventJSON
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev EventJSON
		json.NewDecoder(r.Body).Decode(&ev)
		mu.Lock()
		bodies = append(bodies, ev)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	ch := NewWebhookChannel(srv.URL)
	if err := ch.Deliver(Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 77)}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 || bodies[0].Values["TEMPERATURE"] != float64(77) {
		t.Errorf("webhook bodies = %+v", bodies)
	}
}

func TestWebhookChannelErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()
	ch := NewWebhookChannel(srv.URL)
	if err := ch.Deliver(Event{Sensor: "S", Seq: 1, Element: nElem(t, 1, 1)}); err == nil {
		t.Error("5xx response not reported as delivery failure")
	}
}

// TestDeliveryAllocsNothing: once a subscription runs, publishing an
// event and delivering it to a FuncChannel that allocates nothing
// allocates nothing either: no retry Backoff on a first-attempt
// success, no closure per event.
func TestDeliveryAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := testManager()
	defer m.Close()
	got := make(chan struct{}, 1)
	if _, err := m.Subscribe("S", FuncChannel{Fn: func(Event) error {
		got <- struct{}{}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	e := nElem(t, 1, 1)
	m.Publish("S", e) // creates the sensor's sequence counter
	<-got
	if n := testing.AllocsPerRun(100, func() {
		m.Publish("S", e)
		<-got
	}); n != 0 {
		t.Fatalf("publish + delivery allocates %.1f times per event", n)
	}
}
