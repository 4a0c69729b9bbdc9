package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestBackoffEscalatesToCap(t *testing.T) {
	bo := NewBackoff(10*time.Millisecond, 100*time.Millisecond, 1)
	first := bo.Next()
	if first != 10*time.Millisecond {
		t.Fatalf("first delay = %v, want base", first)
	}
	prev := first
	grew := false
	for i := 0; i < 50; i++ {
		d := bo.Next()
		if d < 10*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("delay %v outside [base, cap]", d)
		}
		if d > prev {
			grew = true
		}
		prev = d
	}
	if !grew {
		t.Error("delays never escalated past the base")
	}
}

func TestBackoffSuccessSettles(t *testing.T) {
	bo := NewBackoff(time.Millisecond, time.Second, 7)
	for i := 0; i < 10; i++ {
		bo.Next()
	}
	if bo.Current() == 0 {
		t.Fatal("escalation did not advance")
	}
	if !bo.Success() {
		t.Fatal("single success should settle with default settle-after")
	}
	if bo.Current() != 0 {
		t.Errorf("current = %v after settle, want 0", bo.Current())
	}
	if bo.Next() != time.Millisecond {
		t.Error("settled backoff should restart at base")
	}
}

func TestBackoffSettleAfterRequiresStreak(t *testing.T) {
	bo := NewBackoff(time.Millisecond, time.Second, 3)
	bo.SetSettleAfter(3)
	for i := 0; i < 5; i++ {
		bo.Next()
	}
	if bo.Success() || bo.Success() {
		t.Fatal("settled before the streak completed")
	}
	if !bo.Success() {
		t.Fatal("third consecutive success should settle")
	}
	// A failure interrupts the streak.
	bo.Next()
	bo.Next()
	bo.Success()
	bo.Success()
	bo.Next() // interrupts
	if bo.Success() || bo.Success() {
		t.Error("streak survived an interleaved failure")
	}
}

func TestBackoffSuccessWhenSettledIsNoop(t *testing.T) {
	bo := NewBackoff(time.Millisecond, time.Second, 0)
	if bo.Success() {
		t.Error("settle reported while already settled")
	}
}

func TestDoStopsOnSuccess(t *testing.T) {
	calls := 0
	err := Do(nil, Policy{Base: time.Microsecond, MaxAttempts: 10}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do = %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestDoMaxAttempts(t *testing.T) {
	calls := 0
	want := errors.New("persistent")
	err := Do(nil, Policy{Base: time.Microsecond, MaxAttempts: 4}, func() error {
		calls++
		return want
	})
	if !errors.Is(err, want) {
		t.Fatalf("Do = %v, want the op's error", err)
	}
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
}

func TestDoBudgetBoundsSleep(t *testing.T) {
	calls := 0
	start := time.Now()
	err := Do(nil, Policy{Base: 20 * time.Millisecond, Budget: 30 * time.Millisecond}, func() error {
		calls++
		return errors.New("always")
	})
	if err == nil {
		t.Fatal("budget-bounded Do returned nil")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("Do slept %v, budget was 30ms", elapsed)
	}
	if calls < 1 || calls > 3 {
		t.Errorf("calls = %d, want 1-3 within a 30ms budget of 20ms delays", calls)
	}
}

func TestDoStopChannel(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	calls := 0
	err := Do(stop, Policy{Base: time.Hour}, func() error {
		calls++
		return errors.New("never succeeds")
	})
	if err == nil {
		t.Fatal("stopped Do returned nil")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (stop closed before any retry)", calls)
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(3, time.Second)
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("breaker shed before threshold (failure %d)", i)
		}
		b.Failure()
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after threshold failures", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an operation inside the cooldown")
	}
	if b.Opens() != 1 {
		t.Errorf("opens = %d, want 1", b.Opens())
	}

	// Cooldown elapses: exactly one probe per window.
	now = now.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v after cooldown", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second call in the same window")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Error("success did not close the breaker")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for state, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if state.String() != want {
			t.Errorf("%d.String() = %q, want %q", state, state.String(), want)
		}
	}
}

// TestDoDelaySequencePinned: Do under repeated failure waits the seeded
// decorrelated-jitter sequence, the same delays an up-front
// NewBackoff(base, cap, seed) hands out. Building the Backoff on the
// first failure must not change them.
func TestDoDelaySequencePinned(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want []time.Duration
	}{
		{Policy{Base: 10 * time.Millisecond, Cap: 400 * time.Millisecond, Seed: 42},
			[]time.Duration{10000000, 12319565, 11542499, 24963208, 15154884, 45281190, 78785314, 51322192}},
		// Cap defaults to 10*Base.
		{Policy{Base: time.Millisecond, Seed: 7},
			[]time.Duration{1000000, 2039507, 4171990, 1908527, 3540967, 5733824, 4724848, 9931327}},
	} {
		tc.p.MaxAttempts = len(tc.want) + 1
		var got []time.Duration
		calls := 0
		err := do(nil, tc.p, func() error { calls++; return errors.New("down") },
			func(_ <-chan struct{}, d time.Duration) bool { got = append(got, d); return true })
		if err == nil || calls != tc.p.MaxAttempts {
			t.Fatalf("%+v: err=%v after %d calls", tc.p, err, calls)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%+v: delays %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestDoSuccessAllocsNothing: a first-attempt success builds no Backoff.
func TestDoSuccessAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := Policy{Base: time.Millisecond, MaxAttempts: 3, Seed: 1}
	op := func() error { return nil }
	if n := testing.AllocsPerRun(100, func() {
		if err := Do(nil, p, op); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("successful Do allocates %.1f times per call", n)
	}
}
