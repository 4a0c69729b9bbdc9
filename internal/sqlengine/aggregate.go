package sqlengine

import (
	"fmt"
	"math"
	"math/bits"

	"gsn/internal/stream"
)

// aggKind enumerates the supported aggregate functions. FIRST and LAST
// are stream-oriented extensions (value of the earliest/latest row in
// the group by arrival order) that GSN-style continuous queries use to
// pick representative readings.
type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
	aggStddev
	aggFirst
	aggLast
)

var aggKinds = map[string]aggKind{
	"COUNT":  aggCount,
	"SUM":    aggSum,
	"AVG":    aggAvg,
	"MIN":    aggMin,
	"MAX":    aggMax,
	"STDDEV": aggStddev,
	"FIRST":  aggFirst,
	"LAST":   aggLast,
}

// IsAggregateFunc reports whether name (upper-case) is an aggregate.
func IsAggregateFunc(name string) bool {
	_, ok := aggKinds[name]
	return ok
}

// aggState accumulates one aggregate over a group's rows. Every tier
// uses it: the interpreter and the bound programs fold rows with add,
// federation ships it as an AggPartial, and the incremental maintainer
// additionally evicts expired inputs, so all of them finalise through
// the same result. The numeric contract, defined here once:
//
//   - integer inputs accumulate into an exact two-word sum; SUM over
//     integers returns its low 64 bits (two's-complement wrap at
//     int64), AVG converts the exact sum to float once, then divides;
//   - float inputs keep their own running float sum, which drifts
//     under subtract-on-evict until the owner resyncs
//     (resyncFloatEvery).
type aggState struct {
	kind     aggKind
	distinct bool
	seen     map[string]bool // distinct keys, lazily allocated

	count  int64  // non-NULL inputs (all rows for COUNT(*))
	nFloat int64  // float inputs among them
	isum   int128 // exact sum of the integer inputs
	fsum   float64
	sumSq  float64
	min    stream.Value
	max    stream.Value
	first  stream.Value
	last   stream.Value

	// win is the sliding-window bookkeeping of a maintainer-owned MIN or
	// MAX state; nil in the scanning tiers.
	win *slideWin
}

// slideWin keeps a maintained MIN/MAX current under eviction: the
// classic monotonic deque of the live inputs that can still become the
// extreme, each tagged with its position among the state's non-NULL
// inputs. Inputs expire oldest first, so the evicted one is at position
// evicted and the deque front holds the oldest live extreme.
type slideWin struct {
	evicted uint64
	deque   ring[seqValue]
}

// seqValue is one deque entry: the input's position and value.
type seqValue struct {
	seq uint64
	v   stream.Value
}

// ring is a double-ended queue over a circular buffer. It grows by
// doubling only when full and keeps its storage as entries leave, so a
// window sliding in steady state reuses it and allocates nothing.
type ring[T any] struct {
	buf  []T // len is 0 or a power of two
	head int // index of the front entry
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) front() T { return r.buf[r.head] }

func (r *ring[T]) back() T { return r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// popFront and popBack zero the vacated slot so the buffer pins no
// evicted value.
func (r *ring[T]) popFront() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *ring[T]) popBack() {
	var zero T
	r.n--
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = zero
}

// reset empties the ring and keeps its storage.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// int128 is an exact two's-complement sum of int64 values.
type int128 struct {
	hi int64
	lo uint64
}

func (s *int128) add(x int64) {
	var c uint64
	s.lo, c = bits.Add64(s.lo, uint64(x), 0)
	s.hi += x>>63 + int64(c)
}

func (s *int128) sub(x int64) {
	var b uint64
	s.lo, b = bits.Sub64(s.lo, uint64(x), 0)
	s.hi -= x>>63 + int64(b)
}

func (s *int128) merge(o int128) {
	var c uint64
	s.lo, c = bits.Add64(s.lo, o.lo, 0)
	s.hi += o.hi + int64(c)
}

// float converts the sum with a single rounding.
func (s int128) float() float64 {
	if s.hi == int64(s.lo)>>63 {
		return float64(int64(s.lo)) // fits int64
	}
	hi, lo := uint64(s.hi), s.lo
	neg := s.hi < 0
	if neg {
		var b uint64
		lo, b = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, b)
	}
	// Keep the top 64 significant bits and fold the shifted-out ones
	// into a sticky bit, so the float64 conversion rounds exactly once.
	n := uint(bits.Len64(hi))
	top := hi<<(64-n) | lo>>n
	if lo<<(64-n) != 0 {
		top |= 1
	}
	f := math.Ldexp(float64(top), int(n))
	if neg {
		return -f
	}
	return f
}

// add feeds one input value (already evaluated). For COUNT(*) callers
// pass a non-nil sentinel.
func (a *aggState) add(v stream.Value) error {
	if v == nil {
		// SQL aggregates ignore NULL inputs (COUNT(*) never routes here
		// with nil).
		return nil
	}
	if a.distinct {
		key := encodeRowKey([]stream.Value{v})
		if a.seen == nil {
			a.seen = make(map[string]bool)
		}
		if a.seen[key] {
			return nil
		}
		a.seen[key] = true
	}
	switch a.kind {
	case aggCount:
	case aggFirst:
		if a.count == 0 {
			a.first = v
		}
	case aggLast:
		a.last = v
	case aggMin, aggMax:
		if err := a.extreme(v); err != nil {
			return err
		}
	default: // SUM, AVG, STDDEV need numbers
		switch x := v.(type) {
		case int64:
			a.isum.add(x)
			a.sumSq += float64(x) * float64(x)
		case float64:
			a.nFloat++
			a.fsum += x
			a.sumSq += x * x
		default:
			return fmt.Errorf("sqlengine: %v aggregate over non-numeric value %T", a.kind, v)
		}
	}
	a.count++
	return nil
}

// extreme folds v into MIN/MAX: by comparison in a scan, through the
// monotonic deque (pop every back v strictly beats) when sliding. Both
// keep the oldest of equal extremes, so values that compare equal but
// differ (-0.0 and +0.0) come out the same from either tier.
func (a *aggState) extreme(v stream.Value) error {
	want := -1 // MIN wants smaller
	cur := &a.min
	if a.kind == aggMax {
		want, cur = 1, &a.max
	}
	if w := a.win; w != nil {
		for w.deque.len() > 0 {
			c, _, err := compare(v, w.deque.back().v)
			if err != nil {
				return err
			}
			if c != want {
				break
			}
			w.deque.popBack()
		}
		w.deque.pushBack(seqValue{seq: w.evicted + uint64(a.count), v: v})
		*cur = w.deque.front().v
		return nil
	}
	if *cur == nil {
		*cur = v
		return nil
	}
	c, ok, err := compare(v, *cur)
	if err != nil {
		return err
	}
	if ok && c == want {
		*cur = v
	}
	return nil
}

// evict removes one input that add folded earlier. Inputs must expire
// in the order they were added, as a sliding window's do, and only the
// kinds a maintainer keeps (COUNT, SUM, AVG, MIN, MAX, LAST; never
// DISTINCT) are evictable: the fields those kinds finalise from stay
// current. LAST needs no bookkeeping: the newest input expires last.
// A state emptied by eviction resets exactly, float drift included.
func (a *aggState) evict(v stream.Value) error {
	if v == nil {
		return nil
	}
	switch a.kind {
	case aggSum, aggAvg:
		switch x := v.(type) {
		case int64:
			a.isum.sub(x)
		case float64:
			a.nFloat--
			a.fsum -= x
		default:
			return fmt.Errorf("sqlengine: %v aggregate over non-numeric value %T", a.kind, v)
		}
	case aggMin, aggMax:
		w := a.win
		if w.deque.len() > 0 && w.deque.front().seq == w.evicted {
			w.deque.popFront()
		}
		w.evicted++
	}
	a.count--
	switch w := a.win; {
	case a.count == 0:
		*a = aggState{kind: a.kind, win: w}
		if w != nil {
			w.evicted = 0
			w.deque.reset()
		}
	case a.kind == aggMin:
		a.min = w.deque.front().v
	case a.kind == aggMax:
		a.max = w.deque.front().v
	}
	return nil
}

// total is the rounded sum of every numeric input: the exact integer
// sum converted once, plus the float sum.
func (a *aggState) total() float64 {
	switch a.nFloat {
	case 0:
		return a.isum.float()
	case a.count:
		return a.fsum
	}
	return a.isum.float() + a.fsum
}

// result finalises the aggregate. Empty groups yield COUNT=0 and NULL
// for the others, per SQL.
func (a *aggState) result() stream.Value {
	switch a.kind {
	case aggCount:
		return a.count
	case aggMin:
		return a.min
	case aggMax:
		return a.max
	case aggFirst:
		return a.first
	case aggLast:
		return a.last
	}
	if a.count == 0 { // SUM, AVG, STDDEV
		return nil
	}
	switch a.kind {
	case aggSum:
		if a.nFloat == 0 {
			return int64(a.isum.lo) // the int64 wrap of the exact sum
		}
		return a.total()
	case aggAvg:
		return a.total() / float64(a.count)
	default: // STDDEV
		mean := a.total() / float64(a.count)
		variance := a.sumSq/float64(a.count) - mean*mean
		if variance < 0 {
			variance = 0 // numeric noise
		}
		return math.Sqrt(variance)
	}
}
