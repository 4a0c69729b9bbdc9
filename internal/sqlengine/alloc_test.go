package sqlengine

import (
	"math/rand"
	"testing"

	"gsn/internal/stream"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAggMaintainerSlidingAllocsNothing: once a maintained window has
// slid through its input cycle, OnInsert/OnEvict reuse the MIN/MAX
// deques and the grouped FIFOs, for ungrouped and grouped programs.
func TestAggMaintainerSlidingAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const window, cycle = 32, 256
	rng := rand.New(rand.NewSource(5))
	elems := make([]stream.Element, cycle)
	for i := range elems {
		// v cycles through five keys, so every group of the grouped
		// program stays live once the window has filled.
		e, err := stream.NewElement(planSchema, stream.Timestamp(i+1),
			int64(i%5), rng.Float64()*100-50)
		if err != nil {
			t.Fatal(err)
		}
		elems[i] = e
	}
	for _, q := range []string{
		"select min(v) as mn, max(v) as mx, min(f) as mnf, max(f) as mxf, count(*) as n from w",
		"select v, min(f) as mn, max(f) as mx, count(*) as n, sum(f) as s from w group by v",
	} {
		prog := compileIncremental(t, q)
		if prog == nil {
			t.Fatalf("%s: not incrementally maintainable", q)
		}
		m := NewAggMaintainer(prog)
		i := 0
		step := func() {
			m.OnInsert(elems[i%cycle])
			if i >= window {
				m.OnEvict(elems[(i-window)%cycle])
			}
			i++
		}
		// One full cycle reaches every window state the measured steps
		// revisit, so every ring has reached its largest size.
		for i < window+2*cycle {
			step()
		}
		// AllocsPerRun truncates its average to an integer, so each run
		// covers a whole cycle: one allocation in it fails the test.
		if n := testing.AllocsPerRun(4, func() {
			for k := 0; k < cycle; k++ {
				step()
			}
		}); n != 0 {
			t.Errorf("%s: %.0f allocations per %d inserts+evicts", q, n, cycle)
		}
		if m.Result() == nil {
			t.Fatalf("%s: maintainer poisoned", q)
		}
	}
}
