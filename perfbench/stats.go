package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a median at least 20.
const minTail = 10

// quantile returns the nearest-rank p-quantile of sorted and whether at
// least minTail samples lie beyond it. An empty or too-small sample
// reports ok=false; callers print such a percentile as unavailable.
func quantile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minTail
}

// dist collects latency-like samples of one metric.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

func (d *dist) merge(o *dist) {
	d.xs = append(d.xs, o.xs...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.xs) }

// q is quantile over the collected samples.
func (d *dist) q(p float64) (float64, bool) {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return quantile(d.xs, p)
}

// median of a small set of values (set-up repeats); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// binned splits a phase's samples by time into equal bins. Its figures
// are medians over the bins of each bin's figure, so a disturbance that
// lasts a bin or two (a neighbour's burst on a shared machine, a GC
// storm) does not move them.
type binned struct {
	from, width int64 // ns
	bins        []dist
}

// newBinned covers [from, to) with n equal bins (at least one).
func newBinned(from, to int64, n int) *binned {
	n = max(n, 1)
	return &binned{from: from, width: max((to-from)/int64(n), 1), bins: make([]dist, n)}
}

// add files sample x taken at time t; times outside the phase go to
// the nearest bin.
func (b *binned) add(t int64, x float64) {
	i := (t - b.from) / b.width
	i = min(max(i, 0), int64(len(b.bins)-1))
	b.bins[i].add(x)
}

func (b *binned) n() int {
	total := 0
	for i := range b.bins {
		total += b.bins[i].n()
	}
	return total
}

// binStat is one bin's figures, kept after its samples are dropped.
type binStat struct {
	p50, p99   float64
	ok50, ok99 bool
	n          int
}

// stats summarises every bin.
func (b *binned) stats() []binStat {
	out := make([]binStat, len(b.bins))
	for i := range b.bins {
		st := &out[i]
		st.p50, st.ok50 = b.bins[i].q(0.5)
		st.p99, st.ok99 = b.bins[i].q(0.99)
		st.n = b.bins[i].n()
	}
	return out
}

// binQ is the median over bins of each bin's p50 (p=0.5) or p99. It is
// available only when every bin's percentile is.
func binQ(bins []binStat, p float64) (float64, bool) {
	if len(bins) == 0 {
		return 0, false
	}
	vals := make([]float64, 0, len(bins))
	for _, b := range bins {
		v, ok := b.p50, b.ok50
		if p != 0.5 {
			v, ok = b.p99, b.ok99
		}
		if !ok {
			return 0, false
		}
		vals = append(vals, v)
	}
	return median(vals), true
}

// binN is the sample count over all bins.
func binN(bins []binStat) int {
	n := 0
	for _, b := range bins {
		n += b.n
	}
	return n
}

// bins is how many bins of about width a phase of length d is split
// into.
func bins(d, width time.Duration) int {
	return max(1, int(math.Round(float64(d)/float64(width))))
}
