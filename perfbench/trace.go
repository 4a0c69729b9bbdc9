package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, in nanoseconds since the run's
// epoch. id links the spans of one request: the element key (source,
// seq) on the data path, the query number on the query path.
type span struct {
	layer      string
	id         uint64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; a nil *tracer records nothing, which is
// the untraced configuration the end-to-end metrics are measured in.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// now is the monotonic time since the run's epoch, in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(layer string, id uint64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, id: id, start: start, end: end})
	t.mu.Unlock()
}

// byLayer returns the recorded spans of one layer, ordered by start.
func (t *tracer) byLayer(layer string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.layer == layer {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// write dumps every span as CSV (layer,id,start_ns,end_ns) under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,id,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", s.layer, s.id, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTime is the part of parent's interval that none of children
// covers. Children may overlap each other and stick out of the parent;
// only their union inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// selfTimes applies selfTime to every parent, taking as children the
// spans of sorted (ordered by start) that overlap it.
func selfTimes(parents, sorted []span) []int64 {
	var longest int64
	for _, s := range sorted {
		longest = max(longest, s.dur())
	}
	out := make([]int64, len(parents))
	var kids []span
	for i, p := range parents {
		// Children starting at or after the parent's end cannot overlap
		// it, nor can one starting more than the longest child duration
		// before the parent starts.
		j := sort.Search(len(sorted), func(k int) bool { return sorted[k].start >= p.end })
		kids = kids[:0]
		for k := j - 1; k >= 0 && sorted[k].start >= p.start-longest; k-- {
			if sorted[k].end > p.start {
				kids = append(kids, sorted[k])
			}
		}
		out[i] = selfTime(p, kids)
	}
	return out
}
