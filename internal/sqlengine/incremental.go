package sqlengine

import (
	"sort"
	"sync"

	"gsn/internal/stream"
)

// AggMaintainer incrementally maintains an aggregate-only plan —
// SELECT [key...,] agg(col)... FROM w [GROUP BY key...] (see
// IncProgram) — over a sliding count window, so the dominant trigger
// shapes cost O(keys + aggregates) per arrival instead of O(window) per
// evaluation. Each group holds one aggState per aggregate, the same
// accumulator every other tier folds with, and evicts expired inputs
// from it. It implements storage.Observer: the table invokes
// OnInsert/OnEvict/OnTruncate under its own lock and in arrival (FIFO)
// order; Result is called from the trigger workers, so the maintainer
// carries its own mutex.
//
// Without GROUP BY the one group is held directly (no key hashing) and
// Result is its one row — COUNT 0 and NULLs over an empty window. With
// GROUP BY, groups hash on the encoded key vector and each keeps a FIFO
// of its live rows' arrival sequences, so group membership and the
// first-seen output order the interpreter produces survive eviction
// exactly; Result is O(output), and an empty window yields no rows.
//
// A value an aggregate cannot digest (non-numeric SUM input,
// incomparable MIN operands) poisons the maintainer: Result returns nil
// from then on and the caller falls back to full plan execution, which
// reports the error through the normal path.
//
// Result projects each group's key values as captured when the group
// was first seen, while a window rescan projects the oldest live
// row's. The two can differ only when distinct key representations
// compare equal — float -0.0 vs +0.0 — so callers wanting byte identity
// with the scanning tiers must not attach a maintainer to a plan whose
// group keys are float columns (the container enforces that).
type AggMaintainer struct {
	prog *IncProgram

	mu      sync.Mutex
	single  *incGroup            // the group of a program without keys
	groups  map[string]*incGroup // keyed programs: live groups by encoded key
	broken  bool
	seq     uint64         // next insert sequence number (keyed programs)
	keysBuf []stream.Value // scratch key vector, guarded by mu
	keyBuf  []byte         // scratch encoded key, guarded by mu

	// floatEvicts counts evicted float SUM/AVG inputs since the last
	// rebuild. Subtract-on-evict float maintenance accumulates rounding
	// error (and can be corrupted outright by catastrophic absorption
	// when magnitudes differ wildly), so after resyncFloatEvery such
	// evictions NeedsResync reports true and the owner rebuilds the
	// state from the live window (storage.Table.SetObserver replays it).
	floatEvicts uint64
}

// resyncFloatEvery bounds float SUM/AVG drift: one O(window) rebuild
// per this many evicted float inputs keeps amortised maintenance O(1).
const resyncFloatEvery = 65536

// incGroup is the live state of one group-key vector.
type incGroup struct {
	keys   []stream.Value // the group's key values, in GROUP BY order
	seqs   ring[uint64]   // arrival sequences of the live rows (FIFO); keyed programs only
	states []aggState
}

// newGroup allocates a group's accumulators; sliding ones can evict.
func (prog *IncProgram) newGroup(keys []stream.Value, sliding bool) *incGroup {
	g := &incGroup{keys: keys, states: make([]aggState, len(prog.aggs))}
	for i, a := range prog.aggs {
		g.states[i].kind = a.kind
		if sliding && (a.kind == aggMin || a.kind == aggMax) {
			g.states[i].win = &slideWin{}
		}
	}
	return g
}

// fold adds one element's aggregate inputs to the group's states, or
// evicts them. It returns how many float SUM/AVG inputs it evicted: the
// drift NeedsResync bounds.
func (prog *IncProgram) fold(g *incGroup, e stream.Element, evict bool) (floatEvicts uint64, err error) {
	for i, a := range prog.aggs {
		var v stream.Value = int64(1) // COUNT(*) counts rows, NULLs included
		if a.col >= 0 {
			v = inputValue(e, a.col)
		}
		if !evict {
			err = g.states[i].add(v)
		} else if err = g.states[i].evict(v); err == nil {
			if _, isFloat := v.(float64); (a.kind == aggSum || a.kind == aggAvg) && isFloat {
				floatEvicts++
			}
		}
		if err != nil {
			return 0, err
		}
	}
	return floatEvicts, nil
}

// relation projects the groups, in order, into the output layout.
func (prog *IncProgram) relation(groups []*incGroup) *Relation {
	rows := make([][]stream.Value, len(groups))
	for r, g := range groups {
		row := make([]stream.Value, len(prog.proj))
		for i, slot := range prog.proj {
			if slot.key {
				row[i] = g.keys[slot.idx]
			} else {
				row[i] = g.states[slot.idx].result()
			}
		}
		rows[r] = row
	}
	return &Relation{Cols: prog.cols, Rows: rows}
}

// inputValue extracts an input column from an element, mapping the
// implicit TIMED column (index == element length) to the timestamp.
func inputValue(e stream.Element, col int) stream.Value {
	if col == e.Len() {
		return int64(e.Timestamp())
	}
	return e.Value(col)
}

// NewAggMaintainer builds a maintainer for a plan's incremental program
// (Plan.Incremental).
func NewAggMaintainer(prog *IncProgram) *AggMaintainer {
	m := &AggMaintainer{prog: prog, keysBuf: make([]stream.Value, len(prog.Keys))}
	m.reset()
	return m
}

// reset empties the maintained state (callers hold mu, or own m).
func (m *AggMaintainer) reset() {
	if len(m.prog.Keys) == 0 {
		m.single = m.prog.newGroup(nil, true)
	} else {
		m.groups = make(map[string]*incGroup)
	}
	m.seq = 0
	m.broken = false
	m.floatEvicts = 0
}

// encodeGroupKey fills the scratch key vector from the element and
// encodes it into the scratch byte buffer (callers hold mu). Lookups
// via groups[string(m.keyBuf)] compile without a string allocation —
// these run per element on the ingest path, under the table lock — so
// the key string is materialised only on first sight of a group.
func (m *AggMaintainer) encodeGroupKey(e stream.Element) {
	for i, col := range m.prog.Keys {
		m.keysBuf[i] = inputValue(e, col)
	}
	m.keyBuf = appendRowKey(m.keyBuf[:0], m.keysBuf)
}

// OnInsert implements storage.Observer.
func (m *AggMaintainer) OnInsert(e stream.Element) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken {
		return
	}
	g := m.single
	if g == nil {
		m.encodeGroupKey(e)
		if g = m.groups[string(m.keyBuf)]; g == nil {
			g = m.prog.newGroup(append([]stream.Value(nil), m.keysBuf...), true)
			m.groups[string(m.keyBuf)] = g
		}
		g.seqs.pushBack(m.seq)
		m.seq++
	}
	if _, err := m.prog.fold(g, e, false); err != nil {
		m.broken = true
	}
}

// OnEvict implements storage.Observer. The table evicts in arrival
// order, so the evicted element is always its group's oldest live row.
func (m *AggMaintainer) OnEvict(e stream.Element) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken {
		return
	}
	g := m.single
	if g == nil {
		m.encodeGroupKey(e)
		if g = m.groups[string(m.keyBuf)]; g == nil {
			// An eviction we never saw inserted: the observer was
			// attached mid-window without a replay. Poison rather than
			// drift.
			m.broken = true
			return
		}
		if g.seqs.popFront(); g.seqs.len() == 0 {
			delete(m.groups, string(m.keyBuf))
		}
	}
	n, err := m.prog.fold(g, e, true)
	m.floatEvicts += n
	if err != nil {
		m.broken = true
	}
}

// OnTruncate implements storage.Observer: the window was cleared, so
// every aggregate restarts empty.
func (m *AggMaintainer) OnTruncate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reset()
}

// NeedsResync reports that enough float inputs have been subtracted
// out that accumulated rounding error warrants rebuilding the state
// from the live window (re-attach with SetObserver, which replays it).
func (m *AggMaintainer) NeedsResync() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.floatEvicts >= resyncFloatEvery
}

// Result builds the maintained relation — without GROUP BY its one
// row, with GROUP BY one row per live group ordered by each group's
// oldest live row (exactly the first-seen order a window scan
// produces) — or nil when the maintainer is poisoned and the caller
// must fall back to full execution.
func (m *AggMaintainer) Result() *Relation {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken {
		return nil
	}
	if m.single != nil {
		return m.prog.relation([]*incGroup{m.single})
	}
	ordered := make([]*incGroup, 0, len(m.groups))
	for _, g := range m.groups {
		ordered = append(ordered, g)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seqs.front() < ordered[j].seqs.front() })
	return m.prog.relation(ordered)
}
