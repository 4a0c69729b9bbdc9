package sqlengine

import (
	"fmt"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// This file is the distributed-aggregation surface of the engine: a
// grouped statement whose aggregate states are mergeable can run as
// per-node partial rollups (WHERE + GROUP BY fold, node-side) that a
// coordinator merges and finalises (HAVING, projection, ORDER BY,
// LIMIT — merge-side). The fold and finalize are the same code paths
// runSimple uses (foldGroups / projectGroups in exec.go), so a
// federated execution is byte-identical to a single-node interpreted
// execution over the union of the nodes' rows folded in part order —
// which PR 5's equivalence suite pins byte-identical to the compiled
// tiers.
//
// Integer SUM/AVG merge exactly (the two-word sums add), so a
// federated integer aggregate equals the single-node one. Float
// SUM/AVG/STDDEV merge as (Σ part₀) + (Σ part₁), which equals the
// union's left-fold only when the additions are exact (integers,
// dyadic fractions); for general floats the distributed result is the
// usual floating-point re-association, not a bit-for-bit replay — the
// same bounded drift the incremental tier's subtract-on-evict float
// sums carry.

// AggPartial is one aggregate accumulator's mergeable snapshot — the
// wire form of aggState. Count, the two-word integer sum
// (IntHi:IntLo), Floats, FloatSum and SumSq merge additively, Min/Max
// by comparison, First/Last by part order. DISTINCT aggregates have no
// mergeable form (their dedup sets live node-side); Distributable
// excludes them.
type AggPartial struct {
	Count    int64            `json:"count"`
	IntHi    int64            `json:"int_hi"`
	IntLo    uint64           `json:"int_lo"`
	Floats   int64            `json:"floats"`
	FloatSum float64          `json:"float_sum"`
	SumSq    float64          `json:"sum_sq"`
	Min      stream.WireValue `json:"min"`
	Max      stream.WireValue `json:"max"`
	First    stream.WireValue `json:"first"`
	Last     stream.WireValue `json:"last"`
}

// GroupPartial is one group's contribution from one node: the encoded
// group key (raw bytes — the key encoding is binary, not UTF-8), the
// representative row (first row of the group on that node; HAVING and
// the projection may read non-key columns from it), and one AggPartial
// per aggregate call in statement order.
type GroupPartial struct {
	Key  []byte             `json:"key"`
	Rep  []stream.WireValue `json:"rep"`
	Aggs []AggPartial       `json:"aggs"`
}

// PartialRollup is one node's full partial result: groups in
// first-seen order plus the number of input rows that survived WHERE
// (the raw-stream volume a coordinator avoided shipping).
type PartialRollup struct {
	Groups []GroupPartial `json:"groups"`
	Rows   int            `json:"rows"`
}

// partial snapshots the accumulator for shipping.
func (a *aggState) partial() AggPartial {
	return AggPartial{
		Count:    a.count,
		IntHi:    a.isum.hi,
		IntLo:    a.isum.lo,
		Floats:   a.nFloat,
		FloatSum: a.fsum,
		SumSq:    a.sumSq,
		Min:      stream.WrapValue(a.min),
		Max:      stream.WrapValue(a.max),
		First:    stream.WrapValue(a.first),
		Last:     stream.WrapValue(a.last),
	}
}

// mergePartial folds one shipped snapshot into the accumulator. Merge
// order is the coordinator's part order, which defines FIRST/LAST
// semantics exactly as a union concatenated in that order would.
func (a *aggState) mergePartial(p AggPartial) error {
	if a.distinct {
		return fmt.Errorf("sqlengine: DISTINCT aggregate state is not mergeable")
	}
	if p.Count > 0 {
		if a.count == 0 {
			a.first = p.First.V
		}
		a.last = p.Last.V
	}
	a.count += p.Count
	a.isum.merge(int128{hi: p.IntHi, lo: p.IntLo})
	a.nFloat += p.Floats
	a.fsum += p.FloatSum
	a.sumSq += p.SumSq
	switch {
	case a.kind == aggMin && p.Min.V != nil:
		return a.extreme(p.Min.V)
	case a.kind == aggMax && p.Max.V != nil:
		return a.extreme(p.Max.V)
	}
	return nil
}

// Distributable reports whether the plan can run as partial rollups
// merged on a coordinator: a grouped statement whose aggregates all
// have mergeable states, with no DISTINCT aggregates, no subqueries
// (they would re-resolve tables per node) and no NOW() (node clocks
// diverge). Ungrouped statements ship rows, not states — routing or
// union handles those.
func (p *Plan) Distributable() bool {
	sp := p.sp
	if !sp.grouped {
		return false
	}
	for _, a := range sp.aggs {
		if a.Distinct {
			return false
		}
		if _, ok := aggKinds[a.Name]; !ok {
			return false
		}
	}
	if hasSubquery(sp.stmt) {
		return false
	}
	return !Volatile(sp.stmt)
}

// evaluatorFor builds the interpreted evaluator the partial paths
// share, with the plan's base tables bound to the given rows.
func (p *Plan) evaluatorFor(rows [][]stream.Value, opts Options) *evaluator {
	if opts.Clock == nil {
		opts.Clock = stream.SystemClock()
	}
	if opts.MaxRows <= 0 {
		opts.MaxRows = defaultMaxRows
	}
	cat := make(MapCatalog, len(p.names))
	view := &Relation{Cols: p.bareCols, Rows: rows}
	for _, n := range p.names {
		cat[n] = view
	}
	return &evaluator{cat: cat, opts: opts, clock: opts.Clock}
}

// ExecutePartial runs the node-side half of a distributed execution
// over the local window rows: WHERE filter, GROUP BY fold, snapshot.
// It never synthesises the aggregate-only empty row — only the
// coordinator knows whether every partition was empty.
func (p *Plan) ExecutePartial(rows [][]stream.Value, opts Options) (*PartialRollup, error) {
	ev := p.evaluatorFor(rows, opts)
	src := &Relation{Cols: p.inCols, Rows: rows}
	kept, err := ev.filterWhere(p.sp, src, nil)
	if err != nil {
		return nil, err
	}
	groups, order, err := ev.foldGroups(p.sp.stmt, src, kept, p.sp.aggs, nil)
	if err != nil {
		return nil, err
	}
	out := &PartialRollup{Rows: len(kept)}
	for _, key := range order {
		g := groups[key]
		gp := GroupPartial{
			Key:  []byte(key),
			Rep:  stream.WrapRow(g.rep),
			Aggs: make([]AggPartial, len(g.states)),
		}
		for i, st := range g.states {
			gp.Aggs[i] = st.partial()
		}
		out.Groups = append(out.Groups, gp)
	}
	return out, nil
}

// MergePartials runs the coordinator half: merge the parts' group
// states in part order (group output order is first-seen across parts,
// matching a union concatenated in the same order), synthesise the
// aggregate-only empty row if every part was empty, then finalise —
// HAVING, projection, DISTINCT, ORDER BY, LIMIT/OFFSET — exactly as
// Plan.Execute's interpreted tail does. nil parts are skipped (an
// owner that contributed nothing).
func (p *Plan) MergePartials(parts []*PartialRollup, opts Options) (*Relation, error) {
	ev := p.evaluatorFor(nil, opts)
	groups := make(map[string]*group)
	var order []string
	for _, part := range parts {
		if part == nil {
			continue
		}
		for _, gp := range part.Groups {
			if len(gp.Aggs) != len(p.sp.aggs) {
				return nil, fmt.Errorf("sqlengine: partial rollup carries %d aggregate states, plan has %d",
					len(gp.Aggs), len(p.sp.aggs))
			}
			key := string(gp.Key)
			g, ok := groups[key]
			if !ok {
				g = newGroup(stream.UnwrapRow(gp.Rep), p.sp.aggs)
				groups[key] = g
				order = append(order, key)
			}
			for i := range gp.Aggs {
				if err := g.states[i].mergePartial(gp.Aggs[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(groups) == 0 && len(p.sp.stmt.GroupBy) == 0 {
		groups[""] = newGroup(make([]stream.Value, len(p.inCols)), p.sp.aggs)
		order = append(order, "")
	}

	src := &Relation{Cols: p.inCols}
	pr := newProjector(ev, p.sp)
	if err := ev.projectGroups(p.sp.stmt, src, groups, order, p.sp.aggs, nil, pr.project); err != nil {
		return nil, err
	}
	rel, sortKeys := pr.finish()
	if len(p.sp.stmt.OrderBy) > 0 && sortKeys != nil {
		sortRelation(rel, sortKeys, p.sp.stmt.OrderBy)
	}
	if err := ev.applyLimitOffset(rel, p.sp.stmt, nil); err != nil {
		return nil, err
	}
	return rel, nil
}

// hasSubquery reports whether the statement contains a subquery in any
// position (expression, FROM, compound arm).
func hasSubquery(stmt *sqlparser.SelectStatement) bool {
	for s := stmt; s != nil; {
		if subqueryCore(s) {
			return true
		}
		if s.Compound == nil {
			return false
		}
		s = s.Compound.Right
	}
	return false
}

func subqueryCore(s *sqlparser.SelectStatement) bool {
	for _, c := range s.Columns {
		if !c.Star && subqueryExpr(c.Expr) {
			return true
		}
	}
	for _, f := range s.From {
		if subqueryTableRef(f) {
			return true
		}
	}
	if subqueryExpr(s.Where) || subqueryExpr(s.Having) ||
		subqueryExpr(s.Limit) || subqueryExpr(s.Offset) {
		return true
	}
	for _, g := range s.GroupBy {
		if subqueryExpr(g) {
			return true
		}
	}
	for _, o := range s.OrderBy {
		if subqueryExpr(o.Expr) {
			return true
		}
	}
	return false
}

func subqueryTableRef(ref sqlparser.TableRef) bool {
	switch t := ref.(type) {
	case *sqlparser.SubqueryRef:
		return true
	case *sqlparser.JoinRef:
		return subqueryTableRef(t.Left) || subqueryTableRef(t.Right) || subqueryExpr(t.On)
	}
	return false
}

func subqueryExpr(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *sqlparser.Subquery, *sqlparser.ExistsExpr:
		return true
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			if subqueryExpr(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return subqueryExpr(x.L) || subqueryExpr(x.R)
	case *sqlparser.UnaryExpr:
		return subqueryExpr(x.X)
	case *sqlparser.BetweenExpr:
		return subqueryExpr(x.X) || subqueryExpr(x.Lo) || subqueryExpr(x.Hi)
	case *sqlparser.LikeExpr:
		return subqueryExpr(x.X) || subqueryExpr(x.Pattern)
	case *sqlparser.IsNullExpr:
		return subqueryExpr(x.X)
	case *sqlparser.InExpr:
		if x.Select != nil {
			return true
		}
		if subqueryExpr(x.X) {
			return true
		}
		for _, it := range x.List {
			if subqueryExpr(it) {
				return true
			}
		}
	case *sqlparser.CaseExpr:
		if x.Operand != nil && subqueryExpr(x.Operand) {
			return true
		}
		for _, w := range x.Whens {
			if subqueryExpr(w.Cond) || subqueryExpr(w.Then) {
				return true
			}
		}
		if x.Else != nil {
			return subqueryExpr(x.Else)
		}
	case *sqlparser.CastExpr:
		return subqueryExpr(x.X)
	}
	return false
}
