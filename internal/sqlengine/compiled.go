package sqlengine

import (
	"fmt"
	"strings"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Error constructors shared with the interpreter's wording, so the
// compiled tier fails with byte-identical messages.
func errUnaryMinus(v stream.Value) error {
	return fmt.Errorf("sqlengine: unary minus of %T", v)
}

func errLikeTypes(v, p stream.Value) error {
	return fmt.Errorf("sqlengine: LIKE wants strings, got %T and %T", v, p)
}

func errCast(err error) error { return fmt.Errorf("sqlengine: CAST: %w", err) }

func errTooManyRows(max int) error {
	return fmt.Errorf("sqlengine: result exceeds %d rows", max)
}

// This file is the compiled tier of Plan: expressions bound once, at
// compile time, against the plan's fixed column layout. The generic
// evaluator resolves every column reference by name for every row of
// every execution (scope chain → ColumnIndex → CanonicalName), which
// profiles as the dominant cost of interpreted query serving. A bound
// expression is a closure tree whose column references are row indices,
// so per-row evaluation does no name resolution, no scope allocation
// and no aggregate-map lookups. Semantics — three-valued logic, NULL
// propagation, comparison and arithmetic coercions — are delegated to
// the same helpers (truth, compare, arith, likeMatch, aggState) the
// interpreter uses, so results are byte-identical; the repository's
// equivalence property test pins that.
//
// Grouped aggregation compiles too: GROUP BY key expressions bind to
// row-context closures evaluated once per input row, groups hash on the
// encoded key vector into per-group accumulator slots, and HAVING binds
// as a post-aggregation predicate evaluated over each group's aggregate
// slots and representative row — so the multi-key rollups composition
// tiers generate (per-room averages, per-type alarm counts) run on the
// bound path instead of the interpreter.
//
// Statement shapes the binder does not cover (subqueries, EXISTS,
// IN (SELECT), unknown functions) leave Plan.prog nil and fall back to
// the interpreted path.

// boundExpr evaluates one compiled expression over a row.
type boundExpr func(row []stream.Value, ctx *boundCtx) (stream.Value, error)

// boundCtx carries per-execution state for bound expressions.
type boundCtx struct {
	ev  *evaluator     // scalar functions (NOW needs the clock)
	agg []stream.Value // per-group aggregate results by slot
}

// boundProj is one compiled projection slot.
type boundProj struct {
	star    bool
	starIdx []int
	fn      boundExpr
}

// boundAgg is one compiled aggregate accumulator slot.
type boundAgg struct {
	kind      aggKind
	distinct  bool
	countStar bool
	arg       boundExpr
}

// boundOrder is one compiled ORDER BY key.
type boundOrder struct {
	outputIdx int
	fn        boundExpr
}

// boundProgram is a fully bound single-pass execution plan for one
// SELECT core: filter, group keys, aggregate slots, HAVING, project,
// sort keys.
type boundProgram struct {
	where   boundExpr
	proj    []boundProj
	aggs    []boundAgg
	order   []boundOrder
	groupBy []boundExpr // GROUP BY key expressions, row context
	having  boundExpr   // post-aggregation predicate (agg slots + rep row)
	grouped bool
}

// newBoundProgram binds sp against cols, returning nil when any part
// of the statement is outside the compiled subset.
func newBoundProgram(sp *simplePlan, cols []Column) *boundProgram {
	stmt := sp.stmt
	b := &binder{cols: cols, aggs: sp.aggs}
	prog := &boundProgram{grouped: sp.grouped}
	if stmt.Where != nil {
		if prog.where = b.bind(stmt.Where); prog.where == nil {
			return nil
		}
	}
	for _, g := range stmt.GroupBy {
		// Key expressions evaluate in plain row context (aggregates are
		// illegal there; an aggregate call falls back to the interpreter,
		// which reports it).
		keyBinder := &binder{cols: cols}
		fn := keyBinder.bind(g)
		if fn == nil {
			return nil
		}
		prog.groupBy = append(prog.groupBy, fn)
	}
	if stmt.Having != nil {
		if prog.having = b.bind(stmt.Having); prog.having == nil {
			return nil
		}
	}
	for _, item := range sp.proj {
		if item.star {
			prog.proj = append(prog.proj, boundProj{star: true, starIdx: item.starIdx})
			continue
		}
		fn := b.bind(item.expr)
		if fn == nil {
			return nil
		}
		prog.proj = append(prog.proj, boundProj{fn: fn})
	}
	for _, a := range sp.aggs {
		ba := boundAgg{kind: aggKinds[a.Name], distinct: a.Distinct, countStar: a.CountStar}
		if !a.CountStar {
			if len(a.Args) != 1 {
				return nil // surfaced as an error by the generic path
			}
			// Aggregate arguments evaluate in plain row context: nested
			// aggregates are rejected at analysis, so bind with no agg
			// slots visible.
			argBinder := &binder{cols: cols}
			if ba.arg = argBinder.bind(a.Args[0]); ba.arg == nil {
				return nil
			}
		}
		prog.aggs = append(prog.aggs, ba)
	}
	if sp.needSortKeys {
		for _, op := range sp.orderPlans {
			bo := boundOrder{outputIdx: op.outputIdx}
			if op.outputIdx < 0 {
				if bo.fn = b.bind(op.expr); bo.fn == nil {
					return nil
				}
			}
			prog.order = append(prog.order, bo)
		}
	}
	return prog
}

// binder compiles expressions against one column layout. aggs, when
// set, maps aggregate call nodes (by identity) to result slots.
type binder struct {
	cols []Column
	aggs []*sqlparser.FuncCall
}

// columnIndex mirrors Relation.ColumnIndex against the binder layout.
func (b *binder) columnIndex(table, name string) (int, bool) {
	table = stream.CanonicalName(table)
	name = stream.CanonicalName(name)
	found := -1
	for i, c := range b.cols {
		if c.Name != name {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return -1, false // ambiguous: let the interpreter report it
		}
		found = i
	}
	if found < 0 {
		return -1, false
	}
	return found, true
}

// bind compiles e, returning nil when e (or a subexpression) is
// outside the compiled subset.
func (b *binder) bind(e sqlparser.Expr) boundExpr {
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Value
		return func([]stream.Value, *boundCtx) (stream.Value, error) { return v, nil }

	case *sqlparser.ColumnRef:
		idx, ok := b.columnIndex(x.Table, x.Name)
		if !ok {
			return nil
		}
		return func(row []stream.Value, _ *boundCtx) (stream.Value, error) { return row[idx], nil }

	case *sqlparser.BinaryExpr:
		return b.bindBinary(x)

	case *sqlparser.UnaryExpr:
		inner := b.bind(x.X)
		if inner == nil {
			return nil
		}
		switch x.Op {
		case "NOT":
			return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
				v, err := inner(row, ctx)
				if err != nil {
					return nil, err
				}
				t, known := truth(v)
				if !known {
					return nil, nil
				}
				return !t, nil
			}
		case "-":
			return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
				v, err := inner(row, ctx)
				if err != nil {
					return nil, err
				}
				switch n := v.(type) {
				case nil:
					return nil, nil
				case int64:
					return -n, nil
				case float64:
					return -n, nil
				}
				return nil, errUnaryMinus(v)
			}
		}
		return nil

	case *sqlparser.FuncCall:
		// Aggregate slots first (pointer identity against the plan's
		// inventory), then the scalar library.
		for i, a := range b.aggs {
			if a == x {
				slot := i
				return func(_ []stream.Value, ctx *boundCtx) (stream.Value, error) {
					return ctx.agg[slot], nil
				}
			}
		}
		if IsAggregateFunc(x.Name) {
			return nil // aggregate outside a slot: interpreter reports it
		}
		fn, ok := scalarFuncs[x.Name]
		if !ok {
			return nil
		}
		args := make([]boundExpr, len(x.Args))
		for i, a := range x.Args {
			if args[i] = b.bind(a); args[i] == nil {
				return nil
			}
		}
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			vals := make([]stream.Value, len(args))
			for i, af := range args {
				v, err := af(row, ctx)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return fn(vals, ctx.ev)
		}

	case *sqlparser.BetweenExpr:
		vf, lof, hif := b.bind(x.X), b.bind(x.Lo), b.bind(x.Hi)
		if vf == nil || lof == nil || hif == nil {
			return nil
		}
		not := x.Not
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			v, err := vf(row, ctx)
			if err != nil {
				return nil, err
			}
			lo, err := lof(row, ctx)
			if err != nil {
				return nil, err
			}
			hi, err := hif(row, ctx)
			if err != nil {
				return nil, err
			}
			cLo, okLo, err := compare(v, lo)
			if err != nil {
				return nil, err
			}
			cHi, okHi, err := compare(v, hi)
			if err != nil {
				return nil, err
			}
			if !okLo || !okHi {
				return nil, nil
			}
			in := cLo >= 0 && cHi <= 0
			if not {
				return !in, nil
			}
			return in, nil
		}

	case *sqlparser.LikeExpr:
		vf, pf := b.bind(x.X), b.bind(x.Pattern)
		if vf == nil || pf == nil {
			return nil
		}
		not := x.Not
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			v, err := vf(row, ctx)
			if err != nil {
				return nil, err
			}
			p, err := pf(row, ctx)
			if err != nil {
				return nil, err
			}
			if v == nil || p == nil {
				return nil, nil
			}
			s, ok1 := v.(string)
			pat, ok2 := p.(string)
			if !ok1 || !ok2 {
				return nil, errLikeTypes(v, p)
			}
			m := likeMatch(s, pat)
			if not {
				return !m, nil
			}
			return m, nil
		}

	case *sqlparser.IsNullExpr:
		inner := b.bind(x.X)
		if inner == nil {
			return nil
		}
		not := x.Not
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			v, err := inner(row, ctx)
			if err != nil {
				return nil, err
			}
			isNull := v == nil
			if not {
				return !isNull, nil
			}
			return isNull, nil
		}

	case *sqlparser.InExpr:
		if x.Select != nil {
			return nil
		}
		vf := b.bind(x.X)
		if vf == nil {
			return nil
		}
		items := make([]boundExpr, len(x.List))
		for i, it := range x.List {
			if items[i] = b.bind(it); items[i] == nil {
				return nil
			}
		}
		not := x.Not
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			v, err := vf(row, ctx)
			if err != nil {
				return nil, err
			}
			candidates := make([]stream.Value, len(items))
			for i, it := range items {
				if candidates[i], err = it(row, ctx); err != nil {
					return nil, err
				}
			}
			if v == nil {
				return nil, nil
			}
			sawNull := false
			for _, c := range candidates {
				if c == nil {
					sawNull = true
					continue
				}
				cmp, known, err := compare(v, c)
				if err != nil {
					continue // mixed-type candidate cannot match
				}
				if known && cmp == 0 {
					return !not, nil
				}
			}
			if sawNull {
				return nil, nil
			}
			return not, nil
		}

	case *sqlparser.CaseExpr:
		return b.bindCase(x)

	case *sqlparser.CastExpr:
		inner := b.bind(x.X)
		if inner == nil {
			return nil
		}
		t, err := stream.ParseFieldType(x.Type)
		if err != nil {
			return nil // interpreter surfaces the CAST error
		}
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			v, err := inner(row, ctx)
			if err != nil {
				return nil, err
			}
			if f, ok := v.(float64); ok && (t == stream.TypeInt || t == stream.TypeTime) {
				return int64(f), nil
			}
			out, err := stream.Coerce(v, t)
			if err != nil {
				return nil, errCast(err)
			}
			return out, nil
		}
	}
	return nil
}

func (b *binder) bindBinary(x *sqlparser.BinaryExpr) boundExpr {
	if k := b.bindColumnLiteral(x); k != nil {
		return k
	}
	lf, rf := b.bind(x.L), b.bind(x.R)
	if lf == nil || rf == nil {
		return nil
	}
	op := x.Op
	switch op {
	case sqlparser.OpAnd:
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			lv, err := lf(row, ctx)
			if err != nil {
				return nil, err
			}
			lt, lknown := truth(lv)
			if lknown && !lt {
				return false, nil
			}
			rv, err := rf(row, ctx)
			if err != nil {
				return nil, err
			}
			rt, rknown := truth(rv)
			if rknown && !rt {
				return false, nil
			}
			if !lknown || !rknown {
				return nil, nil
			}
			return true, nil
		}
	case sqlparser.OpOr:
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			lv, err := lf(row, ctx)
			if err != nil {
				return nil, err
			}
			lt, lknown := truth(lv)
			if lknown && lt {
				return true, nil
			}
			rv, err := rf(row, ctx)
			if err != nil {
				return nil, err
			}
			rt, rknown := truth(rv)
			if rknown && rt {
				return true, nil
			}
			if !lknown || !rknown {
				return nil, nil
			}
			return false, nil
		}
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			lv, err := lf(row, ctx)
			if err != nil {
				return nil, err
			}
			rv, err := rf(row, ctx)
			if err != nil {
				return nil, err
			}
			return compareOp(op, lv, rv)
		}
	case sqlparser.OpConcat:
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			lv, err := lf(row, ctx)
			if err != nil {
				return nil, err
			}
			rv, err := rf(row, ctx)
			if err != nil {
				return nil, err
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return stream.FormatValue(lv) + stream.FormatValue(rv), nil
		}
	default:
		return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
			lv, err := lf(row, ctx)
			if err != nil {
				return nil, err
			}
			rv, err := rf(row, ctx)
			if err != nil {
				return nil, err
			}
			return arith(op, lv, rv)
		}
	}
}

// compareOp applies a comparison operator with the interpreter's
// semantics: a NULL operand yields NULL, incomparable types an error.
func compareOp(op sqlparser.BinaryOp, a, b stream.Value) (stream.Value, error) {
	c, known, err := compare(a, b)
	if err != nil {
		return nil, err
	}
	if !known {
		return nil, nil
	}
	return cmpTruth(op, c), nil
}

// compareOperands is compareOp over (v, lit), or over (lit, v) when the
// literal was the left operand.
func compareOperands(op sqlparser.BinaryOp, v, lit stream.Value, flip bool) (stream.Value, error) {
	if flip {
		return compareOp(op, lit, v)
	}
	return compareOp(op, v, lit)
}

// cmpTruth reads a comparison operator off a three-way result.
func cmpTruth(op sqlparser.BinaryOp, c int) bool {
	switch op {
	case sqlparser.OpEq:
		return c == 0
	case sqlparser.OpNe:
		return c != 0
	case sqlparser.OpLt:
		return c < 0
	case sqlparser.OpLe:
		return c <= 0
	case sqlparser.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// bindColumnLiteral specialises column <op> literal and
// literal <op> column, the filters registered queries are made of, for
// int64 and string literals: one closure compares a row value of the
// literal's own type directly and hands any other value (NULL, another
// type) to compareOp in the statement's operand order, so results and
// error texts match the generic path. It returns nil for every other
// shape.
func (b *binder) bindColumnLiteral(x *sqlparser.BinaryExpr) boundExpr {
	switch x.Op {
	case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
	default:
		return nil
	}
	colExpr, litExpr, flip := x.L, x.R, false
	if _, ok := colExpr.(*sqlparser.Literal); ok {
		colExpr, litExpr, flip = x.R, x.L, true
	}
	ref, ok := colExpr.(*sqlparser.ColumnRef)
	if !ok {
		return nil
	}
	lit, ok := litExpr.(*sqlparser.Literal)
	if !ok {
		return nil
	}
	idx, ok := b.columnIndex(ref.Table, ref.Name)
	if !ok {
		return nil
	}
	op, boxed := x.Op, lit.Value
	// A three-way result of (column, literal) negates into (literal,
	// column): both are -1, 0 or +1.
	sign := 1
	if flip {
		sign = -1
	}
	switch want := boxed.(type) {
	case int64:
		return func(row []stream.Value, _ *boundCtx) (stream.Value, error) {
			if v, ok := row[idx].(int64); ok {
				return cmpTruth(op, sign*cmpInt(v, want)), nil
			}
			return compareOperands(op, row[idx], boxed, flip)
		}
	case string:
		return func(row []stream.Value, _ *boundCtx) (stream.Value, error) {
			if v, ok := row[idx].(string); ok {
				return cmpTruth(op, sign*strings.Compare(v, want)), nil
			}
			return compareOperands(op, row[idx], boxed, flip)
		}
	}
	return nil
}

func (b *binder) bindCase(x *sqlparser.CaseExpr) boundExpr {
	var operand boundExpr
	if x.Operand != nil {
		if operand = b.bind(x.Operand); operand == nil {
			return nil
		}
	}
	type boundWhen struct{ cond, then boundExpr }
	whens := make([]boundWhen, len(x.Whens))
	for i, w := range x.Whens {
		whens[i].cond = b.bind(w.Cond)
		whens[i].then = b.bind(w.Then)
		if whens[i].cond == nil || whens[i].then == nil {
			return nil
		}
	}
	var elseFn boundExpr
	if x.Else != nil {
		if elseFn = b.bind(x.Else); elseFn == nil {
			return nil
		}
	}
	return func(row []stream.Value, ctx *boundCtx) (stream.Value, error) {
		if operand != nil {
			op, err := operand(row, ctx)
			if err != nil {
				return nil, err
			}
			for _, w := range whens {
				cv, err := w.cond(row, ctx)
				if err != nil {
					return nil, err
				}
				c, known, err := compare(op, cv)
				if err != nil {
					return nil, err
				}
				if known && c == 0 {
					return w.then(row, ctx)
				}
			}
		} else {
			for _, w := range whens {
				cv, err := w.cond(row, ctx)
				if err != nil {
					return nil, err
				}
				if t, known := truth(cv); known && t {
					return w.then(row, ctx)
				}
			}
		}
		if elseFn != nil {
			return elseFn(row, ctx)
		}
		return nil, nil
	}
}

// run executes the bound program over the input rows, mirroring
// runSimple + execGrouped for the compiled subset.
func (prog *boundProgram) run(p *Plan, rows [][]stream.Value, opts Options) (*Relation, error) {
	ev := &evaluator{opts: opts, clock: opts.Clock}
	ctx := &boundCtx{ev: ev}
	sp := p.sp
	out := &Relation{Cols: sp.outCols}
	var sortKeys [][]stream.Value

	project := func(row []stream.Value) error {
		outRow := make([]stream.Value, 0, len(sp.outCols))
		for _, pj := range prog.proj {
			if pj.star {
				for _, i := range pj.starIdx {
					outRow = append(outRow, row[i])
				}
				continue
			}
			v, err := pj.fn(row, ctx)
			if err != nil {
				return err
			}
			outRow = append(outRow, v)
		}
		out.Rows = append(out.Rows, outRow)
		if len(out.Rows) > opts.MaxRows {
			return errTooManyRows(opts.MaxRows)
		}
		if len(prog.order) > 0 {
			keys := make([]stream.Value, len(prog.order))
			for i, o := range prog.order {
				if o.outputIdx >= 0 {
					keys[i] = outRow[o.outputIdx]
					continue
				}
				v, err := o.fn(row, ctx)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			sortKeys = append(sortKeys, keys)
		}
		return nil
	}

	if !prog.grouped {
		for _, row := range rows {
			if prog.where != nil {
				v, err := prog.where(row, ctx)
				if err != nil {
					return nil, err
				}
				if t, known := truth(v); !known || !t {
					continue
				}
			}
			if err := project(row); err != nil {
				return nil, err
			}
		}
	} else if err := prog.runGrouped(p, rows, ctx, project); err != nil {
		return nil, err
	}

	if sp.stmt.Distinct {
		out.Rows, sortKeys = dedupeRows(out.Rows, sortKeys)
	}
	if len(sp.stmt.OrderBy) > 0 && sortKeys != nil {
		sortRelation(out, sortKeys, sp.stmt.OrderBy)
	}
	if err := ev.applyLimitOffset(out, sp.stmt, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// boundGroup is one hash bucket of the grouped compiled path: the
// group's representative row (the first WHERE-surviving row, exactly
// the interpreter's choice) and one accumulator per aggregate slot
// (flat, one allocation per group).
type boundGroup struct {
	rep    []stream.Value
	states []aggState
}

// runGrouped executes the aggregation half of the bound program:
// groups hash on the encoded GROUP BY key vector (one key evaluation
// per row, resolved to row indices at bind time; the encoded key is
// looked up allocation-free and materialised only on first sight),
// aggregates fold into per-group slots, and each surviving group
// projects over its representative row with the group's aggregate
// results installed in the context. Output order is first-seen order,
// matching execGrouped.
func (prog *boundProgram) runGrouped(p *Plan, rows [][]stream.Value,
	ctx *boundCtx, project func([]stream.Value) error) error {

	groups := make(map[string]*boundGroup)
	var order []*boundGroup
	newGroup := func(rep []stream.Value) *boundGroup {
		g := &boundGroup{rep: rep, states: make([]aggState, len(prog.aggs))}
		for i, a := range prog.aggs {
			g.states[i] = aggState{kind: a.kind, distinct: a.distinct}
		}
		order = append(order, g)
		return g
	}

	var keyVals []stream.Value
	var keyBuf []byte
	if len(prog.groupBy) > 0 {
		keyVals = make([]stream.Value, len(prog.groupBy))
	}
	var single *boundGroup // the one group of a GROUP BY-less aggregation
	for _, row := range rows {
		if prog.where != nil {
			v, err := prog.where(row, ctx)
			if err != nil {
				return err
			}
			if t, known := truth(v); !known || !t {
				continue
			}
		}
		var g *boundGroup
		if len(prog.groupBy) > 0 {
			for i, fn := range prog.groupBy {
				v, err := fn(row, ctx)
				if err != nil {
					return err
				}
				keyVals[i] = v
			}
			keyBuf = appendRowKey(keyBuf[:0], keyVals)
			// map[string([]byte)] lookups compile without a string
			// allocation; the key is materialised only on a miss.
			if g = groups[string(keyBuf)]; g == nil {
				g = newGroup(row)
				groups[string(keyBuf)] = g
			}
		} else {
			if single == nil {
				single = newGroup(row)
			}
			g = single
		}
		for i := range prog.aggs {
			a := &prog.aggs[i]
			if a.countStar {
				if err := g.states[i].add(int64(1)); err != nil {
					return err
				}
				continue
			}
			v, err := a.arg(row, ctx)
			if err != nil {
				return err
			}
			if err := g.states[i].add(v); err != nil {
				return err
			}
		}
	}

	// Aggregates without GROUP BY over an empty input still produce one
	// row (COUNT(*) = 0), projected over an all-NULL representative;
	// with GROUP BY an empty input produces no groups at all.
	if len(order) == 0 && len(prog.groupBy) == 0 {
		newGroup(make([]stream.Value, len(p.inCols)))
	}

	ctx.agg = make([]stream.Value, len(prog.aggs))
	for _, g := range order {
		for i := range g.states {
			ctx.agg[i] = g.states[i].result()
		}
		if prog.having != nil {
			v, err := prog.having(g.rep, ctx)
			if err != nil {
				return err
			}
			if t, known := truth(v); !known || !t {
				continue
			}
		}
		if err := project(g.rep); err != nil {
			return err
		}
	}
	return nil
}
