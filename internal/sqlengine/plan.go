package sqlengine

import (
	"fmt"
	"slices"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Plan is a SELECT statement compiled once against a fixed single-table
// input layout, so the per-trigger path pays none of the per-execution
// planning Execute does (FROM resolution, aggregate collection,
// projection and ORDER BY planning). The GSN container compiles each
// deployed sensor's source and stream statements at deploy time and
// re-runs the plan on every trigger.
//
// Compile intentionally covers the statement shapes sensor descriptors
// use (one base table, no joins, derived tables or compounds); anything
// else returns an error and the caller falls back to Execute.
type Plan struct {
	sp       *simplePlan
	inCols   []Column // input layout, qualified by the FROM alias
	bareCols []Column // input layout as compiled, for subquery re-binding
	names    []string // base-table names the input answers to

	// inc is the incremental program when the statement is an
	// aggregate-only projection, grouped or not; nil otherwise.
	inc *IncProgram

	// prog is the bound (column-index-resolved) execution program when
	// the statement is inside the compiled subset; nil falls back to
	// the interpreted evaluator. See compiled.go.
	prog *boundProgram
}

// Compile plans stmt against one input relation whose bare column
// layout is cols (see ColumnsOfSchema); tables lists the base-table
// names the FROM clause may use for it. The returned plan is immutable
// and safe for concurrent Execute calls.
func Compile(stmt *sqlparser.SelectStatement, cols []Column, tables ...string) (*Plan, error) {
	if stmt.Compound != nil {
		return nil, fmt.Errorf("sqlengine: compound statements are not compilable")
	}
	if len(stmt.From) != 1 {
		return nil, fmt.Errorf("sqlengine: compile needs exactly one FROM table, got %d", len(stmt.From))
	}
	tn, ok := stmt.From[0].(*sqlparser.TableName)
	if !ok {
		return nil, fmt.Errorf("sqlengine: compile supports plain table references, not %T", stmt.From[0])
	}
	name := stream.CanonicalName(tn.Name)
	known := false
	for _, t := range tables {
		if stream.CanonicalName(t) == name {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("sqlengine: compile input does not provide table %q", tn.Name)
	}
	qual := tn.Alias
	if qual == "" {
		qual = tn.Name
	}
	qual = stream.CanonicalName(qual)

	inCols := make([]Column, len(cols))
	for i, c := range cols {
		inCols[i] = Column{Table: qual, Name: c.Name}
	}
	sp, err := analyzeSimple(stmt, inCols)
	if err != nil {
		return nil, err
	}
	canonical := make([]string, len(tables))
	for i, t := range tables {
		canonical[i] = stream.CanonicalName(t)
	}
	p := &Plan{sp: sp, inCols: inCols, bareCols: cols, names: canonical}
	p.inc = incrementalProgram(sp, inCols)
	p.prog = newBoundProgram(sp, inCols)
	return p, nil
}

// resolveColRef resolves a plain column reference against the input
// layout, returning -1 when the name is unknown or ambiguous.
func resolveColRef(ref *sqlparser.ColumnRef, inCols []Column) int {
	idx := -1
	for j, c := range inCols {
		if c.Name != stream.CanonicalName(ref.Name) {
			continue
		}
		if ref.Table != "" && c.Table != stream.CanonicalName(ref.Table) {
			continue
		}
		if idx >= 0 {
			return -1 // ambiguous
		}
		idx = j
	}
	return idx
}

// IncProgram is the compiled form of an aggregate-only statement the
// AggMaintainer keeps under sliding count-window eviction: plain-column
// group keys (none without GROUP BY), maintainable aggregates, and a
// projection drawing only from those.
type IncProgram struct {
	// Keys are the input column indices of the GROUP BY keys, in
	// clause order; empty without GROUP BY.
	Keys []int
	aggs []incAgg   // aggregate slots, in projection order
	proj []projSlot // each output column's key or aggregate slot
	cols []Column   // output layout
}

// incAgg is one maintained aggregate: its kind and the input column
// index of its argument (-1 for COUNT(*)).
type incAgg struct {
	kind aggKind
	col  int
}

// projSlot maps one output column to a group key (idx into Keys) or an
// aggregate (idx into aggs).
type projSlot struct {
	key bool
	idx int
}

// incAggOf recognises one maintainable aggregate call: COUNT, SUM, AVG,
// MIN, MAX or LAST over a plain column, or COUNT(*). FIRST and STDDEV
// need the whole window, DISTINCT its value set.
func incAggOf(fc *sqlparser.FuncCall, inCols []Column) (incAgg, bool) {
	kind, ok := aggKinds[fc.Name]
	if !ok || fc.Distinct || kind == aggFirst || kind == aggStddev {
		return incAgg{}, false
	}
	if fc.CountStar {
		return incAgg{kind: kind, col: -1}, true
	}
	if len(fc.Args) != 1 {
		return incAgg{}, false
	}
	ref, ok := fc.Args[0].(*sqlparser.ColumnRef)
	if !ok {
		return incAgg{}, false
	}
	col := resolveColRef(ref, inCols)
	return incAgg{kind: kind, col: col}, col >= 0
}

// incrementalProgram recognises the aggregate-only shape — SELECT
// [key...,] agg(col)... FROM w [GROUP BY key...] with no WHERE/HAVING/
// ORDER BY/DISTINCT/LIMIT, every key a plain column reference and every
// projected column a key or a maintainable aggregate — or returns nil.
// Shapes outside it (HAVING, expression keys, filtered rollups) still
// compile into the bound-program tier.
func incrementalProgram(sp *simplePlan, inCols []Column) *IncProgram {
	stmt := sp.stmt
	if !sp.grouped || stmt.Where != nil || stmt.Having != nil ||
		stmt.Distinct || len(stmt.OrderBy) > 0 || stmt.Limit != nil || stmt.Offset != nil {
		return nil
	}
	prog := &IncProgram{Keys: make([]int, len(stmt.GroupBy)), cols: sp.outCols}
	for i, g := range stmt.GroupBy {
		ref, ok := g.(*sqlparser.ColumnRef)
		if !ok {
			return nil
		}
		if prog.Keys[i] = resolveColRef(ref, inCols); prog.Keys[i] < 0 {
			return nil
		}
	}
	for _, item := range sp.proj {
		if item.star {
			return nil
		}
		switch x := item.expr.(type) {
		case *sqlparser.ColumnRef:
			slot := slices.Index(prog.Keys, resolveColRef(x, inCols))
			if slot < 0 {
				return nil // a non-key column: rep-row semantics need the scan
			}
			prog.proj = append(prog.proj, projSlot{key: true, idx: slot})
		case *sqlparser.FuncCall:
			agg, ok := incAggOf(x, inCols)
			if !ok {
				return nil
			}
			prog.proj = append(prog.proj, projSlot{idx: len(prog.aggs)})
			prog.aggs = append(prog.aggs, agg)
		default:
			return nil
		}
	}
	return prog
}

// Incremental returns the plan's incremental program, or nil when the
// statement is not aggregate-only. The container pairs it with an
// AggMaintainer observing the window table.
func (p *Plan) Incremental() *IncProgram { return p.inc }

// OutputColumns returns the plan's projected column layout.
func (p *Plan) OutputColumns() []Column { return p.sp.outCols }

// ExecuteSource runs the compiled plan directly against a window
// source. Aggregate-only plans without GROUP BY never materialise rows
// at all: the incremental program folds each element in one ForEach
// pass inside the table's critical section. Other plan shapes scan the
// source into rows once (still zero-copy with respect to the element
// store) and run the precompiled plan.
func (p *Plan) ExecuteSource(src ElementSource, opts Options) (*Relation, error) {
	if p.inc == nil || len(p.inc.Keys) > 0 {
		return p.Execute(RowsOfSource(src), opts)
	}
	g := p.inc.newGroup(nil, false)
	var err error
	src.ForEach(func(e stream.Element) bool {
		_, err = p.inc.fold(g, e, false)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return p.inc.relation([]*incGroup{g}), nil
}

// Execute runs the compiled plan over the current window rows (as
// produced by RowsOfSource against the layout the plan was compiled
// for). It mirrors Execute's tail — ORDER BY and LIMIT/OFFSET — but
// skips all per-call planning.
func (p *Plan) Execute(rows [][]stream.Value, opts Options) (*Relation, error) {
	if opts.Clock == nil {
		opts.Clock = stream.SystemClock()
	}
	if opts.MaxRows <= 0 {
		opts.MaxRows = defaultMaxRows
	}
	// Compiled subset: run the bound program (no name resolution, no
	// scope allocation, no per-call planning).
	if p.prog != nil {
		return p.prog.run(p, rows, opts)
	}
	// Subqueries in expression position resolve the base tables through
	// the catalog, so rebind them to the same live rows.
	cat := make(MapCatalog, len(p.names))
	view := &Relation{Cols: p.bareCols, Rows: rows}
	for _, n := range p.names {
		cat[n] = view
	}
	ev := &evaluator{cat: cat, opts: opts, clock: opts.Clock}
	src := &Relation{Cols: p.inCols, Rows: rows}
	rel, sortKeys, err := ev.runSimple(p.sp, src, nil)
	if err != nil {
		return nil, err
	}
	if len(p.sp.stmt.OrderBy) > 0 && sortKeys != nil {
		sortRelation(rel, sortKeys, p.sp.stmt.OrderBy)
	}
	if err := ev.applyLimitOffset(rel, p.sp.stmt, nil); err != nil {
		return nil, err
	}
	return rel, nil
}
