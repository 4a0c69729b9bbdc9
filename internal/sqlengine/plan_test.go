package sqlengine

import (
	"math/rand"
	"testing"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

var planSchema = stream.MustSchema(
	stream.Field{Name: "v", Type: stream.TypeInt},
	stream.Field{Name: "f", Type: stream.TypeFloat},
)

// planTable is a minimal ElementSource for tests (the real one is
// *storage.Table, which lives above this package).
type planTable struct {
	schema *stream.Schema
	elems  []stream.Element
}

func (p *planTable) Schema() *stream.Schema { return p.schema }
func (p *planTable) Len() int               { return len(p.elems) }
func (p *planTable) ForEach(fn func(stream.Element) bool) {
	for _, e := range p.elems {
		if !fn(e) {
			return
		}
	}
}

func makePlanTable(t *testing.T, n int) *planTable {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	pt := &planTable{schema: planSchema}
	for i := 0; i < n; i++ {
		var v stream.Value = int64(rng.Intn(100) - 50)
		if i%11 == 10 {
			v = nil // exercise NULL handling
		}
		e, err := stream.NewElement(planSchema, stream.Timestamp(i+1), v, float64(i)/3)
		if err != nil {
			t.Fatalf("NewElement: %v", err)
		}
		pt.elems = append(pt.elems, e)
	}
	return pt
}

// TestCompiledPlanMatchesExecute locks in that the deploy-time compiled
// path computes exactly what the per-trigger Execute path computes, for
// the statement shapes sensors use.
func TestCompiledPlanMatchesExecute(t *testing.T) {
	pt := makePlanTable(t, 60)
	queries := []string{
		"select * from w",
		"select v, f from w",
		"select w.v from w",
		"select v + 1 as inc, f * 2 as dbl from w where v > 0",
		"select count(*) as n, sum(v) as s, avg(v) as a, min(v) as mn, max(v) as mx from w",
		"select last(v) as l, first(v) as fi from w",
		"select v from w order by v desc limit 5",
		"select distinct v from w order by v",
		"select v, count(*) as n from w group by v having count(*) > 1",
		"select v from w where v > (select avg(v) from w)",
		"select v from w as x where x.v < 0",
		"select stddev(v) as sd from w",
	}
	for _, q := range queries {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
		if err != nil {
			t.Fatalf("%s: compile: %v", q, err)
		}
		view := RelationOfSource(pt)
		cat := MapCatalog{stream.CanonicalName("w"): view}
		want, err := Execute(stmt, cat, Options{})
		if err != nil {
			t.Fatalf("%s: execute: %v", q, err)
		}
		got, err := plan.Execute(RowsOfSource(pt), Options{})
		if err != nil {
			t.Fatalf("%s: plan execute: %v", q, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\ncompiled:\n%s\nexecute:\n%s", q, got, want)
		}
		direct, err := plan.ExecuteSource(pt, Options{})
		if err != nil {
			t.Fatalf("%s: plan execute source: %v", q, err)
		}
		if direct.String() != want.String() {
			t.Errorf("%s:\ncompiled source:\n%s\nexecute:\n%s", q, direct, want)
		}
	}
}

// TestCompileRejectsUnsupportedShapes: statements the compiler cannot
// pre-plan must be refused so the container falls back to Execute.
func TestCompileRejectsUnsupportedShapes(t *testing.T) {
	bad := []string{
		"select * from w a, w b",
		"select * from w union select * from w",
		"select * from (select v from w) d",
		"select a.v from w a join w b on a.v = b.v",
		"select * from other",
	}
	for _, q := range bad {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("%s: parse: %v", q, err)
		}
		if _, err := Compile(stmt, ColumnsOfSchema(planSchema), "w"); err == nil {
			t.Errorf("%s: compile should have been rejected", q)
		}
	}
}

func compileIncremental(t *testing.T, q string) *IncProgram {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatalf("%s: parse: %v", q, err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
	if err != nil {
		t.Fatalf("%s: compile: %v", q, err)
	}
	return plan.Incremental()
}

func TestIncrementalProgramDetection(t *testing.T) {
	eligible := []string{
		"select count(*) as n from w",
		"select count(v) as n, sum(v) as s, avg(v) as a from w",
		"select min(v) as mn, max(v) as mx, last(v) as l from w",
		"select min(timed) as oldest from w",
	}
	for _, q := range eligible {
		if prog := compileIncremental(t, q); prog == nil || len(prog.Keys) != 0 {
			t.Errorf("%s: should be incrementally maintainable without keys", q)
		}
	}
	ineligible := []string{
		"select v from w",                         // no aggregates
		"select count(*) as n from w where v > 0", // WHERE needs rescan
		"select first(v) as f from w",             // FIRST needs the head
		"select stddev(v) as sd from w",           // not in the inc set
		"select count(distinct v) as n from w",    // distinct needs the set
		"select sum(v + 1) as s from w",           // non-column argument
		"select count(*) as n from w order by n",
		"select count(*) as n from w limit 1",
	}
	for _, q := range ineligible {
		if compileIncremental(t, q) != nil {
			t.Errorf("%s: should NOT be incrementally maintainable", q)
		}
	}
}

// TestAggMaintainerMatchesExecute simulates a sliding count window with
// random inserts (including NULLs and floats) and checks after every
// step that the incremental result equals full re-execution over the
// live window.
func TestAggMaintainerMatchesExecute(t *testing.T) {
	const query = "select count(*) as n, count(v) as nv, sum(v) as s, avg(v) as a, " +
		"min(v) as mn, max(v) as mx, last(v) as l, sum(f) as sf from w"
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
	if err != nil {
		t.Fatal(err)
	}
	prog := plan.Incremental()
	if prog == nil {
		t.Fatal("query should be incrementally maintainable")
	}
	m := NewAggMaintainer(prog)

	// Inputs near ±2^62 and 2^53 make window sums cross 2^63 (where an
	// int64 running sum wraps) and 2^53 (where a float one rounds): SUM
	// must wrap exactly like a rescan, AVG must come from the exact sum.
	bigInts := []int64{1 << 62, 1<<62 + 3, -(1 << 62), -(1 << 62) - 5, 1 << 53, 1<<53 + 1}
	const windowSize = 16
	rng := rand.New(rand.NewSource(42))
	var live []stream.Element
	for step := 0; step < 400; step++ {
		var v stream.Value = int64(rng.Intn(40) - 20)
		switch rng.Intn(7) {
		case 0:
			v = nil
		case 1:
			v = bigInts[rng.Intn(len(bigInts))]
		}
		e, err := stream.NewElement(planSchema, stream.Timestamp(step+1), v, rng.Float64()*10-5)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
		m.OnInsert(e)
		for len(live) > windowSize {
			m.OnEvict(live[0])
			live = live[1:]
		}
		if step%3 == 0 && step > 0 && rng.Intn(50) == 0 {
			m.OnTruncate()
			live = nil
		}

		got := m.Result()
		if got == nil {
			t.Fatalf("step %d: maintainer poisoned unexpectedly", step)
		}
		pt := &planTable{schema: planSchema, elems: live}
		want, err := Execute(stmt, MapCatalog{stream.CanonicalName("w"): RelationOfSource(pt)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if gs, ws := got.String(), want.String(); !aggRowsEqual(t, got, want, 7) {
			t.Fatalf("step %d (live=%d):\nincremental:\n%s\nexecute:\n%s", step, len(live), gs, ws)
		}
	}
}

// aggRowsEqual compares single-row aggregate relations exactly, except
// column fCol — the SUM over the float column f — where it tolerates
// the rounding difference between a running float sum and a rescan.
func aggRowsEqual(t *testing.T, a, b *Relation, fCol int) bool {
	t.Helper()
	if len(a.Rows) != 1 || len(b.Rows) != 1 || len(a.Rows[0]) != len(b.Rows[0]) {
		return false
	}
	for i := range a.Rows[0] {
		av, bv := a.Rows[0][i], b.Rows[0][i]
		af, aok := av.(float64)
		bf, bok := bv.(float64)
		if i == fCol && aok && bok {
			d := af - bf
			if d < -1e-9 || d > 1e-9 {
				return false
			}
			continue
		}
		if av != bv {
			return false
		}
	}
	return true
}

// TestAggMaintainerPoisoned: an input the aggregate cannot digest must
// poison the maintainer so triggers fall back to full execution (which
// reports the error), rather than silently computing garbage.
func TestAggMaintainerPoisoned(t *testing.T) {
	strSchema := stream.MustSchema(stream.Field{Name: "s", Type: stream.TypeString})
	stmt, err := sqlparser.Parse("select sum(s) as x from w")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(strSchema), "w")
	if err != nil {
		t.Fatal(err)
	}
	m := NewAggMaintainer(plan.Incremental())
	e, err := stream.NewElement(strSchema, 1, "not-a-number")
	if err != nil {
		t.Fatal(err)
	}
	m.OnInsert(e)
	if m.Result() != nil {
		t.Error("maintainer should be poisoned by SUM over a string")
	}
	m.OnTruncate()
	if m.Result() == nil {
		t.Error("truncate should reset the poisoned state")
	}
}

// TestAggMaintainerFloatResync: after enough float evictions the
// maintainer asks for a rebuild, and a truncate+replay (what
// storage.Table.SetObserver performs) clears both the drift counter
// and any accumulated rounding error.
func TestAggMaintainerFloatResync(t *testing.T) {
	stmt, err := sqlparser.Parse("select sum(f) as s from w")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, ColumnsOfSchema(planSchema), "w")
	if err != nil {
		t.Fatal(err)
	}
	m := NewAggMaintainer(plan.Incremental())
	e, err := stream.NewElement(planSchema, 1, int64(0), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < resyncFloatEvery+10; i++ {
		m.OnInsert(e)
		m.OnEvict(e)
		if i < resyncFloatEvery-1 && m.NeedsResync() {
			t.Fatalf("resync requested too early at %d", i)
		}
	}
	if !m.NeedsResync() {
		t.Fatalf("resync not requested after %d float evictions", resyncFloatEvery+10)
	}
	// SetObserver replay = truncate + re-insert of the live window.
	m.OnTruncate()
	m.OnInsert(e)
	if m.NeedsResync() {
		t.Error("rebuild should clear the resync request")
	}
	got := m.Result()
	if got == nil || got.Rows[0][0] != 2.5 {
		t.Errorf("sum after rebuild = %v, want 2.5", got)
	}
}
