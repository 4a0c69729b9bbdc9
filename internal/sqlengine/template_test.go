package sqlengine

import (
	"reflect"
	"testing"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// TestParameterize pins what becomes a parameter slot: int64 and string
// literals compared with a plain column under WHERE's AND/OR/NOT tree,
// in either operand order. Everything else stays in the template text.
func TestParameterize(t *testing.T) {
	cases := []struct {
		sql    string
		sig    string // "" when the statement has no slot
		kinds  []sqlparser.ParamKind
		values []stream.Value
	}{
		{
			sql:    "select v from w where v > 5",
			sig:    "SELECT v FROM w WHERE (v > $1:int)",
			kinds:  []sqlparser.ParamKind{sqlparser.ParamInt},
			values: []stream.Value{int64(5)},
		},
		{
			sql:    "select v from w where v > '5'",
			sig:    "SELECT v FROM w WHERE (v > $1:string)",
			kinds:  []sqlparser.ParamKind{sqlparser.ParamString},
			values: []stream.Value{"5"},
		},
		{
			sql:    "select v from w where -3 <= v and s <> 'it''s'",
			sig:    "SELECT v FROM w WHERE (($1:int <= v) AND (s <> $2:string))",
			kinds:  []sqlparser.ParamKind{sqlparser.ParamInt, sqlparser.ParamString},
			values: []stream.Value{int64(-3), "it's"},
		},
		{
			sql:    "select count(*) from w where not (v = 1 or w.s >= 'k') and v < 90 group by s having count(*) > 2 order by s limit 3",
			sig:    "SELECT COUNT(*) FROM w WHERE ((NOT ((v = $1:int) OR (w.s >= $2:string))) AND (v < $3:int)) GROUP BY s HAVING (COUNT(*) > 2) ORDER BY s LIMIT 3",
			kinds:  []sqlparser.ParamKind{sqlparser.ParamInt, sqlparser.ParamString, sqlparser.ParamInt},
			values: []stream.Value{int64(1), "k", int64(90)},
		},
		{
			// Only the comparison's literal is lifted: BETWEEN, IN, LIKE,
			// function arguments and expressions keep theirs.
			sql:    "select v from w where v between 1 and 2 and v in (3, 4) and s like 'a%' and abs(v) > 5 and v % 7 = 1 and v = 8",
			sig:    "SELECT v FROM w WHERE ((((((v BETWEEN 1 AND 2) AND (v IN (3, 4))) AND (s LIKE 'a%')) AND (ABS(v) > 5)) AND ((v % 7) = 1)) AND (v = $1:int))",
			kinds:  []sqlparser.ParamKind{sqlparser.ParamInt},
			values: []stream.Value{int64(8)},
		},
		// No slot: no WHERE, float, NULL and boolean literals, column
		// against column, literal against literal, a subquery operand.
		{sql: "select count(*), avg(v) from w"},
		{sql: "select v from w where f > 1.5"},
		{sql: "select v from w where v = null"},
		{sql: "select v from w where v = f or 1 = 1"},
		{sql: "select v from w where v > (select avg(v) from w where v > 3)"},
		{sql: "select v from w where v is null"},
		{sql: "select v from w where -v > 3"},
	}
	for _, tc := range cases {
		stmt, err := sqlparser.Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.sql, err)
		}
		text := stmt.String()
		tmpl, values := Parameterize(stmt)
		if stmt.String() != text {
			t.Errorf("%s: Parameterize modified its input", tc.sql)
		}
		if tc.sig == "" {
			if tmpl != stmt || values != nil {
				t.Errorf("%s: want no slot, got %s with %v", tc.sql, tmpl, values)
			}
			continue
		}
		if got := tmpl.String(); got != tc.sig {
			t.Errorf("%s: signature\n got %s\nwant %s", tc.sql, got, tc.sig)
		}
		if !reflect.DeepEqual(values, tc.values) {
			t.Errorf("%s: values %#v, want %#v", tc.sql, values, tc.values)
		}
		if kinds := paramKinds(tmpl.Where); !reflect.DeepEqual(kinds, tc.kinds) {
			t.Errorf("%s: slot kinds %v, want %v", tc.sql, kinds, tc.kinds)
		}
	}
}

// paramKinds lists the kinds of the Params under e's AND/OR/NOT tree,
// by slot index.
func paramKinds(e sqlparser.Expr) []sqlparser.ParamKind {
	var kinds []sqlparser.ParamKind
	var walk func(sqlparser.Expr)
	walk = func(e sqlparser.Expr) {
		switch x := e.(type) {
		case *sqlparser.Param:
			for len(kinds) <= x.Index {
				kinds = append(kinds, 0)
			}
			kinds[x.Index] = x.Kind
		case *sqlparser.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *sqlparser.UnaryExpr:
			walk(x.X)
		}
	}
	walk(e)
	return kinds
}

// TestExecuteParamsArity: a plan refuses a parameter vector of the
// wrong length instead of reading past it.
func TestExecuteParamsArity(t *testing.T) {
	stmt, err := sqlparser.Parse("select v from w where v > 1 and v < 9")
	if err != nil {
		t.Fatal(err)
	}
	tmpl, params := Parameterize(stmt)
	plan, err := Compile(tmpl, ColumnsOfSchema(planSchema), "w")
	if err != nil {
		t.Fatal(err)
	}
	rows := RowsOfSource(makePlanTable(t, 10))
	if _, err := plan.Execute(rows, Options{}); err == nil {
		t.Error("a template plan ran without its parameters")
	}
	if _, err := plan.ExecuteParams(rows, params[:1], Options{}); err == nil {
		t.Error("a template plan ran with too few parameters")
	}
	if _, err := plan.ExecuteParams(rows, params, Options{}); err != nil {
		t.Error(err)
	}
}
