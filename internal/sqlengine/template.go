package sqlengine

import (
	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Parameterize splits stmt into a statement template and its parameter
// values. A template is the statement with the literal of each WHERE
// comparison between a plain column and an int64 or string literal
// (=, <>, <, <=, >, >=, either operand order, anywhere under WHERE's
// AND/OR/NOT tree) replaced by a typed *sqlparser.Param slot; the
// values come back in slot order. Every other literal — projections,
// GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET, function arguments, LIKE,
// IN, BETWEEN, subqueries — stays in the template, so statements that
// differ there get different templates.
//
// The template's String() is its signature: statements with equal
// signatures run on one compiled plan, each with its own values (see
// Plan.ExecuteParams). A statement without a slot comes back unchanged
// with nil values. stmt itself is never modified; the template shares
// every subtree it does not rewrite.
func Parameterize(stmt *sqlparser.SelectStatement) (*sqlparser.SelectStatement, []stream.Value) {
	if stmt.Where == nil {
		return stmt, nil
	}
	var params []stream.Value
	where := parameterize(stmt.Where, &params)
	if len(params) == 0 {
		return stmt, nil
	}
	tmpl := *stmt
	tmpl.Where = where
	return &tmpl, params
}

// parameterize rewrites the AND/OR/NOT tree rooted at e, appending each
// lifted literal to params. Untouched subtrees are returned as is.
func parameterize(e sqlparser.Expr, params *[]stream.Value) sqlparser.Expr {
	switch x := e.(type) {
	case *sqlparser.UnaryExpr:
		if x.Op != "NOT" {
			return e
		}
		if inner := parameterize(x.X, params); inner != x.X {
			return &sqlparser.UnaryExpr{Op: x.Op, X: inner}
		}
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			l := parameterize(x.L, params)
			r := parameterize(x.R, params)
			if l != x.L || r != x.R {
				return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}
			}
		case sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe:
			if _, ok := x.L.(*sqlparser.ColumnRef); ok {
				if p := slot(x.R, params); p != nil {
					return &sqlparser.BinaryExpr{Op: x.Op, L: x.L, R: p}
				}
			} else if _, ok := x.R.(*sqlparser.ColumnRef); ok {
				if p := slot(x.L, params); p != nil {
					return &sqlparser.BinaryExpr{Op: x.Op, L: p, R: x.R}
				}
			}
		}
	}
	return e
}

// slot lifts an int64 or string literal into the next parameter slot,
// or returns nil for any other operand.
func slot(e sqlparser.Expr, params *[]stream.Value) *sqlparser.Param {
	lit, ok := e.(*sqlparser.Literal)
	if !ok {
		return nil
	}
	p := &sqlparser.Param{Index: len(*params)}
	switch lit.Value.(type) {
	case int64:
		p.Kind = sqlparser.ParamInt
	case string:
		p.Kind = sqlparser.ParamString
	default:
		return nil
	}
	*params = append(*params, lit.Value)
	return p
}
