package sqlengine

import (
	"fmt"
	"testing"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// TestColumnLiteralKernelsMatchGeneric: the typed column <op> literal
// kernels must produce exactly what the generic comparison produces,
// value and error text, for every comparison operator, row values of
// every type against int64, float64 and string literals, in both
// operand orders. The compiled plan and the interpreter must agree on
// the same statements.
func TestColumnLiteralKernelsMatchGeneric(t *testing.T) {
	cols := []Column{{Name: "V"}}
	values := []stream.Value{int64(-3), int64(5), int64(9), float64(5), float64(5.5),
		"a", "m", "z", true, false, []byte("m"), nil}
	literals := []string{"5", "-3", "5.0", "2.5", "'m'", "''"}
	kernels := 0
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, lit := range literals {
			for _, flip := range []bool{false, true} {
				expr := "v " + op + " " + lit
				if flip {
					expr = lit + " " + op + " v"
				}
				stmt, err := sqlparser.Parse("select " + expr + " as r from w")
				if err != nil {
					t.Fatalf("%s: %v", expr, err)
				}
				x := stmt.Columns[0].Expr.(*sqlparser.BinaryExpr)
				b := &binder{cols: cols}
				kernel := b.bindColumnLiteral(x)
				litExpr := x.R
				if flip {
					litExpr = x.L
				}
				litVal := litExpr.(*sqlparser.Literal).Value
				switch litVal.(type) {
				case int64, string:
					if kernel == nil {
						t.Fatalf("%s: no typed kernel for a %T literal", expr, litVal)
					}
					kernels++
				default:
					if kernel != nil {
						t.Fatalf("%s: typed kernel bound for a %T literal", expr, litVal)
					}
					kernel = b.bind(x) // the generic closure
				}
				plan, err := Compile(stmt, cols, "w")
				if err != nil {
					t.Fatalf("%s: compile: %v", expr, err)
				}
				for _, v := range values {
					row := []stream.Value{v}
					got, gotErr := kernel(row, &boundCtx{})
					l, r := v, litVal
					if flip {
						l, r = litVal, v
					}
					want, wantErr := compareOp(x.Op, l, r)
					if g, w := outcome(got, gotErr), outcome(want, wantErr); g != w {
						t.Errorf("%s with v=%#v: kernel %s, generic %s", expr, v, g, w)
					}
					rel := &Relation{Cols: cols, Rows: [][]stream.Value{row}}
					compiled, cErr := plan.Execute(rel.Rows, Options{})
					interp, iErr := Execute(stmt, MapCatalog{"W": rel}, Options{})
					if g, w := relOutcome(compiled, cErr), relOutcome(interp, iErr); g != w {
						t.Errorf("%s with v=%#v: compiled %s, interpreted %s", expr, v, g, w)
					}
				}
			}
		}
	}
	if kernels != 6*4*2 {
		t.Errorf("%d typed kernels bound, want %d", kernels, 6*4*2)
	}
}

// outcome renders a value with its dynamic type, or the error text.
func outcome(v stream.Value, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("%#v", v)
}

func relOutcome(rel *Relation, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("%#v", rel.Rows)
}
