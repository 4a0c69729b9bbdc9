package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is implemented by all AST nodes; String renders canonical SQL so
// that parse → print → parse is the identity (tested by property tests).
type Node interface {
	fmt.Stringer
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// SelectStatement is a full SELECT, possibly compound (UNION/INTERSECT/
// EXCEPT chains hang off Compound).
type SelectStatement struct {
	Distinct bool
	Columns  []SelectColumn
	From     []TableRef // cross-joined FROM items; explicit joins nest in JoinRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // literal or expression evaluated to int
	Offset   Expr
	Compound *Compound
}

// Compound chains a set operation onto a SELECT.
type Compound struct {
	Op    SetOp
	All   bool
	Right *SelectStatement
}

// SetOp is a set operation between SELECTs.
type SetOp int

// Set operations.
const (
	Union SetOp = iota
	Intersect
	Except
)

func (op SetOp) String() string {
	switch op {
	case Union:
		return "UNION"
	case Intersect:
		return "INTERSECT"
	case Except:
		return "EXCEPT"
	default:
		return fmt.Sprintf("SetOp(%d)", int(op))
	}
}

// SelectColumn is one projected column: either a star ("*", "t.*") or an
// expression with an optional alias.
type SelectColumn struct {
	Star      bool
	StarTable string // qualifier for "t.*"; empty for plain "*"
	Expr      Expr
	Alias     string
}

func (c SelectColumn) String() string {
	if c.Star {
		if c.StarTable != "" {
			return quoteIdent(c.StarTable) + ".*"
		}
		return "*"
	}
	s := c.Expr.String()
	if c.Alias != "" {
		s += " AS " + quoteIdent(c.Alias)
	}
	return s
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	s := o.Expr.String()
	if o.Desc {
		s += " DESC"
	}
	return s
}

// TableRef is a FROM item.
type TableRef interface {
	Node
	tableRefNode()
}

// TableName references a stored stream/relation, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

func (t *TableName) tableRefNode() {}

func (t *TableName) String() string {
	s := quoteIdent(t.Name)
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
}

// SubqueryRef is a derived table: (SELECT ...) AS alias.
type SubqueryRef struct {
	Select *SelectStatement
	Alias  string
}

func (t *SubqueryRef) tableRefNode() {}

func (t *SubqueryRef) String() string {
	s := "(" + t.Select.String() + ")"
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
}

// JoinKind enumerates join flavours.
type JoinKind int

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	RightJoin
	CrossJoin
)

func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "INNER JOIN"
	case LeftJoin:
		return "LEFT JOIN"
	case RightJoin:
		return "RIGHT JOIN"
	case CrossJoin:
		return "CROSS JOIN"
	default:
		return fmt.Sprintf("JoinKind(%d)", int(k))
	}
}

// JoinRef is an explicit join between two FROM items.
type JoinRef struct {
	Kind  JoinKind
	Left  TableRef
	Right TableRef
	On    Expr // nil for CROSS JOIN
}

func (t *JoinRef) tableRefNode() {}

func (t *JoinRef) String() string {
	s := t.Left.String() + " " + t.Kind.String() + " " + t.Right.String()
	if t.On != nil {
		s += " ON " + t.On.String()
	}
	return s
}

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) exprNode() {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return quoteIdent(e.Table) + "." + quoteIdent(e.Name)
	}
	return quoteIdent(e.Name)
}

// Literal is a constant: int64, float64, string, bool or nil (NULL).
type Literal struct {
	Value any
}

func (*Literal) exprNode() {}

func (e *Literal) String() string {
	switch v := e.Value.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(v, 10)
	case float64:
		s := strconv.FormatFloat(v, 'g', -1, 64)
		// Keep a decimal marker so the literal re-parses as a float.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	case bool:
		if v {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// ParamKind is the type of a parameter slot's value.
type ParamKind uint8

// Parameter slot kinds: the literal types a statement template lifts
// out of its WHERE comparisons.
const (
	ParamInt ParamKind = iota
	ParamString
)

func (k ParamKind) String() string {
	if k == ParamString {
		return "string"
	}
	return "int"
}

// Param is a typed parameter slot of a statement template: it stands
// for the Index-th literal lifted out of the statement, whose value is
// supplied with each execution. The parser never produces it.
type Param struct {
	Index int
	Kind  ParamKind
}

func (*Param) exprNode() {}

// String prints the slot with its kind, so templates whose literals
// differ in type never print alike.
func (e *Param) String() string {
	return "$" + strconv.Itoa(e.Index+1) + ":" + e.Kind.String()
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators in precedence groups.
const (
	OpOr BinaryOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
)

func (op BinaryOp) String() string {
	switch op {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpConcat:
		return "||"
	default:
		return fmt.Sprintf("BinaryOp(%d)", int(op))
	}
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

func (*BinaryExpr) exprNode() {}

func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// UnaryExpr is NOT x or -x or +x.
type UnaryExpr struct {
	Op string // "NOT", "-", "+"
	X  Expr
}

func (*UnaryExpr) exprNode() {}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.X.String() + ")"
	}
	return "(" + e.Op + e.X.String() + ")"
}

// FuncCall is a function or aggregate call. CountStar marks COUNT(*).
type FuncCall struct {
	Name      string
	Args      []Expr
	CountStar bool
	Distinct  bool
}

func (*FuncCall) exprNode() {}

func (e *FuncCall) String() string {
	if e.CountStar {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// Subquery is a scalar subquery in expression position.
type Subquery struct {
	Select *SelectStatement
}

func (*Subquery) exprNode() {}

func (e *Subquery) String() string { return "(" + e.Select.String() + ")" }

// InExpr is "x [NOT] IN (list)" or "x [NOT] IN (SELECT ...)".
type InExpr struct {
	X      Expr
	Not    bool
	List   []Expr
	Select *SelectStatement // exclusive with List
}

func (*InExpr) exprNode() {}

func (e *InExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	if e.Select != nil {
		return "(" + e.X.String() + " " + not + "IN (" + e.Select.String() + "))"
	}
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.String()
	}
	return "(" + e.X.String() + " " + not + "IN (" + strings.Join(items, ", ") + "))"
}

// ExistsExpr is "[NOT] EXISTS (SELECT ...)".
type ExistsExpr struct {
	Not    bool
	Select *SelectStatement
}

func (*ExistsExpr) exprNode() {}

func (e *ExistsExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + not + "EXISTS (" + e.Select.String() + "))"
}

// BetweenExpr is "x [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	X      Expr
	Not    bool
	Lo, Hi Expr
}

func (*BetweenExpr) exprNode() {}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// LikeExpr is "x [NOT] LIKE pattern".
type LikeExpr struct {
	X       Expr
	Not     bool
	Pattern Expr
}

func (*LikeExpr) exprNode() {}

func (e *LikeExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "LIKE " + e.Pattern.String() + ")"
}

// IsNullExpr is "x IS [NOT] NULL".
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) exprNode() {}

func (e *IsNullExpr) String() string {
	if e.Not {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

// WhenClause is one WHEN ... THEN ... arm of a CASE.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// CaseExpr is a searched or simple CASE expression.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

func (*CaseExpr) exprNode() {}

func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if e.Operand != nil {
		b.WriteByte(' ')
		b.WriteString(e.Operand.String())
	}
	for _, w := range e.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.String())
		b.WriteString(" THEN ")
		b.WriteString(w.Then.String())
	}
	if e.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X    Expr
	Type string
}

func (*CastExpr) exprNode() {}

func (e *CastExpr) String() string {
	return "CAST(" + e.X.String() + " AS " + e.Type + ")"
}

// String renders the statement as canonical SQL.
func (s *SelectStatement) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if s.Compound != nil {
		b.WriteByte(' ')
		b.WriteString(s.Compound.Op.String())
		if s.Compound.All {
			b.WriteString(" ALL")
		}
		b.WriteByte(' ')
		b.WriteString(s.Compound.Right.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT ")
		b.WriteString(s.Limit.String())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET ")
		b.WriteString(s.Offset.String())
	}
	return b.String()
}

// quoteIdent quotes an identifier only when needed (reserved word or
// non-identifier characters), so canonical SQL stays readable.
func quoteIdent(s string) string {
	need := s == ""
	for i := 0; i < len(s) && !need; i++ {
		c := s[i]
		if !(isIdentStart(c) || i > 0 && isIdentPart(c)) {
			need = true
		}
	}
	if IsKeyword(strings.ToUpper(s)) {
		need = true
	}
	if !need {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Tables returns the set of base table names referenced anywhere in the
// statement (including subqueries). The GSN container uses this to bind
// source queries to their window relations and to validate descriptors.
func (s *SelectStatement) Tables() []string {
	seen := map[string]bool{}
	var out []string
	var visitSelect func(*SelectStatement)
	var visitRef func(TableRef)
	var visitExpr func(Expr)
	visitRef = func(r TableRef) {
		switch t := r.(type) {
		case *TableName:
			up := strings.ToUpper(t.Name)
			if !seen[up] {
				seen[up] = true
				out = append(out, up)
			}
		case *SubqueryRef:
			visitSelect(t.Select)
		case *JoinRef:
			visitRef(t.Left)
			visitRef(t.Right)
			if t.On != nil {
				visitExpr(t.On)
			}
		}
	}
	visitExpr = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *BinaryExpr:
			visitExpr(x.L)
			visitExpr(x.R)
		case *UnaryExpr:
			visitExpr(x.X)
		case *FuncCall:
			for _, a := range x.Args {
				visitExpr(a)
			}
		case *Subquery:
			visitSelect(x.Select)
		case *InExpr:
			visitExpr(x.X)
			for _, it := range x.List {
				visitExpr(it)
			}
			if x.Select != nil {
				visitSelect(x.Select)
			}
		case *ExistsExpr:
			visitSelect(x.Select)
		case *BetweenExpr:
			visitExpr(x.X)
			visitExpr(x.Lo)
			visitExpr(x.Hi)
		case *LikeExpr:
			visitExpr(x.X)
			visitExpr(x.Pattern)
		case *IsNullExpr:
			visitExpr(x.X)
		case *CaseExpr:
			if x.Operand != nil {
				visitExpr(x.Operand)
			}
			for _, w := range x.Whens {
				visitExpr(w.Cond)
				visitExpr(w.Then)
			}
			if x.Else != nil {
				visitExpr(x.Else)
			}
		case *CastExpr:
			visitExpr(x.X)
		}
	}
	visitSelect = func(sel *SelectStatement) {
		for _, c := range sel.Columns {
			if !c.Star {
				visitExpr(c.Expr)
			}
		}
		for _, f := range sel.From {
			visitRef(f)
		}
		visitExpr(sel.Where)
		for _, g := range sel.GroupBy {
			visitExpr(g)
		}
		visitExpr(sel.Having)
		for _, o := range sel.OrderBy {
			visitExpr(o.Expr)
		}
		if sel.Compound != nil {
			visitSelect(sel.Compound.Right)
		}
	}
	visitSelect(s)
	return out
}
