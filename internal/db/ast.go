package db

import (
	"fmt"
	"strconv"
	"strings"
)

// quoteIdent renders an identifier so the lexer reads it back verbatim:
// plain ASCII identifiers print bare, while anything else — keywords
// (case-insensitively), non-ASCII bytes (the lexer scans bytes, so bare
// multi-byte runes would not survive), empty names, or names with special
// characters — prints double-quoted. Identifiers cannot contain a double
// quote (the quoted form has no escape), so quoting is always sufficient.
func quoteIdent(name string) string {
	plain := len(name) > 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				plain = false
			}
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	if plain && keywords[strings.ToUpper(name)] {
		plain = false
	}
	if plain {
		return name
	}
	return `"` + name + `"`
}

// quoteIdents maps quoteIdent over a name list.
func quoteIdents(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = quoteIdent(n)
	}
	return out
}

// SelectStmt is the parsed form of a query.
type SelectStmt struct {
	// Columns lists projected column names; empty means SELECT * unless
	// aggregates are present.
	Columns []string
	// Aggs lists aggregate projections (COUNT/SUM/AVG/MIN/MAX). When any
	// are present the query runs in aggregation mode: plain Columns must
	// appear in GroupBy, and the output holds one row per group.
	Aggs []AggItem
	// GroupBy lists the grouping columns, in output order.
	GroupBy []string
	// Table is the FROM target.
	Table string
	// Where is the selection predicate; nil selects every row.
	Where Expr
	// OrderBy lists sort keys applied to the result.
	OrderBy []OrderKey
	// Limit caps the result rows; negative means no limit.
	Limit int
}

// AggItem is one aggregate projection.
type AggItem struct {
	// Func is COUNT, SUM, AVG, MIN or MAX (uppercase).
	Func string
	// Column is the aggregated column; empty for COUNT(*).
	Column string
	// Alias is the output column name; defaults to e.g. "avg_price" or
	// "count".
	Alias string
}

// OutputName returns the output column name of the aggregate.
func (a AggItem) OutputName() string {
	if a.Alias != "" {
		return a.Alias
	}
	lower := strings.ToLower(a.Func)
	if a.Column == "" {
		return lower
	}
	return lower + "_" + a.Column
}

// String renders the aggregate as SQL. Only COUNT's empty column means
// "*"; an empty column on any other function is a genuine (quoted-empty)
// identifier and must round-trip as such.
func (a AggItem) String() string {
	arg := quoteIdent(a.Column)
	if a.Func == "COUNT" && a.Column == "" {
		arg = "*"
	}
	s := fmt.Sprintf("%s(%s)", a.Func, arg)
	if a.Alias != "" {
		s += " AS " + quoteIdent(a.Alias)
	}
	return s
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Column string
	Desc   bool
}

// String reconstructs a canonical SQL rendering of the statement.
// Identifiers that would not lex back bare (keywords, non-ASCII or special
// characters) are double-quoted, so Parse(stmt.String()) round-trips.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	var items []string
	items = append(items, quoteIdents(s.Columns)...)
	for _, a := range s.Aggs {
		items = append(items, a.String())
	}
	if len(items) == 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(items, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(quoteIdent(s.Table))
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(quoteIdents(s.GroupBy), ", "))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		parts := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			parts[i] = quoteIdent(k.Column)
			if k.Desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// PredicateColumns returns the columns the WHERE clause references, each
// once, in first-seen order of a left-to-right walk; nil when there is no
// WHERE clause (or no statement).
func (s *SelectStmt) PredicateColumns() []string {
	if s == nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	var walk func(e Expr)
	walk = func(e Expr) {
		var col string
		switch x := e.(type) {
		case *BinaryLogic:
			walk(x.L)
			walk(x.R)
			return
		case *NotExpr:
			walk(x.Inner)
			return
		case *Comparison:
			col = x.Column
		case *InExpr:
			col = x.Column
		case *BetweenExpr:
			col = x.Column
		case *LikeExpr:
			col = x.Column
		case *IsNullExpr:
			col = x.Column
		default:
			return
		}
		if !seen[col] {
			seen[col] = true
			out = append(out, col)
		}
	}
	walk(s.Where)
	return out
}

// Expr is a Boolean predicate node.
type Expr interface {
	// String renders the expression as SQL.
	String() string
}

// BinaryLogic is AND / OR over two predicates.
type BinaryLogic struct {
	Op    string // "AND" or "OR"
	L, R  Expr
	_priv struct{}
}

// String implements Expr.
func (b *BinaryLogic) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L.String(), b.Op, b.R.String())
}

// NotExpr negates a predicate.
type NotExpr struct {
	Inner Expr
}

// String implements Expr.
func (n *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", n.Inner.String()) }

// Comparison is column <op> literal.
type Comparison struct {
	Column string
	Op     string // =, !=, <>, <, <=, >, >=
	Value  Literal
}

// String implements Expr.
func (c *Comparison) String() string {
	return fmt.Sprintf("%s %s %s", quoteIdent(c.Column), c.Op, c.Value.String())
}

// InExpr is column IN (v1, v2, ...).
type InExpr struct {
	Column string
	Values []Literal
	Negate bool
}

// String implements Expr.
func (e *InExpr) String() string {
	parts := make([]string, len(e.Values))
	for i, v := range e.Values {
		parts[i] = v.String()
	}
	op := "IN"
	if e.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", quoteIdent(e.Column), op, strings.Join(parts, ", "))
}

// BetweenExpr is column BETWEEN lo AND hi (inclusive).
type BetweenExpr struct {
	Column string
	Lo, Hi Literal
	Negate bool
}

// String implements Expr.
func (e *BetweenExpr) String() string {
	op := "BETWEEN"
	if e.Negate {
		op = "NOT BETWEEN"
	}
	return fmt.Sprintf("%s %s %s AND %s", quoteIdent(e.Column), op, e.Lo.String(), e.Hi.String())
}

// LikeExpr is column LIKE 'pattern' with % and _ wildcards.
type LikeExpr struct {
	Column  string
	Pattern string
	Negate  bool
}

// String implements Expr.
func (e *LikeExpr) String() string {
	op := "LIKE"
	if e.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("%s %s '%s'", quoteIdent(e.Column), op, strings.ReplaceAll(e.Pattern, "'", "''"))
}

// IsNullExpr is column IS [NOT] NULL.
type IsNullExpr struct {
	Column string
	Negate bool
}

// String implements Expr.
func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("%s IS NOT NULL", quoteIdent(e.Column))
	}
	return fmt.Sprintf("%s IS NULL", quoteIdent(e.Column))
}

// Literal is a typed constant in a predicate.
type Literal struct {
	// IsString distinguishes 'text' literals from numbers.
	IsString bool
	Str      string
	Num      float64
}

// NumberLit builds a numeric literal.
func NumberLit(v float64) Literal { return Literal{Num: v} }

// StringLit builds a string literal.
func StringLit(s string) Literal { return Literal{IsString: true, Str: s} }

// String renders the literal as SQL.
func (l Literal) String() string {
	if l.IsString {
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	}
	return strconv.FormatFloat(l.Num, 'g', -1, 64)
}
