package db

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/frame"
)

// fuzzSeeds covers every production of the dialect plus the sharp edges the
// printer has to survive: quoted identifiers, keyword-shaped names, escaped
// quotes in string literals, exponent-formatted numbers, and aggregate
// aliases. The same strings are checked in under testdata/fuzz/FuzzParseSQL
// so `go test -run Fuzz` (CI's seed-corpus replay) exercises them without
// the fuzz engine.
var fuzzSeeds = []string{
	"SELECT * FROM t",
	"SELECT a, b FROM t WHERE x > 5 ORDER BY a DESC, b LIMIT 3",
	"SELECT * FROM uscrime WHERE crime_violent_rate >= 1300",
	"SELECT * FROM t WHERE NOT (a = 1 AND b < 2) OR c >= -3.5",
	"SELECT * FROM t WHERE g IN ('a', 'b''c') AND h NOT IN ('z')",
	"SELECT * FROM t WHERE x BETWEEN -1.5 AND 2e3 OR y NOT BETWEEN 0 AND 1",
	"SELECT * FROM t WHERE name LIKE 'a%_b' AND name NOT LIKE '%''%'",
	"SELECT * FROM t WHERE x IS NULL AND y IS NOT NULL",
	"SELECT COUNT(*), SUM(v) AS total, AVG(v) FROM t WHERE v != 0",
	"SELECT g, COUNT(v) FROM t GROUP BY g ORDER BY g",
	"SELECT g FROM t GROUP BY g",
	`SELECT "héllo", "select" FROM "group" WHERE "from" = 1`,
	`SELECT "" FROM t WHERE "a b" <> 'c'`,
	"SELECT * FROM t WHERE x = 1e-09 AND y <= 1.7976931348623157e+308",
	"select * from t where x < 0.5",
	"SELECT * FROM t WHERE x = '\x01\x02'",
	`SELECT SUM("") FROM t`, // empty identifier must not collapse to SUM(*)
}

// FuzzParseSQL asserts the parser's two safety properties on arbitrary
// input: it never panics (errors are *SyntaxError values), and any
// statement it accepts pretty-prints to SQL that reparses to the same
// canonical rendering (parse → print → reparse is a fixed point).
func FuzzParseSQL(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			var syn *SyntaxError
			if !errors.As(err, &syn) {
				t.Fatalf("Parse(%q) returned a non-syntax error: %v", input, err)
			}
			return
		}
		rendered := stmt.String()
		reparsed, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted input %q renders to %q, which does not reparse: %v", input, rendered, err)
		}
		if again := reparsed.String(); again != rendered {
			t.Fatalf("round trip of %q diverged:\nfirst:  %q\nsecond: %q", input, rendered, again)
		}
	})
}

// fuzzCatalog holds table t, whose columns carry the names the seeds use,
// with NULLs in numeric and categorical columns alike, a -0 beside a 0 in
// c, a category spelled N beside g's NULL, and a value in name that spans
// two lines.
func fuzzCatalog(t testing.TB) *Catalog {
	t.Helper()
	nan := math.NaN()
	num := map[string][]float64{
		"a": {1, 2, nan, 4, 1, 2, 3},
		"c": {-3.5, 0, 1, nan, 2, -1, math.Copysign(0, -1)},
		"v": {0, 5, 5, nan, -2, 7, 1},
		"x": {5, 6, 0.5, 7, nan, 1e-9, 2},
		"y": {0, 1, nan, 0.5, 2, 1, 1},
	}
	cat := map[string][]string{
		"b":    {"p", "q", "", "q", "p", "r", ""},
		"g":    {"a", "b", "b'c", "", "N", "z", "b"},
		"h":    {"z", "", "y", "z", "y", "x", "x"},
		"name": {"ab", "a_b", "", "b%", "a'b", "xab", "a\nb"},
	}
	b := frame.NewBuilder("t")
	for _, name := range []string{"a", "c", "v", "x", "y"} {
		col := b.AddNumeric(name)
		for _, v := range num[name] {
			b.AppendFloat(col, v)
		}
	}
	for _, name := range []string{"b", "g", "h", "name"} {
		col := b.AddCategorical(name)
		for _, v := range cat[name] {
			if v == "" {
				b.AppendNull(col)
			} else {
				b.AppendStr(col, v)
			}
		}
	}
	c := NewCatalog()
	if err := c.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzQuery runs arbitrary statements through Query over a small table
// with NULLs. Query never panics and fails only with a *SyntaxError or an
// *EvalError; every statement it accepts gathers its rows without error.
// Its answers match refEval, a row-at-a-time reference: the selection is
// the reference's, a projection returns the selected rows cut at LIMIT,
// and an aggregation returns one group per distinct tuple of grouping
// values among the selected rows (equal under =, NULL equal only to NULL),
// cut at LIMIT, whose COUNT(*) sums to the selected rows. The server
// characterizes the selection of any statement Query accepts without
// gathering, so a statement whose rows could not be gathered must be
// refused by Query itself.
func FuzzQuery(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		"SELECT g, COUNT(*) AS n, MIN(name), MAX(h) FROM t WHERE x > 1 GROUP BY g ORDER BY n DESC, g LIMIT 2",
		"SELECT * FROM t ORDER BY g DESC, x LIMIT 3",
		"SELECT name, v FROM t WHERE b IS NULL ORDER BY v",
		"SELECT COUNT(*), COUNT(*) FROM t",
		"SELECT x, x FROM t",
		"SELECT g, COUNT(*) AS g FROM t GROUP BY g",
		"SELECT h FROM t GROUP BY h, h",
		"SELECT AVG(y) FROM t ORDER BY avg_y LIMIT 0",
		"SELECT x FROM t ORDER BY a",
		"SELECT SUM(g) FROM t",
		"SELECT c, g, COUNT(*) FROM t WHERE c = 0 OR g IS NULL GROUP BY c, g",
		"SELECT * FROM t WHERE NOT (c <> 0) AND name NOT LIKE '%_'",
	} {
		f.Add(s)
	}
	cat := fuzzCatalog(f)
	base, _ := cat.Table("t")
	f.Fuzz(func(t *testing.T, input string) {
		res, err := cat.Query(input)
		if err != nil {
			var syn *SyntaxError
			var ev *EvalError
			if !errors.As(err, &syn) && !errors.As(err, &ev) {
				t.Fatalf("Query(%q) returned %T: %v", input, err, err)
			}
			return
		}
		var selected []int
		for r := 0; r < base.NumRows(); r++ {
			if res.Stmt.Where == nil || refEval(base, res.Stmt.Where, r) == refTrue {
				selected = append(selected, r)
			}
		}
		if got := res.Mask.Indices(); !slices.Equal(got, selected) {
			t.Fatalf("Query(%q) selected rows %v, the reference %v", input, got, selected)
		}
		rows, err := res.Rows()
		if err != nil {
			t.Fatalf("Query(%q) accepted a statement whose rows fail: %v", input, err)
		}
		want := len(selected)
		if len(res.Stmt.Aggs) > 0 {
			var keys [][]any
			for _, r := range selected {
				key := make([]any, len(res.Stmt.GroupBy))
				for i, name := range res.Stmt.GroupBy {
					key[i] = refCell(base, name, r)
				}
				if !slices.ContainsFunc(keys, func(k []any) bool { return slices.Equal(k, key) }) {
					keys = append(keys, key)
				}
			}
			want = len(keys)
		}
		if lim := res.Stmt.Limit; lim >= 0 && lim < want {
			want = lim
		}
		if rows.NumRows() != want {
			t.Fatalf("Query(%q) gathered %d rows, want %d", input, rows.NumRows(), want)
		}
		for i, a := range res.Stmt.Aggs {
			if a.Func != "COUNT" || a.Column != "" || res.Stmt.Limit >= 0 {
				continue
			}
			sum := 0.0
			for r := 0; r < rows.NumRows(); r++ {
				sum += rows.Col(len(res.Stmt.GroupBy) + i).Float(r)
			}
			if int(sum) != len(selected) {
				t.Fatalf("Query(%q): COUNT(*) sums to %v over %d selected rows", input, sum, len(selected))
			}
		}
	})
}

// refTruth is a three-valued truth value.
type refTruth int

const (
	refFalse refTruth = iota
	refTrue
	refUnknown
)

func refBool(b bool) refTruth {
	if b {
		return refTrue
	}
	return refFalse
}

// refCell returns row r of the named column through Column.Value: a
// float64, a string, or nil for NULL.
func refCell(f *frame.Frame, name string, r int) any {
	c, _ := f.Lookup(name)
	return c.Value(r)
}

// refEval is FuzzQuery's reference: it evaluates a predicate that Query
// accepted on row r alone, one cell at a time, with SQL's three-valued
// logic.
func refEval(f *frame.Frame, expr Expr, r int) refTruth {
	var col string
	var test func(v any) bool
	switch e := expr.(type) {
	case *BinaryLogic:
		a, b := refEval(f, e.L, r), refEval(f, e.R, r)
		if e.Op == "AND" && (a == refFalse || b == refFalse) || e.Op == "OR" && (a == refTrue || b == refTrue) {
			return refBool(e.Op == "OR")
		}
		if a == refUnknown || b == refUnknown {
			return refUnknown
		}
		return a
	case *NotExpr:
		if inner := refEval(f, e.Inner, r); inner != refUnknown {
			return refBool(inner == refFalse)
		}
		return refUnknown
	case *IsNullExpr:
		return refBool((refCell(f, e.Column, r) == nil) != e.Negate)
	case *Comparison:
		col = e.Column
		test = func(v any) bool {
			c := refOrder(v, e.Value)
			switch e.Op {
			case "=":
				return c == 0
			case "!=", "<>":
				return c != 0
			case "<":
				return c < 0
			case "<=":
				return c <= 0
			case ">":
				return c > 0
			}
			return c >= 0
		}
	case *InExpr:
		col = e.Column
		test = func(v any) bool {
			return slices.ContainsFunc(e.Values, func(lit Literal) bool { return refOrder(v, lit) == 0 }) != e.Negate
		}
	case *BetweenExpr:
		col = e.Column
		test = func(v any) bool { return (refOrder(v, e.Lo) >= 0 && refOrder(v, e.Hi) <= 0) != e.Negate }
	case *LikeExpr:
		col = e.Column
		test = func(v any) bool { return refLike([]rune(v.(string)), []rune(e.Pattern)) != e.Negate }
	}
	v := refCell(f, col, r)
	if v == nil {
		return refUnknown
	}
	return refBool(test(v))
}

// refOrder compares a non-NULL cell with a literal of its kind.
func refOrder(v any, lit Literal) int {
	if s, ok := v.(string); ok {
		return strings.Compare(s, lit.Str)
	}
	return cmp.Compare(v.(float64), lit.Num)
}

// refLike matches s against a LIKE pattern: % matches any run of runes and
// _ any one rune.
func refLike(s, p []rune) bool {
	if len(p) == 0 {
		return len(s) == 0
	}
	switch p[0] {
	case '%':
		for len(p) > 1 && p[1] == '%' {
			p = p[1:]
		}
		for i := 0; i <= len(s); i++ {
			if refLike(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return len(s) > 0 && refLike(s[1:], p[1:])
	}
	return len(s) > 0 && s[0] == p[0] && refLike(s[1:], p[1:])
}

// TestQuoteIdent pins the printer's quoting rule directly.
func TestQuoteIdent(t *testing.T) {
	cases := map[string]string{
		"plain":  "plain",
		"a_b9":   "a_b9",
		"From":   `"From"`, // keyword, case-insensitively
		"count":  `"count"`,
		"9lives": `"9lives"`, // leading digit
		"a b":    `"a b"`,
		"héllo":  `"héllo"`, // non-ASCII must quote: the lexer scans bytes
		"":       `""`,
		"semi;":  `"semi;"`,
		"tab\tx": "\"tab\tx\"",
	}
	for in, want := range cases {
		if got := quoteIdent(in); got != want {
			t.Errorf("quoteIdent(%q) = %s, want %s", in, got, want)
		}
	}
}
