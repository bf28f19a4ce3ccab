package db

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"

	"repro/internal/frame"
)

// Predicate evaluation uses SQL's three-valued logic: each expression
// evaluates to a pair of row masks (t, u), 64 rows to a word, where t marks
// rows on which the predicate is TRUE and u marks rows on which it is
// UNKNOWN. A leaf is UNKNOWN exactly on its column's NULL rows, the
// complement of frame.Frame.ColumnValidWords, so its test sees only
// non-NULL values. WHERE keeps only the TRUE rows, so `NOT (x > 5)`
// correctly excludes rows with NULL x.

// EvalError reports a semantic failure during predicate evaluation.
type EvalError struct {
	Msg string
}

// Error implements the error interface.
func (e *EvalError) Error() string { return "db: " + e.Msg }

func evalErrorf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// EvalPredicate evaluates expr over f and returns the TRUE bitmap. A nil
// expr, a statement without WHERE, selects every row.
func EvalPredicate(f *frame.Frame, expr Expr) (*frame.Bitmap, error) {
	if expr == nil {
		all := frame.NewBitmap(f.NumRows())
		all.SetAll()
		return all, nil
	}
	t, _, err := eval3(f, expr)
	if err != nil {
		return nil, err
	}
	return frame.BitmapFromWords(f.NumRows(), t)
}

// eval3 returns the TRUE and UNKNOWN masks of expr. Both are freshly
// allocated, so the connectives combine their operands' masks in place.
func eval3(f *frame.Frame, expr Expr) (t, u []uint64, err error) {
	switch e := expr.(type) {
	case *BinaryLogic:
		if t, u, err = eval3(f, e.L); err != nil {
			return nil, nil, err
		}
		t2, u2, err := eval3(f, e.R)
		if err != nil {
			return nil, nil, err
		}
		for i := range t {
			if e.Op == "AND" {
				// TRUE iff both true; UNKNOWN iff both are at least possible
				// (true or unknown) and not both true.
				both := t[i] & t2[i]
				u[i] = (t[i] | u[i]) & (t2[i] | u2[i]) &^ both
				t[i] = both
			} else {
				// OR: TRUE iff either true; UNKNOWN iff some side unknown and
				// none true.
				t[i] |= t2[i]
				u[i] = (u[i] | u2[i]) &^ t[i]
			}
		}
		return t, u, nil

	case *NotExpr:
		if t, u, err = eval3(f, e.Inner); err != nil {
			return nil, nil, err
		}
		// NOT TRUE = FALSE, NOT FALSE = TRUE, NOT UNKNOWN = UNKNOWN.
		for i := range t {
			t[i] |= u[i]
		}
		return not(t, f.NumRows()), u, nil

	case *IsNullExpr:
		col, err := lookupColumn(f, e.Column)
		if err != nil {
			return nil, nil, err
		}
		t = nullWords(f, col)
		if e.Negate {
			not(t, f.NumRows())
		}
		// IS NULL is never unknown.
		return t, make([]uint64, len(t)), nil

	default:
		l, err := resolveLeaf(f, expr)
		if err != nil {
			return nil, nil, err
		}
		return l.scan(f), nullWords(f, l.col), nil
	}
}

// not complements the row mask w over n rows in place, keeping the bits
// past the last row clear, and returns it.
func not(w []uint64, n int) []uint64 {
	for i := range w {
		w[i] = ^w[i]
	}
	if rem := uint(n) & 63; rem != 0 {
		w[len(w)-1] &= 1<<rem - 1
	}
	return w
}

// nullWords returns a fresh mask of column col's NULL rows.
func nullWords(f *frame.Frame, col int) []uint64 {
	return not(slices.Clone(f.ColumnValidWords(col)), f.NumRows())
}

func lookupColumn(f *frame.Frame, name string) (int, error) {
	col := f.ColIndex(name)
	if col < 0 {
		return -1, evalErrorf("unknown column %q in table %q", name, f.Name())
	}
	return col, nil
}

// leaf is a predicate leaf resolved once per statement: its column and a
// test of that column's non-NULL values, num on a numeric column and str
// on a categorical one.
type leaf struct {
	col int
	num func(float64) bool
	str func(string) bool
}

// resolveLeaf checks a leaf's column and literal kinds and builds its test.
func resolveLeaf(f *frame.Frame, expr Expr) (l leaf, err error) {
	var name string
	switch e := expr.(type) {
	case *Comparison:
		name = e.Column
	case *InExpr:
		name = e.Column
	case *BetweenExpr:
		name = e.Column
	case *LikeExpr:
		name = e.Column
	default:
		return l, evalErrorf("unsupported expression %T", expr)
	}
	if l.col, err = lookupColumn(f, name); err != nil {
		return l, err
	}
	numeric := f.Col(l.col).Kind() == frame.Numeric

	switch e := expr.(type) {
	case *Comparison:
		switch {
		case numeric && e.Value.IsString:
			return l, evalErrorf("cannot compare numeric column %q with string %q", e.Column, e.Value.Str)
		case !numeric && !e.Value.IsString:
			return l, evalErrorf("cannot compare categorical column %q with number %v", e.Column, e.Value.Num)
		case numeric:
			l.num = compareTo(e.Op, e.Value.Num)
		default:
			l.str = compareTo(e.Op, e.Value.Str)
		}

	case *InExpr:
		if numeric {
			set := make(map[float64]bool, len(e.Values))
			for _, lit := range e.Values {
				if lit.IsString {
					return l, evalErrorf("string literal in IN list for numeric column %q", e.Column)
				}
				set[lit.Num] = true
			}
			l.num = func(v float64) bool { return set[v] != e.Negate }
		} else {
			set := make(map[string]bool, len(e.Values))
			for _, lit := range e.Values {
				if !lit.IsString {
					return l, evalErrorf("numeric literal in IN list for categorical column %q", e.Column)
				}
				set[lit.Str] = true
			}
			l.str = func(s string) bool { return set[s] != e.Negate }
		}

	case *BetweenExpr:
		switch {
		case numeric && (e.Lo.IsString || e.Hi.IsString):
			return l, evalErrorf("string bounds in BETWEEN for numeric column %q", e.Column)
		case !numeric && (!e.Lo.IsString || !e.Hi.IsString):
			return l, evalErrorf("numeric bounds in BETWEEN for categorical column %q", e.Column)
		case numeric:
			l.num = between(e.Lo.Num, e.Hi.Num, e.Negate)
		default:
			l.str = between(e.Lo.Str, e.Hi.Str, e.Negate)
		}

	case *LikeExpr:
		if numeric {
			return l, evalErrorf("LIKE requires a categorical column, %q is %s", e.Column, frame.Numeric)
		}
		re, err := likeToRegexp(e.Pattern)
		if err != nil {
			return l, err
		}
		l.str = func(s string) bool { return re.MatchString(s) != e.Negate }
	}
	return l, nil
}

// compareTo returns the test `x op v`.
func compareTo[T cmp.Ordered](op string, v T) func(T) bool {
	switch op {
	case "=":
		return func(x T) bool { return x == v }
	case "!=", "<>":
		return func(x T) bool { return x != v }
	case "<":
		return func(x T) bool { return x < v }
	case "<=":
		return func(x T) bool { return x <= v }
	case ">":
		return func(x T) bool { return x > v }
	case ">=":
		return func(x T) bool { return x >= v }
	default:
		return func(T) bool { return false }
	}
}

// between returns the test `x BETWEEN lo AND hi`, or NOT BETWEEN.
func between[T cmp.Ordered](lo, hi T, negate bool) func(T) bool {
	return func(x T) bool { return (x >= lo && x <= hi) != negate }
}

// scan returns the mask of the non-NULL rows that pass the leaf's test. A
// categorical test runs once per dictionary entry, and the scan looks up
// each row's code.
func (l leaf) scan(f *frame.Frame) []uint64 {
	c, valid := f.Col(l.col), f.ColumnValidWords(l.col)
	if l.num != nil {
		return scanWords(c.Floats(), valid, l.num)
	}
	pass := make([]bool, len(c.Dict()))
	for code, s := range c.Dict() {
		pass[code] = l.str(s)
	}
	return scanWords(c.Codes(), valid, func(code int32) bool { return code >= 0 && pass[code] })
}

// scanWords sets bit i&63 of word i>>6 where test(vals[i]) holds, 64 rows
// at a time, and ANDs each word with the validity word.
func scanWords[T any](vals []T, valid []uint64, test func(T) bool) []uint64 {
	t := make([]uint64, len(valid))
	for w := range t {
		var word uint64
		for i, v := range vals[w<<6 : min(w<<6+64, len(vals))] {
			if test(v) {
				word |= 1 << i
			}
		}
		t[w] = word & valid[w]
	}
	return t
}

// likeToRegexp compiles a SQL LIKE pattern (% = any run, _ = any one rune,
// a newline included) into an anchored regular expression.
func likeToRegexp(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile(b.String())
	if err != nil {
		return nil, evalErrorf("invalid LIKE pattern %q: %v", pattern, err)
	}
	return re, nil
}
