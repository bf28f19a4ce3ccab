package db

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/frame"
)

// Predicate evaluation uses SQL's three-valued logic: each expression
// evaluates to a pair of bitmaps (t, u) where t marks rows on which the
// predicate is TRUE and u marks rows on which it is UNKNOWN (a NULL took
// part in the comparison). WHERE keeps only the TRUE rows, so
// `NOT (x > 5)` correctly excludes rows with NULL x.

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
	return t, err
}

func eval3(f *frame.Frame, expr Expr) (t, u *frame.Bitmap, err error) {
	switch e := expr.(type) {
	case *BinaryLogic:
		t1, u1, err := eval3(f, e.L)
		if err != nil {
			return nil, nil, err
		}
		t2, u2, err := eval3(f, e.R)
		if err != nil {
			return nil, nil, err
		}
		if e.Op == "AND" {
			// TRUE iff both true; UNKNOWN iff both are at least possible
			// (true or unknown) and not both true.
			t = t1.Clone().And(t2)
			lhs := t1.Clone().Or(u1)
			rhs := t2.Clone().Or(u2)
			u = lhs.And(rhs).AndNot(t)
			return t, u, nil
		}
		// OR: TRUE iff either true; UNKNOWN iff some side unknown and none
		// true.
		t = t1.Clone().Or(t2)
		u = u1.Clone().Or(u2).AndNot(t)
		return t, u, nil

	case *NotExpr:
		t1, u1, err := eval3(f, e.Inner)
		if err != nil {
			return nil, nil, err
		}
		// NOT TRUE = FALSE, NOT FALSE = TRUE, NOT UNKNOWN = UNKNOWN.
		t = t1.Clone().Or(u1).Not()
		return t, u1.Clone(), nil

	case *Comparison:
		return evalComparison(f, e)
	case *InExpr:
		return evalIn(f, e)
	case *BetweenExpr:
		return evalBetween(f, e)
	case *LikeExpr:
		return evalLike(f, e)
	case *IsNullExpr:
		return evalIsNull(f, e)
	default:
		return nil, nil, evalErrorf("unsupported expression %T", expr)
	}
}

// nullMask marks the NULL rows of a column.
func nullMask(c *frame.Column, n int) *frame.Bitmap {
	u := frame.NewBitmap(n)
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			u.Set(i)
		}
	}
	return u
}

func lookupColumn(f *frame.Frame, name string) (*frame.Column, error) {
	c, ok := f.Lookup(name)
	if !ok {
		return nil, evalErrorf("unknown column %q in table %q", name, f.Name())
	}
	return c, nil
}

func evalComparison(f *frame.Frame, e *Comparison) (t, u *frame.Bitmap, err error) {
	c, err := lookupColumn(f, e.Column)
	if err != nil {
		return nil, nil, err
	}
	n := f.NumRows()
	t = frame.NewBitmap(n)
	u = nullMask(c, n)

	switch c.Kind() {
	case frame.Numeric:
		if e.Value.IsString {
			return nil, nil, evalErrorf("cannot compare numeric column %q with string %q", e.Column, e.Value.Str)
		}
		v := e.Value.Num
		vals := c.Floats()
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			if numCompare(vals[i], v, e.Op) {
				t.Set(i)
			}
		}
	case frame.Categorical:
		if !e.Value.IsString {
			return nil, nil, evalErrorf("cannot compare categorical column %q with number %v", e.Column, e.Value.Num)
		}
		v := e.Value.Str
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			if strCompare(c.Str(i), v, e.Op) {
				t.Set(i)
			}
		}
	}
	return t, u, nil
}

func numCompare(a, b float64, op string) bool {
	switch op {
	case "=":
		return a == b
	case "!=", "<>":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	default:
		return false
	}
}

func strCompare(a, b, op string) bool {
	switch op {
	case "=":
		return a == b
	case "!=", "<>":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	default:
		return false
	}
}

func evalIn(f *frame.Frame, e *InExpr) (t, u *frame.Bitmap, err error) {
	c, err := lookupColumn(f, e.Column)
	if err != nil {
		return nil, nil, err
	}
	n := f.NumRows()
	t = frame.NewBitmap(n)
	u = nullMask(c, n)

	switch c.Kind() {
	case frame.Numeric:
		set := make(map[float64]bool, len(e.Values))
		for _, lit := range e.Values {
			if lit.IsString {
				return nil, nil, evalErrorf("string literal in IN list for numeric column %q", e.Column)
			}
			set[lit.Num] = true
		}
		vals := c.Floats()
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			if set[vals[i]] != e.Negate {
				t.Set(i)
			}
		}
	case frame.Categorical:
		set := make(map[string]bool, len(e.Values))
		for _, lit := range e.Values {
			if !lit.IsString {
				return nil, nil, evalErrorf("numeric literal in IN list for categorical column %q", e.Column)
			}
			set[lit.Str] = true
		}
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			if set[c.Str(i)] != e.Negate {
				t.Set(i)
			}
		}
	}
	return t, u, nil
}

func evalBetween(f *frame.Frame, e *BetweenExpr) (t, u *frame.Bitmap, err error) {
	c, err := lookupColumn(f, e.Column)
	if err != nil {
		return nil, nil, err
	}
	n := f.NumRows()
	t = frame.NewBitmap(n)
	u = nullMask(c, n)

	switch c.Kind() {
	case frame.Numeric:
		if e.Lo.IsString || e.Hi.IsString {
			return nil, nil, evalErrorf("string bounds in BETWEEN for numeric column %q", e.Column)
		}
		lo, hi := e.Lo.Num, e.Hi.Num
		vals := c.Floats()
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			inside := vals[i] >= lo && vals[i] <= hi
			if inside != e.Negate {
				t.Set(i)
			}
		}
	case frame.Categorical:
		if !e.Lo.IsString || !e.Hi.IsString {
			return nil, nil, evalErrorf("numeric bounds in BETWEEN for categorical column %q", e.Column)
		}
		lo, hi := e.Lo.Str, e.Hi.Str
		for i := 0; i < n; i++ {
			if c.IsNull(i) {
				continue
			}
			s := c.Str(i)
			inside := s >= lo && s <= hi
			if inside != e.Negate {
				t.Set(i)
			}
		}
	}
	return t, u, nil
}

func evalLike(f *frame.Frame, e *LikeExpr) (t, u *frame.Bitmap, err error) {
	c, err := lookupColumn(f, e.Column)
	if err != nil {
		return nil, nil, err
	}
	if c.Kind() != frame.Categorical {
		return nil, nil, evalErrorf("LIKE requires a categorical column, %q is %s", e.Column, c.Kind())
	}
	re, err := likeToRegexp(e.Pattern)
	if err != nil {
		return nil, nil, err
	}
	n := f.NumRows()
	t = frame.NewBitmap(n)
	u = nullMask(c, n)
	// Match each dictionary entry once, then scan codes.
	dict := c.Dict()
	matches := make([]bool, len(dict))
	for code, s := range dict {
		matches[code] = re.MatchString(s)
	}
	codes := c.Codes()
	for i := 0; i < n; i++ {
		code := codes[i]
		if code < 0 {
			continue
		}
		if matches[code] != e.Negate {
			t.Set(i)
		}
	}
	return t, u, nil
}

// likeToRegexp compiles a SQL LIKE pattern (% = any run, _ = any one rune)
// into an anchored regular expression.
func likeToRegexp(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("^")
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

func evalIsNull(f *frame.Frame, e *IsNullExpr) (t, u *frame.Bitmap, err error) {
	c, err := lookupColumn(f, e.Column)
	if err != nil {
		return nil, nil, err
	}
	n := f.NumRows()
	t = nullMask(c, n)
	if e.Negate {
		t.Not()
	}
	// IS NULL is never unknown.
	return t, frame.NewBitmap(n), nil
}
