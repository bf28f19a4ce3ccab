package db

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/randx"
)

// randomExpr builds a random predicate tree over the given column names.
func randomExpr(r *randx.Source, numeric, categorical []string, depth int) Expr {
	if depth <= 0 || r.Bernoulli(0.4) {
		// Leaf predicate.
		switch r.Intn(5) {
		case 0:
			col := numeric[r.Intn(len(numeric))]
			ops := []string{"=", "!=", "<", "<=", ">", ">="}
			return &Comparison{Column: col, Op: ops[r.Intn(len(ops))],
				Value: NumberLit(math.Round(r.Uniform(-50, 50)*100) / 100)}
		case 1:
			col := categorical[r.Intn(len(categorical))]
			vals := []Literal{StringLit("a"), StringLit("b'c"), StringLit("z")}
			n := r.Intn(2) + 1
			return &InExpr{Column: col, Values: vals[:n], Negate: r.Bernoulli(0.5)}
		case 2:
			col := numeric[r.Intn(len(numeric))]
			lo := math.Round(r.Uniform(-50, 0))
			hi := math.Round(r.Uniform(0, 50))
			return &BetweenExpr{Column: col, Lo: NumberLit(lo), Hi: NumberLit(hi),
				Negate: r.Bernoulli(0.5)}
		case 3:
			col := categorical[r.Intn(len(categorical))]
			pats := []string{"a%", "%b", "_", "%", "x_y%"}
			return &LikeExpr{Column: col, Pattern: pats[r.Intn(len(pats))],
				Negate: r.Bernoulli(0.5)}
		default:
			cols := append(append([]string{}, numeric...), categorical...)
			return &IsNullExpr{Column: cols[r.Intn(len(cols))], Negate: r.Bernoulli(0.5)}
		}
	}
	switch r.Intn(3) {
	case 0:
		return &NotExpr{Inner: randomExpr(r, numeric, categorical, depth-1)}
	case 1:
		return &BinaryLogic{Op: "AND",
			L: randomExpr(r, numeric, categorical, depth-1),
			R: randomExpr(r, numeric, categorical, depth-1)}
	default:
		return &BinaryLogic{Op: "OR",
			L: randomExpr(r, numeric, categorical, depth-1),
			R: randomExpr(r, numeric, categorical, depth-1)}
	}
}

// TestParserRoundTripProperty: for randomly generated statements,
// Parse(stmt.String()).String() == stmt.String(), and evaluation of the
// reparsed statement selects the same rows.
func TestParserRoundTripProperty(t *testing.T) {
	numeric := []string{"x", "y"}
	categorical := []string{"g", "h"}

	// A fixture table with NULLs sprinkled in.
	r := randx.New(2024)
	n := 300
	b := frame.NewBuilder("t")
	xi := b.AddNumeric("x")
	yi := b.AddNumeric("y")
	gi := b.AddCategorical("g")
	hi := b.AddCategorical("h")
	cats := []string{"a", "b'c", "z", "x1y22", "other"}
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.1) {
			b.AppendNull(xi)
		} else {
			b.AppendFloat(xi, math.Round(r.Uniform(-60, 60)))
		}
		if r.Bernoulli(0.1) {
			b.AppendNull(yi)
		} else {
			b.AppendFloat(yi, math.Round(r.Uniform(-60, 60)))
		}
		if r.Bernoulli(0.1) {
			b.AppendNull(gi)
		} else {
			b.AppendStr(gi, cats[r.Intn(len(cats))])
		}
		b.AppendStr(hi, cats[r.Intn(len(cats))])
	}
	cat := NewCatalog()
	if err := cat.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 200; trial++ {
		expr := randomExpr(r, numeric, categorical, 3)
		stmt := &SelectStmt{Table: "t", Where: expr, Limit: -1}
		rendered := stmt.String()

		reparsed, err := Parse(rendered)
		if err != nil {
			t.Fatalf("trial %d: rendering %q does not parse: %v", trial, rendered, err)
		}
		if got := reparsed.String(); got != rendered {
			t.Fatalf("trial %d: round trip diverged:\n%q\n%q", trial, rendered, got)
		}

		// Evaluation equivalence between the original AST and the
		// reparsed one.
		res1, err := cat.Execute(stmt)
		if err != nil {
			t.Fatalf("trial %d: executing original: %v", trial, err)
		}
		res2, err := cat.Execute(reparsed)
		if err != nil {
			t.Fatalf("trial %d: executing reparsed: %v", trial, err)
		}
		if !res1.Mask.Equal(res2.Mask) {
			t.Fatalf("trial %d: masks differ for %q", trial, rendered)
		}
	}
}

// TestDeMorganProperty: NOT(a AND b) selects the same rows as
// (NOT a) OR (NOT b) under three-valued logic.
func TestDeMorganProperty(t *testing.T) {
	r := randx.New(99)
	n := 200
	b := frame.NewBuilder("t")
	xi := b.AddNumeric("x")
	yi := b.AddNumeric("y")
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.15) {
			b.AppendNull(xi)
		} else {
			b.AppendFloat(xi, math.Round(r.Uniform(-10, 10)))
		}
		if r.Bernoulli(0.15) {
			b.AppendNull(yi)
		} else {
			b.AppendFloat(yi, math.Round(r.Uniform(-10, 10)))
		}
	}
	f := b.MustBuild()

	for trial := 0; trial < 100; trial++ {
		a := &Comparison{Column: "x", Op: ">", Value: NumberLit(math.Round(r.Uniform(-10, 10)))}
		c := &Comparison{Column: "y", Op: "<=", Value: NumberLit(math.Round(r.Uniform(-10, 10)))}

		lhs := &NotExpr{Inner: &BinaryLogic{Op: "AND", L: a, R: c}}
		rhs := &BinaryLogic{Op: "OR", L: &NotExpr{Inner: a}, R: &NotExpr{Inner: c}}

		m1, err := EvalPredicate(f, lhs)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := EvalPredicate(f, rhs)
		if err != nil {
			t.Fatal(err)
		}
		if !m1.Equal(m2) {
			t.Fatalf("trial %d: De Morgan violated:\nNOT(A AND B) = %v\nNOT A OR NOT B = %v",
				trial, m1.Indices(), m2.Indices())
		}
	}
}

// TestPredicateComplementProperty: P and NOT P never select the same row,
// and rows selected by neither must have a NULL involved.
func TestPredicateComplementProperty(t *testing.T) {
	r := randx.New(123)
	n := 150
	vals := make([]float64, n)
	for i := range vals {
		if r.Bernoulli(0.2) {
			vals[i] = math.NaN()
		} else {
			vals[i] = math.Round(r.Uniform(-5, 5))
		}
	}
	f := frame.MustNew("t", []*frame.Column{frame.NewNumericColumn("x", vals)})
	col, _ := f.Lookup("x")

	for trial := 0; trial < 50; trial++ {
		p := &Comparison{Column: "x", Op: ">", Value: NumberLit(math.Round(r.Uniform(-5, 5)))}
		mp, err := EvalPredicate(f, p)
		if err != nil {
			t.Fatal(err)
		}
		mn, err := EvalPredicate(f, &NotExpr{Inner: p})
		if err != nil {
			t.Fatal(err)
		}
		if mp.Clone().And(mn).Count() != 0 {
			t.Fatal("P and NOT P overlap")
		}
		neither := mp.Clone().Or(mn).Not()
		neither.ForEach(func(i int) {
			if !col.IsNull(i) {
				t.Fatalf("row %d selected by neither P nor NOT P but x is not NULL", i)
			}
		})
	}
}

// TestAggregationConsistencyProperty: SUM over groups equals the global
// SUM, and group COUNTs sum to the global COUNT, for random groupings.
func TestAggregationConsistencyProperty(t *testing.T) {
	r := randx.New(7)
	n := 500
	b := frame.NewBuilder("t")
	gi := b.AddCategorical("g")
	vi := b.AddNumeric("v")
	for i := 0; i < n; i++ {
		b.AppendStr(gi, fmt.Sprintf("g%d", r.Intn(7)))
		if r.Bernoulli(0.1) {
			b.AppendNull(vi)
		} else {
			b.AppendFloat(vi, math.Round(r.Uniform(0, 100)))
		}
	}
	cat := NewCatalog()
	if err := cat.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}

	global, err := cat.Query("SELECT COUNT(v), SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	globalRows := mustRows(t, global)
	grouped, err := cat.Query("SELECT g, COUNT(v), SUM(v) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	groupedRows := mustRows(t, grouped)
	gCount, _ := groupedRows.Lookup("count_v")
	gSum, _ := groupedRows.Lookup("sum_v")
	var totalCount, totalSum float64
	for i := 0; i < groupedRows.NumRows(); i++ {
		totalCount += gCount.Float(i)
		if !gSum.IsNull(i) {
			totalSum += gSum.Float(i)
		}
	}
	wantCount, _ := globalRows.Lookup("count_v")
	wantSum, _ := globalRows.Lookup("sum_v")
	if totalCount != wantCount.Float(0) {
		t.Fatalf("group counts sum to %v, global %v", totalCount, wantCount.Float(0))
	}
	if math.Abs(totalSum-wantSum.Float(0)) > 1e-9 {
		t.Fatalf("group sums total %v, global %v", totalSum, wantSum.Float(0))
	}
}

// TestProjectionOrderIndependentOfWhere: the same WHERE with different
// projections must produce identical masks.
func TestProjectionOrderIndependentOfWhere(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		"SELECT * FROM cities WHERE pop > 50",
		"SELECT name FROM cities WHERE pop > 50",
		"SELECT state, pop FROM cities WHERE pop > 50 ORDER BY pop DESC",
		"SELECT name FROM cities WHERE pop > 50 LIMIT 1",
	}
	var masks []*frame.Bitmap
	for _, q := range queries {
		res, err := cat.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		masks = append(masks, res.Mask)
	}
	for i := 1; i < len(masks); i++ {
		if !reflect.DeepEqual(masks[0].Indices(), masks[i].Indices()) {
			t.Fatalf("mask differs for %q", queries[i])
		}
	}
}

// TestLexerRejectsControlBytes guards the lexer against stray input.
func TestLexerRejectsControlBytes(t *testing.T) {
	for _, q := range []string{"SELECT * FROM t WHERE x = \x01", "SELECT \x00 FROM t"} {
		if _, err := Parse(q); err == nil {
			t.Errorf("control bytes accepted in %q", q)
		}
	}
	// But unicode identifiers are fine in quoted form.
	if _, err := Parse(`SELECT "héllo" FROM t`); err != nil {
		t.Errorf("quoted unicode identifier rejected: %v", err)
	}
	if !strings.Contains((&SyntaxError{Pos: 3, Msg: "m"}).Error(), "position 3") {
		t.Error("SyntaxError format wrong")
	}
}
