package db

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/frame"
)

// testCatalog builds a small city table with NULLs for the eval tests.
func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	b := frame.NewBuilder("cities")
	pop := b.AddNumeric("pop")
	crime := b.AddNumeric("crime")
	state := b.AddCategorical("state")
	name := b.AddCategorical("name")

	rows := []struct {
		pop   float64
		crime float64
		state string
		name  string
	}{
		{100, 0.9, "NY", "New York"},
		{50, 0.2, "CA", "Fresno"},
		{80, 0.7, "CA", "Los Angeles"},
		{20, 0.1, "VT", "Burlington"},
		{60, math.NaN(), "NY", "Albany"},
		{math.NaN(), 0.5, "TX", "Austin"},
	}
	for _, r := range rows {
		b.AppendFloat(pop, r.pop)
		b.AppendFloat(crime, r.crime)
		b.AppendStr(state, r.state)
		b.AppendStr(name, r.name)
	}
	cat := NewCatalog()
	if err := cat.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return cat
}

func selectedRows(t *testing.T, cat *Catalog, sql string) []int {
	t.Helper()
	res, err := cat.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return res.Mask.Indices()
}

func TestQueryAllRows(t *testing.T) {
	cat := testCatalog(t)
	got := selectedRows(t, cat, "SELECT * FROM cities")
	if len(got) != 6 {
		t.Fatalf("selected %v", got)
	}
}

func TestComparisons(t *testing.T) {
	cat := testCatalog(t)
	cases := map[string][]int{
		"SELECT * FROM cities WHERE pop > 60":           {0, 2},
		"SELECT * FROM cities WHERE pop >= 60":          {0, 2, 4},
		"SELECT * FROM cities WHERE pop < 50":           {3},
		"SELECT * FROM cities WHERE pop <= 50":          {1, 3},
		"SELECT * FROM cities WHERE pop = 100":          {0},
		"SELECT * FROM cities WHERE pop != 100":         {1, 2, 3, 4},
		"SELECT * FROM cities WHERE pop <> 100":         {1, 2, 3, 4},
		"SELECT * FROM cities WHERE state = 'CA'":       {1, 2},
		"SELECT * FROM cities WHERE state != 'CA'":      {0, 3, 4, 5},
		"SELECT * FROM cities WHERE state > 'NY'":       {3, 5},
		"SELECT * FROM cities WHERE name LIKE 'New%'":   {0},
		"SELECT * FROM cities WHERE name LIKE '%on'":    {3},
		"SELECT * FROM cities WHERE name LIKE '______'": {1, 4, 5},
	}
	for sql, want := range cases {
		got := selectedRows(t, cat, sql)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", sql, got, want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	cat := testCatalog(t)
	// Row 5 has NULL pop; comparisons never select it...
	if got := selectedRows(t, cat, "SELECT * FROM cities WHERE pop > 0"); reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("NULL pop row selected by pop > 0: %v", got)
	}
	// ...and NOT of a comparison must not resurrect it (three-valued
	// logic: NOT UNKNOWN = UNKNOWN).
	// Rows 1, 3 and 4 have pop <= 60; row 5 (NULL pop) must stay out.
	got := selectedRows(t, cat, "SELECT * FROM cities WHERE NOT pop > 60")
	want := []int{1, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NOT pop > 60: got %v, want %v (NULL row must stay out)", got, want)
	}
	// IS NULL picks exactly the NULL rows.
	if got := selectedRows(t, cat, "SELECT * FROM cities WHERE pop IS NULL"); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("IS NULL: %v", got)
	}
	if got := selectedRows(t, cat, "SELECT * FROM cities WHERE crime IS NOT NULL"); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 5}) {
		t.Errorf("IS NOT NULL: %v", got)
	}
}

func TestThreeValuedConnectives(t *testing.T) {
	cat := testCatalog(t)
	// crime IS NULL on row 4. `crime > 0.6 OR pop > 50`: row 4 has unknown
	// crime but pop=60 > 50, so OR rescues it.
	got := selectedRows(t, cat, "SELECT * FROM cities WHERE crime > 0.6 OR pop > 50")
	want := []int{0, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OR rescue: got %v, want %v", got, want)
	}
	// AND with an unknown side stays unknown → excluded.
	got = selectedRows(t, cat, "SELECT * FROM cities WHERE crime > 0 AND pop > 50")
	want = []int{0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AND unknown: got %v, want %v", got, want)
	}
	// NOT(unknown AND true) remains unknown → rows 4 and 5 are excluded
	// from both the positive and the negated predicate.
	got = selectedRows(t, cat, "SELECT * FROM cities WHERE NOT (crime > 0 AND pop > 50)")
	want = []int{1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NOT(AND): got %v, want %v", got, want)
	}
}

func TestInBetween(t *testing.T) {
	cat := testCatalog(t)
	cases := map[string][]int{
		"SELECT * FROM cities WHERE state IN ('CA', 'VT')":     {1, 2, 3},
		"SELECT * FROM cities WHERE state NOT IN ('CA', 'VT')": {0, 4, 5},
		"SELECT * FROM cities WHERE pop IN (100, 20)":          {0, 3},
		"SELECT * FROM cities WHERE pop BETWEEN 50 AND 80":     {1, 2, 4},
		"SELECT * FROM cities WHERE pop NOT BETWEEN 50 AND 80": {0, 3},
		"SELECT * FROM cities WHERE state BETWEEN 'CA' AND 'NY'": {
			0, 1, 2, 4},
		"SELECT * FROM cities WHERE name NOT LIKE '%o%'": {4, 5},
	}
	for sql, want := range cases {
		got := selectedRows(t, cat, sql)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", sql, got, want)
		}
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT * FROM cities WHERE pop = 'x'",
		"SELECT * FROM cities WHERE state = 5",
		"SELECT * FROM cities WHERE pop IN ('a')",
		"SELECT * FROM cities WHERE state IN (1)",
		"SELECT * FROM cities WHERE pop BETWEEN 'a' AND 'b'",
		"SELECT * FROM cities WHERE state BETWEEN 1 AND 2",
		"SELECT * FROM cities WHERE pop LIKE 'x%'",
		"SELECT * FROM cities WHERE nosuch = 1",
		"SELECT nosuch FROM cities",
		"SELECT * FROM nosuch",
		"SELECT * FROM cities ORDER BY nosuch",
	}
	for _, sql := range bad {
		if _, err := cat.Query(sql); err == nil {
			t.Errorf("%s: expected error", sql)
		}
	}
}

func TestProjection(t *testing.T) {
	cat := testCatalog(t)
	res, err := cat.Query("SELECT name, pop FROM cities WHERE state = 'CA'")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumCols() != 2 || rows.NumRows() != 2 {
		t.Fatalf("rows shape %d×%d", rows.NumRows(), rows.NumCols())
	}
	if rows.Col(0).Name() != "name" || rows.Col(1).Name() != "pop" {
		t.Fatal("projection order wrong")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	cat := testCatalog(t)
	res, err := cat.Query("SELECT name, pop FROM cities WHERE pop IS NOT NULL ORDER BY pop DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 3 {
		t.Fatalf("rows = %d", rows.NumRows())
	}
	names := rows.Col(0)
	if names.Str(0) != "New York" || names.Str(1) != "Los Angeles" || names.Str(2) != "Albany" {
		t.Fatalf("order wrong: %v %v %v", names.Str(0), names.Str(1), names.Str(2))
	}
	// Mask still covers the full selection (5 rows), not the limited ones.
	if res.Mask.Count() != 5 {
		t.Fatalf("mask count = %d, want 5", res.Mask.Count())
	}
}

func TestOrderByNullsLast(t *testing.T) {
	cat := testCatalog(t)
	res, err := cat.Query("SELECT name FROM cities ORDER BY crime")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	last := rows.Col(0).Str(rows.NumRows() - 1)
	if last != "Albany" { // Albany has NULL crime
		t.Fatalf("last row = %q, want Albany (NULL sorts last)", last)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	cat := testCatalog(t)
	res, err := cat.Query("SELECT state, name FROM cities ORDER BY state ASC, name DESC")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	states := rows.Col(0)
	names := rows.Col(1)
	if states.Str(0) != "CA" || names.Str(0) != "Los Angeles" {
		t.Fatalf("first row = %s/%s", states.Str(0), names.Str(0))
	}
	if states.Str(1) != "CA" || names.Str(1) != "Fresno" {
		t.Fatalf("second row = %s/%s", states.Str(1), names.Str(1))
	}
}

func TestLimitZero(t *testing.T) {
	cat := testCatalog(t)
	res, err := cat.Query("SELECT * FROM cities LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", rows.NumRows())
	}
}

func TestCatalogManagement(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register(nil); err == nil {
		t.Error("nil frame registered")
	}
	anon := frame.MustNew("", []*frame.Column{frame.NewNumericColumn("x", nil)})
	if err := cat.Register(anon); err == nil {
		t.Error("unnamed frame registered")
	}
	f := frame.MustNew("t1", []*frame.Column{frame.NewNumericColumn("x", []float64{1})})
	if err := cat.Register(f); err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Table("t1"); !ok {
		t.Error("Table lookup failed")
	}
	g := frame.MustNew("a0", []*frame.Column{frame.NewNumericColumn("x", []float64{1})})
	if err := cat.Register(g); err != nil {
		t.Fatal(err)
	}
	names := cat.TableNames()
	if !reflect.DeepEqual(names, []string{"a0", "t1"}) {
		t.Fatalf("TableNames = %v", names)
	}
}

func TestEvalPredicateDirect(t *testing.T) {
	cat := testCatalog(t)
	f, _ := cat.Table("cities")
	expr := &Comparison{Column: "pop", Op: ">", Value: NumberLit(50)}
	mask, err := EvalPredicate(f, expr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mask.Indices(), []int{0, 2, 4}) {
		t.Fatalf("mask = %v", mask.Indices())
	}
}

func TestLikeSpecialCharactersAreLiteral(t *testing.T) {
	b := frame.NewBuilder("t")
	s := b.AddCategorical("s")
	b.AppendStr(s, "a.b")
	b.AppendStr(s, "axb")
	b.AppendStr(s, "a\nb")
	cat := NewCatalog()
	if err := cat.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]int{
		// '.' in the pattern must match only a literal dot, not any rune.
		"SELECT * FROM t WHERE s LIKE 'a.b'": {0},
		// % and _ match any rune, a newline included: CSV loads quoted
		// fields that span lines.
		"SELECT * FROM t WHERE s LIKE 'a%'":     {0, 1, 2},
		"SELECT * FROM t WHERE s LIKE 'a_b'":    {0, 1, 2},
		"SELECT * FROM t WHERE s NOT LIKE 'a%'": {},
	}
	for sql, want := range cases {
		if got := selectedRows(t, cat, sql); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", sql, got, want)
		}
	}
}

// mustRows gathers a query's result rows.
func mustRows(t *testing.T, res *Result) *frame.Frame {
	t.Helper()
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
