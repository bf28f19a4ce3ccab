package db

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frame"
)

// salesCatalog builds a small sales table for the aggregation tests.
func salesCatalog(t *testing.T) *Catalog {
	t.Helper()
	b := frame.NewBuilder("sales")
	region := b.AddCategorical("region")
	product := b.AddCategorical("product")
	amount := b.AddNumeric("amount")
	units := b.AddNumeric("units")

	rows := []struct {
		region, product string
		amount, units   float64
	}{
		{"east", "widget", 100, 10},
		{"east", "widget", 200, 20},
		{"east", "gadget", 50, 5},
		{"west", "widget", 300, 30},
		{"west", "gadget", 150, math.NaN()},
		{"west", "gadget", 250, 25},
	}
	for _, r := range rows {
		b.AppendStr(region, r.region)
		b.AppendStr(product, r.product)
		b.AppendFloat(amount, r.amount)
		b.AppendFloat(units, r.units)
	}
	cat := NewCatalog()
	if err := cat.Register(b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestGlobalAggregates(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", rows.NumRows())
	}
	get := func(name string) float64 {
		c, ok := rows.Lookup(name)
		if !ok {
			t.Fatalf("missing output column %q (have %v)", name, rows.ColumnNames())
		}
		return c.Float(0)
	}
	if get("count") != 6 {
		t.Errorf("count = %v", get("count"))
	}
	if get("sum_amount") != 1050 {
		t.Errorf("sum = %v", get("sum_amount"))
	}
	if get("avg_amount") != 175 {
		t.Errorf("avg = %v", get("avg_amount"))
	}
	if get("min_amount") != 50 || get("max_amount") != 300 {
		t.Errorf("min/max = %v/%v", get("min_amount"), get("max_amount"))
	}
}

func TestGroupBy(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", rows.NumRows())
	}
	region, _ := rows.Lookup("region")
	count, _ := rows.Lookup("count")
	sum, _ := rows.Lookup("sum_amount")
	if region.Str(0) != "east" || count.Float(0) != 3 || sum.Float(0) != 350 {
		t.Errorf("east row = %v/%v/%v", region.Str(0), count.Float(0), sum.Float(0))
	}
	if region.Str(1) != "west" || count.Float(1) != 3 || sum.Float(1) != 700 {
		t.Errorf("west row = %v/%v/%v", region.Str(1), count.Float(1), sum.Float(1))
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT region, product, COUNT(*) FROM sales GROUP BY region, product ORDER BY region, product")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 4 {
		t.Fatalf("groups = %d, want 4", rows.NumRows())
	}
	region, _ := rows.Lookup("region")
	product, _ := rows.Lookup("product")
	if region.Str(0) != "east" || product.Str(0) != "gadget" {
		t.Errorf("first group = %s/%s", region.Str(0), product.Str(0))
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	cat := salesCatalog(t)
	// units has one NULL (west/gadget row).
	res, err := cat.Query("SELECT COUNT(units), SUM(units), AVG(units) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	count, _ := rows.Lookup("count_units")
	sum, _ := rows.Lookup("sum_units")
	avg, _ := rows.Lookup("avg_units")
	if count.Float(0) != 5 {
		t.Errorf("COUNT(units) = %v, want 5 (NULL skipped)", count.Float(0))
	}
	if sum.Float(0) != 90 {
		t.Errorf("SUM(units) = %v, want 90", sum.Float(0))
	}
	if math.Abs(avg.Float(0)-18) > 1e-12 {
		t.Errorf("AVG(units) = %v, want 18", avg.Float(0))
	}
}

func TestAggregateAliases(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT AVG(amount) AS mean_revenue FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if _, ok := rows.Lookup("mean_revenue"); !ok {
		t.Fatalf("alias missing: %v", rows.ColumnNames())
	}
}

func TestMinMaxOnCategorical(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT MIN(product), MAX(product) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	minC, _ := rows.Lookup("min_product")
	maxC, _ := rows.Lookup("max_product")
	if minC.Str(0) != "gadget" || maxC.Str(0) != "widget" {
		t.Errorf("min/max = %q/%q", minC.Str(0), maxC.Str(0))
	}
}

func TestAggregationWithWhere(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT region, SUM(amount) FROM sales WHERE product = 'widget' GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 2 {
		t.Fatalf("groups = %d", rows.NumRows())
	}
	sum, _ := rows.Lookup("sum_amount")
	if sum.Float(0) != 300 || sum.Float(1) != 300 {
		t.Errorf("widget sums = %v/%v", sum.Float(0), sum.Float(1))
	}
	// The mask still reflects the WHERE selection over the base table.
	if res.Mask.Count() != 3 {
		t.Errorf("mask count = %d, want 3", res.Mask.Count())
	}
}

func TestAggregationOrderByAggregate(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT product, SUM(amount) FROM sales GROUP BY product ORDER BY sum_amount DESC")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	product, _ := rows.Lookup("product")
	if product.Str(0) != "widget" { // 600 > 450
		t.Errorf("first product = %q, want widget", product.Str(0))
	}
}

func TestAggregationLimit(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT region, product, COUNT(*) FROM sales GROUP BY region, product LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", rows.NumRows())
	}
}

func TestGroupByWithoutAggregatesActsAsDistinct(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT region FROM sales GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	region, _ := rows.Lookup("region")
	if rows.NumRows() != 2 || region.Str(0) != "east" || region.Str(1) != "west" {
		t.Fatalf("distinct regions wrong: %d rows", rows.NumRows())
	}
	// The implicit COUNT(*) is materialized.
	if _, ok := rows.Lookup("count"); !ok {
		t.Error("implicit count missing")
	}
}

func TestGroupByNumericKey(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT amount, COUNT(*) FROM sales GROUP BY amount ORDER BY amount")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	if rows.NumRows() != 6 { // all amounts distinct
		t.Fatalf("groups = %d, want 6", rows.NumRows())
	}
	amount, _ := rows.Lookup("amount")
	if amount.Kind() != frame.Numeric || amount.Float(0) != 50 {
		t.Errorf("first amount = %v", amount.Float(0))
	}
}

// TestGroupByKeyEquality pins what makes two rows one group: their
// grouping values are equal under WHERE's =, so 0 and -0 share a group,
// and a NULL is equal only to NULL. Each group shows its first row's
// values; want lists the groups in first-seen order with their COUNT(*).
func TestGroupByKeyEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		// cols holds table t's columns, added in the order a, b, c, v: a
		// float64 column is numeric (NaN is NULL), any other categorical
		// (nil is NULL).
		cols map[string][]any
		sql  string
		want []string
	}{
		{
			name: "negative zero equals zero",
			cols: map[string][]any{"v": {0.0, negZero, 1.0}},
			sql:  "SELECT v, COUNT(*) FROM t GROUP BY v",
			want: []string{"0 2", "1 1"},
		},
		{
			name: "NULL is its own group",
			cols: map[string][]any{"c": {"N", nil, "x"}},
			sql:  "SELECT c, COUNT(*) FROM t GROUP BY c",
			want: []string{`"N" 1`, "NULL 1", `"x" 1`},
		},
		{
			name: "separator bytes inside values",
			cols: map[string][]any{"a": {"p\x00q", "p"}, "b": {"r", "q\x00r"}},
			sql:  "SELECT a, b, COUNT(*) FROM t GROUP BY a, b",
			want: []string{`"p\x00q" "r" 1`, `"p" "q\x00r" 1`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := frame.NewBuilder("t")
			for _, name := range []string{"a", "b", "c", "v"} {
				vals, ok := tc.cols[name]
				if !ok {
					continue
				}
				if _, numeric := vals[0].(float64); numeric {
					col := b.AddNumeric(name)
					for _, v := range vals {
						b.AppendFloat(col, v.(float64))
					}
					continue
				}
				col := b.AddCategorical(name)
				for _, v := range vals {
					if v == nil {
						b.AppendNull(col)
					} else {
						b.AppendStr(col, v.(string))
					}
				}
			}
			cat := NewCatalog()
			if err := cat.Register(b.MustBuild()); err != nil {
				t.Fatal(err)
			}
			res, err := cat.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			rows := mustRows(t, res)
			var got []string
			for r := 0; r < rows.NumRows(); r++ {
				var cells []string
				for _, c := range rows.Columns() {
					switch v := c.Value(r).(type) {
					case nil:
						cells = append(cells, "NULL")
					case string:
						cells = append(cells, strconv.Quote(v))
					default:
						cells = append(cells, fmt.Sprint(v))
					}
				}
				got = append(got, strings.Join(cells, " "))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s: groups %q, want %q", tc.sql, got, tc.want)
			}
		})
	}
}

func TestAggregationErrors(t *testing.T) {
	cat := salesCatalog(t)
	bad := []string{
		"SELECT region, COUNT(*) FROM sales",                                       // region not grouped
		"SELECT amount FROM sales GROUP BY region",                                 // amount not grouped
		"SELECT SUM(region) FROM sales",                                            // SUM over categorical
		"SELECT AVG(region) FROM sales GROUP BY region",                            // AVG over categorical
		"SELECT SUM(nosuch) FROM sales",                                            // unknown agg column
		"SELECT COUNT(*) FROM sales GROUP BY nosuch",                               // unknown group column
		"SELECT SUM(*) FROM sales",                                                 // * only valid in COUNT
		"SELECT COUNT( FROM sales",                                                 // syntax
		"SELECT COUNT(amount FROM sales",                                           // missing )
		"SELECT COUNT(*) AS FROM sales",                                            // missing alias
		"SELECT region, COUNT(*) FROM sales GROUP region",                          // missing BY
		"SELECT COUNT(*) FROM sales GROUP BY",                                      // missing column
		"SELECT COUNT(*) FROM sales ORDER BY nosuch",                               // unknown order key
		"SELECT product, COUNT(*) FROM sales GROUP BY product ORDER BY sum_amount", // order key not in output
	}
	for _, q := range bad {
		if _, err := cat.Query(q); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

func TestEmptySelectionAggregates(t *testing.T) {
	cat := salesCatalog(t)
	res, err := cat.Query("SELECT COUNT(*), SUM(amount) FROM sales WHERE amount > 1e9")
	if err != nil {
		t.Fatal(err)
	}
	rows := mustRows(t, res)
	// No rows matched: the engine produces zero groups (one-global-group
	// with COUNT 0 would also be defensible; we document zero groups).
	if rows.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0 groups for an empty selection", rows.NumRows())
	}
	if _, ok := rows.Lookup("count"); !ok {
		t.Error("output schema should still carry the aggregate columns")
	}
}

func TestAggregateStatementString(t *testing.T) {
	stmt, err := Parse("SELECT region, COUNT(*), AVG(amount) AS m FROM sales GROUP BY region ORDER BY region LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.String()
	for _, want := range []string{"COUNT(*)", "AVG(amount) AS m", "GROUP BY region"} {
		if !reflect.DeepEqual(true, contains(s, want)) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// Round trip.
	stmt2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if stmt2.String() != s {
		t.Errorf("round trip: %q vs %q", s, stmt2.String())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
