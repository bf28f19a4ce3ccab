package db

import (
	"reflect"
	"testing"
)

// TestPredicateColumns pins the WHERE walker behind both the public
// ziggy.PredicateColumns and the server's excludePredicate option: every
// predicate form contributes its column, each column appears once, and the
// order is first-seen in a left-to-right walk.
func TestPredicateColumns(t *testing.T) {
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT * FROM t", nil},
		{"SELECT * FROM t WHERE a >= 1", []string{"a"}},
		{"SELECT * FROM t WHERE a > 1 AND b < 2", []string{"a", "b"}},
		{"SELECT * FROM t WHERE b = 1 OR a = 2", []string{"b", "a"}},
		{"SELECT * FROM t WHERE NOT (c = 'x')", []string{"c"}},
		{"SELECT * FROM t WHERE d IN ('x', 'y')", []string{"d"}},
		{"SELECT * FROM t WHERE d NOT IN (1, 2)", []string{"d"}},
		{"SELECT * FROM t WHERE e BETWEEN 1 AND 5", []string{"e"}},
		{"SELECT * FROM t WHERE f LIKE 'ab%'", []string{"f"}},
		{"SELECT * FROM t WHERE g IS NULL", []string{"g"}},
		{"SELECT * FROM t WHERE g IS NOT NULL", []string{"g"}},
		{"SELECT * FROM t WHERE a > 1 AND (b = 2 OR a < 9) AND NOT b IS NULL", []string{"a", "b"}},
		{"SELECT * FROM t WHERE a > 1 AND b IN (1) AND NOT c BETWEEN 0 AND 1 OR d LIKE 'x' AND e IS NULL",
			[]string{"a", "b", "c", "d", "e"}},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := stmt.PredicateColumns(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: PredicateColumns = %v, want %v", tc.sql, got, tc.want)
		}
	}
	if got := (*SelectStmt)(nil).PredicateColumns(); got != nil {
		t.Errorf("nil statement: PredicateColumns = %v, want nil", got)
	}
}
