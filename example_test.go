package ziggy_test

import (
	"fmt"
	"log"

	ziggy "repro"
)

// ExampleSession_Characterize shows the core loop: register a table, run a
// selection, read the characteristic views.
func ExampleSession_Characterize() {
	session, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Register(ziggy.BoxOfficeData(42)); err != nil {
		log.Fatal(err)
	}
	// Exclude the predicate column so the top view is informative rather
	// than "high grossers gross a lot".
	sql := "SELECT * FROM boxoffice WHERE gross_musd >= 100"
	pred, err := ziggy.PredicateColumns(sql)
	if err != nil {
		log.Fatal(err)
	}
	report, err := session.CharacterizeOpts(sql, ziggy.Options{ExcludeColumns: pred})
	if err != nil {
		log.Fatal(err)
	}
	top := report.Views[0]
	fmt.Println(top.Columns)
	fmt.Println(top.Significant)
	// Output:
	// [budget_musd opening_weekend_musd]
	// true
}

// ExampleSession_Characterize_robust runs the pipeline in robust mode:
// numeric columns are compared with Cliff's delta (a rank-based location
// shift immune to outliers) and verified with the Mann-Whitney U test
// instead of Hedges' g / Welch's t. One ranking pass per column powers the
// delta, both medians and the test.
func ExampleSession_Characterize_robust() {
	cfg := ziggy.DefaultConfig()
	cfg.Robust = true
	session, err := ziggy.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Register(ziggy.BoxOfficeData(42)); err != nil {
		log.Fatal(err)
	}
	sql := "SELECT * FROM boxoffice WHERE gross_musd >= 100"
	pred, err := ziggy.PredicateColumns(sql)
	if err != nil {
		log.Fatal(err)
	}
	report, err := session.CharacterizeOpts(sql, ziggy.Options{ExcludeColumns: pred})
	if err != nil {
		log.Fatal(err)
	}
	top := report.Views[0]
	fmt.Println(top.Columns)
	for _, c := range top.Components {
		if c.Kind == ziggy.DiffLocationsRobust {
			fmt.Printf("%s: Cliff's delta %.2f (median %.0f inside vs %.0f outside), U-test p %.1e\n",
				c.Columns[0], c.Raw, c.Inside, c.Outside, c.Test.P)
		}
	}
	// Output:
	// [budget_musd opening_weekend_musd]
	// opening_weekend_musd: Cliff's delta 0.81 (median 32 inside vs 8 outside), U-test p 1.5e-74
	// budget_musd: Cliff's delta 0.64 (median 60 inside vs 24 outside), U-test p 3.2e-47
}

// ExamplePredicateColumns extracts the columns a query's WHERE clause
// constrains — the natural exclusions for a characterization.
func ExamplePredicateColumns() {
	cols, err := ziggy.PredicateColumns(
		"SELECT * FROM t WHERE price > 10 AND region IN ('EU') OR stock IS NULL")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cols)
	// Output:
	// [price region stock]
}

// ExampleSession_Query runs plain SQL (including aggregates) without
// characterization.
func ExampleSession_Query() {
	session, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Register(ziggy.BoxOfficeData(42)); err != nil {
		log.Fatal(err)
	}
	rows, _, err := session.Query(
		"SELECT studio_class, COUNT(*) FROM boxoffice GROUP BY studio_class ORDER BY studio_class")
	if err != nil {
		log.Fatal(err)
	}
	class, _ := rows.Lookup("studio_class")
	for i := 0; i < rows.NumRows(); i++ {
		fmt.Println(class.Str(i))
	}
	// Output:
	// indie
	// major
	// mid
}
