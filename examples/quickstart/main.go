// Quickstart: load a table, run a selection query, and print the
// characteristic views that explain what makes the selection special.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	ziggy "repro"
)

func main() {
	// 1. Create a session with the default engine configuration.
	session, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2. Register a table. Here we use the bundled Box Office dataset;
	//    session.RegisterCSV("movies.csv") works the same way for files.
	movies := ziggy.BoxOfficeData(42)
	if err := session.Register(movies); err != nil {
		log.Fatal(err)
	}

	// 3. Pick a selection worth explaining: the top-quartile grossers.
	q75, err := ziggy.Quantile(movies, "gross_musd", 0.75)
	if err != nil {
		log.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT * FROM boxoffice WHERE gross_musd >= %.2f", q75)

	// 4. Characterize it. Excluding the predicate column avoids the
	//    tautological "top grossers gross a lot" view.
	report, err := session.CharacterizeOpts(sql, ziggy.Options{
		ExcludeColumns: []string{"gross_musd"},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Read the results.
	fmt.Printf("What makes the %d/%d selected movies special?\n\n",
		report.SelectedRows, report.TotalRows)
	for i, view := range report.Views {
		fmt.Printf("%d. %v  (score %.2f, p %.2g)\n", i+1, view.Columns, view.Score, view.PValue)
		fmt.Printf("   %s\n\n", view.Explanation)
	}
}
