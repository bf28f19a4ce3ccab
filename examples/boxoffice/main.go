// Boxoffice walks through the §4.2 Box Office scenario, demonstrating the
// knobs a data explorer can turn: component weights (prefer variance
// differences over mean shifts), robust statistics, significance-only
// filtering, and the clique candidate generator.
//
// Run with:
//
//	go run ./examples/boxoffice
package main

import (
	"fmt"
	"log"
	"strings"

	ziggy "repro"
)

func characterize(title string, cfg ziggy.Config, sql string, exclude []string) {
	session, err := ziggy.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Register(ziggy.BoxOfficeData(42)); err != nil {
		log.Fatal(err)
	}
	report, err := session.CharacterizeOpts(sql, ziggy.Options{ExcludeColumns: exclude})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- %s ---\n", title)
	for i, view := range report.Views {
		if i >= 3 {
			break
		}
		fmt.Printf("%d. %-45s score %.2f\n   %s\n",
			i+1, strings.Join(view.Columns, " × "), view.Score, view.Explanation)
	}
	fmt.Println()
}

func main() {
	sql := "SELECT * FROM boxoffice WHERE gross_musd >= 120"
	exclude := []string{"gross_musd", "opening_weekend_musd"}

	// 1. Paper defaults: equal weights, complete-linkage clustering.
	characterize("default configuration", ziggy.DefaultConfig(), sql, exclude)

	// 2. A user who cares about spread, not location: upweight the
	//    standard-deviation component (the paper's §2.2 weight mechanism).
	spread := ziggy.DefaultConfig()
	spread.Weights = ziggy.Weights{
		ziggy.DiffMeans:        0.2,
		ziggy.DiffStdDevs:      3,
		ziggy.DiffCorrelations: 1,
		ziggy.DiffFrequencies:  1,
	}
	characterize("variance-focused weights", spread, sql, exclude)

	// 3. Robust mode: rank statistics resist the blockbuster outliers that
	//    dominate movie revenue data.
	robust := ziggy.DefaultConfig()
	robust.Robust = true
	characterize("robust (rank-based) statistics", robust, sql, exclude)

	// 4. Strict mode: only views that survive a Bonferroni-corrected
	//    significance test at α = 0.01.
	strict := ziggy.DefaultConfig()
	strict.RequireSignificant = true
	strict.Alpha = 0.01
	characterize("significant views only (Bonferroni α=0.01)", strict, sql, exclude)

	// 5. Clique candidate generation instead of clustering.
	cliques := ziggy.DefaultConfig()
	cliques.Generator = ziggy.Cliques
	characterize("maximal-clique candidate generator", cliques, sql, exclude)
}
