// Innovation reproduces the §4.2 scale scenario: generating hypotheses on
// the 6,823 × 519 Countries & Innovation table, where no human could eyeball
// all the columns. It also demonstrates the session-level statistics
// sharing: a sequence of refined queries reuses the dependency structure
// computed for the first one.
//
// Run with:
//
//	go run ./examples/innovation
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	ziggy "repro"
)

func main() {
	session, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("generating the 6,823 × 519 innovation table...")
	table := ziggy.InnovationData(42)
	if err := session.Register(table); err != nil {
		log.Fatal(err)
	}

	p90, err := ziggy.Quantile(table, "patents_per_capita", 0.9)
	if err != nil {
		log.Fatal(err)
	}
	p75, err := ziggy.Quantile(table, "patents_per_capita", 0.75)
	if err != nil {
		log.Fatal(err)
	}

	// An exploration session: the analyst refines the same question three
	// times. The first query pays for the dependency analysis of all 519
	// columns; the follow-ups reuse it.
	queries := []string{
		fmt.Sprintf("SELECT * FROM innovation WHERE patents_per_capita >= %.3f", p90),
		fmt.Sprintf("SELECT * FROM innovation WHERE patents_per_capita >= %.3f", p75),
		fmt.Sprintf("SELECT * FROM innovation WHERE patents_per_capita >= %.3f AND income_group = 'high'", p75),
	}
	for qi, sql := range queries {
		start := time.Now()
		report, err := session.CharacterizeOpts(sql, ziggy.Options{
			ExcludeColumns: []string{"patents_per_capita", "income_group"},
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		cache := "cold"
		if report.CacheHit {
			cache = "warm cache"
		}
		fmt.Printf("\nquery %d (%d rows selected, %v, %s):\n  %s\n",
			qi+1, report.SelectedRows, elapsed.Round(time.Millisecond), cache, sql)
		for i, view := range report.Views {
			if i >= 3 {
				break
			}
			fmt.Printf("  %d. %-35s %s\n", i+1,
				strings.Join(view.Columns, " × "), view.Explanation)
		}
	}
	fmt.Println("\nHypotheses generated: the R&D-flavoured blocks (spending, researchers,")
	fmt.Println("venture capital, education, GDP) separate patent-heavy regions; the")
	fmt.Println("societal blocks do not.")
}
