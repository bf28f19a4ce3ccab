// Approximate demonstrates the two extension knobs beyond the demo paper's
// defaults: BlinkDB-style row sampling (Options.ApproxRows) for interactive
// latency on large tables, and the extended Zig-Component families from the
// companion research paper (Config.Extended).
//
// Run with:
//
//	go run ./examples/approximate
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	ziggy "repro"
)

func run(title string, cfg ziggy.Config, opts ziggy.Options, table *ziggy.Frame, sql string) {
	session, err := ziggy.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Register(table); err != nil {
		log.Fatal(err)
	}
	// Warm the dependency cache so the timing below is the per-query cost
	// an interactive user feels.
	// The report memo is bypassed so the second run pays the pipeline again.
	opts.SkipReportCache = true
	if _, err := session.CharacterizeOpts(sql, opts); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	report, err := session.CharacterizeOpts(sql, opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("--- %s ---\n", title)
	sampled := ""
	if a := report.Approximate; a != nil {
		sampled = fmt.Sprintf(" (statistics from %d sampled rows: %d inside, %d outside; standard errors ×%.2f)",
			a.SampleRows, a.InsideRows, a.OutsideRows, a.SEInflation)
	}
	fmt.Printf("warm query: %v%s\n", elapsed.Round(time.Millisecond), sampled)
	for i, view := range report.Views {
		if i >= 2 {
			break
		}
		fmt.Printf("%d. %s\n   %s\n", i+1, strings.Join(view.Columns, " × "), view.Explanation)
	}
	fmt.Println()
}

func main() {
	fmt.Println("generating the US Crime table...")
	table := ziggy.USCrimeData(42)
	p90, err := ziggy.Quantile(table, "crime_violent_rate", 0.9)
	if err != nil {
		log.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT * FROM uscrime WHERE crime_violent_rate >= %.1f", p90)
	exact := ziggy.Options{ExcludeColumns: []string{"crime_violent_rate"}}

	// 1. Exact mode: every row feeds the statistics.
	run("exact statistics", ziggy.DefaultConfig(), exact, table, sql)

	// 2. Approximate mode: cap the per-query statistics at 500 rows. The
	//    views keep their shape; the latency drops; the report says so.
	approx := exact
	approx.ApproxRows = 500
	run("sampled statistics (500 rows)", ziggy.DefaultConfig(), approx, table, sql)

	// 3. Extended components: quantile shifts, tail-weight changes,
	//    entropy changes and categorical↔numeric separation changes join
	//    the score and the explanations.
	extended := ziggy.DefaultConfig()
	extended.Extended = true
	run("extended Zig-Components", extended, exact, table, sql)
}
