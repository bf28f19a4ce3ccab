// Crime reproduces the paper's running example (its §1 and Figure 1): an
// analyst asks what distinguishes US communities with the highest violent
// crime, and Ziggy answers with four low-dimensional, plottable views.
//
// Run with:
//
//	go run ./examples/crime
package main

import (
	"fmt"
	"log"
	"strings"

	ziggy "repro"
)

func main() {
	session, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	crime := ziggy.USCrimeData(42)
	if err := session.Register(crime); err != nil {
		log.Fatal(err)
	}

	// The analyst selects the most dangerous communities: violent crime
	// above the 90th percentile.
	p90, err := ziggy.Quantile(crime, "crime_violent_rate", 0.9)
	if err != nil {
		log.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT * FROM uscrime WHERE crime_violent_rate >= %.1f", p90)
	fmt.Printf("query: %s\n\n", sql)

	// All crime outcome columns are excluded: the query already constrains
	// them, so views over them would be tautological.
	var exclude []string
	for _, name := range crime.ColumnNames() {
		if strings.HasPrefix(name, "crime_") || name == "arson_count" ||
			name == "gang_incidents" || name == "pct_boarded_windows" {
			exclude = append(exclude, name)
		}
	}

	report, err := session.CharacterizeOpts(sql, ziggy.Options{ExcludeColumns: exclude})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Ziggy found %d characteristic views for %d high-crime communities:\n\n",
		len(report.Views), report.SelectedRows)
	for i, view := range report.Views {
		fmt.Printf("view %d: %s\n", i+1, strings.Join(view.Columns, " × "))
		fmt.Printf("  %s\n", view.Explanation)
		// The components are the verifiable evidence behind the prose —
		// exactly what the paper's Figure 3 plots.
		for _, comp := range view.Components {
			if !comp.Valid() || comp.Norm < 0.3 {
				continue
			}
			fmt.Printf("  · %-18s %-40v inside %.4g vs outside %.4g (p %.2g)\n",
				comp.Kind, comp.Columns, comp.Inside, comp.Outside, comp.Test.P)
		}
		fmt.Println()
	}
	fmt.Println("Compare with paper Figure 1: population/density high with low variance,")
	fmt.Println("education and salary low, rent and home-ownership low, young and")
	fmt.Println("mono-parental families high.")
}
