package ziggy_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	ziggy "repro"
)

// TestFullWorkflowIntegration walks the complete user journey end to end:
// generate data, export to CSV, reload, explore with aggregates, refine a
// selection, characterize it, plot the top view, and verify the session's
// statistics sharing kicks in on the follow-up query.
func TestFullWorkflowIntegration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crime.csv")

	// 1. Materialize the dataset to CSV and reload it — the persistence
	// loop a real user would follow with their own data.
	original := ziggy.USCrimeData(42)
	if err := ziggy.WriteCSV(path, original); err != nil {
		t.Fatal(err)
	}
	session, err := ziggy.New(ziggy.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := session.RegisterCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRows() != original.NumRows() || loaded.NumCols() != original.NumCols() {
		t.Fatalf("reload shape %d×%d, want %d×%d",
			loaded.NumRows(), loaded.NumCols(), original.NumRows(), original.NumCols())
	}

	// 2. First contact with the data: an aggregate overview.
	rows, _, err := session.Query(
		"SELECT region, COUNT(*), AVG(crime_violent_rate) FROM crime GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if rows.NumRows() != 4 { // four regions
		t.Fatalf("regions = %d, want 4", rows.NumRows())
	}
	avg, ok := rows.Lookup("avg_crime_violent_rate")
	if !ok {
		t.Fatalf("aggregate column missing: %v", rows.ColumnNames())
	}
	for i := 0; i < rows.NumRows(); i++ {
		if avg.Float(i) <= 0 {
			t.Fatalf("region %d has non-positive average crime", i)
		}
	}

	// 3. Zoom in: pick a threshold from the data itself.
	p90, err := ziggy.Quantile(loaded, "crime_violent_rate", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT * FROM crime WHERE crime_violent_rate >= %.4f", p90)
	pred, err := ziggy.PredicateColumns(sql)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Characterize the selection.
	report, err := session.CharacterizeOpts(sql, ziggy.Options{ExcludeColumns: pred})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Views) < 4 {
		t.Fatalf("views = %d, want ≥ 4", len(report.Views))
	}
	for _, v := range report.Views {
		if v.Explanation == "" || len(v.Components) == 0 {
			t.Fatalf("view %v incomplete", v.Columns)
		}
		if v.Tightness < ziggy.DefaultConfig().MinTight-1e-9 {
			t.Fatalf("view %v violates tightness", v.Columns)
		}
	}

	// 5. Plot the top view like the demo UI would.
	chart, err := ziggy.PlotView(report.Base, report.Mask, report.Views[0].Columns, 50, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "+") {
		t.Fatalf("chart lacks selection glyphs:\n%s", chart)
	}

	// 6. Refine the query; the second characterization must reuse the
	// dependency structure (interactive latency).
	p75, err := ziggy.Quantile(loaded, "crime_violent_rate", 0.75)
	if err != nil {
		t.Fatal(err)
	}
	sql2 := fmt.Sprintf("SELECT * FROM crime WHERE crime_violent_rate >= %.4f", p75)
	report2, err := session.CharacterizeOpts(sql2, ziggy.Options{ExcludeColumns: pred})
	if err != nil {
		t.Fatal(err)
	}
	if !report2.CacheHit {
		t.Error("second query should hit the shared statistics cache")
	}
	if report2.Timings.Preparation > report.Timings.Preparation {
		t.Errorf("warm preparation (%v) slower than cold (%v)",
			report2.Timings.Preparation, report.Timings.Preparation)
	}
}
