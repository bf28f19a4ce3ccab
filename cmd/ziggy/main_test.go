package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/csvio"
	"repro/internal/synth"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestCLICharacterizesBuiltinDataset(t *testing.T) {
	out, err := runCLI(t,
		"-dataset", "boxoffice",
		"-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100",
		"-max-views", "3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"query:", "selection:", "score", "1."} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Predicate exclusion is on by default.
	if strings.Contains(out, "gross_musd ×") || strings.Contains(out, "× gross_musd") {
		t.Errorf("predicate column appeared in a view:\n%s", out)
	}
}

func TestCLIJSONOutput(t *testing.T) {
	out, err := runCLI(t,
		"-dataset", "boxoffice",
		"-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100",
		"-json")
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		SQL          string `json:"sql"`
		SelectedRows int    `json:"selectedRows"`
		Views        []struct {
			Columns []string `json:"columns"`
			Score   float64  `json:"score"`
		} `json:"views"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(decoded.Views) == 0 || decoded.Views[0].Score <= 0 || len(decoded.Views[0].Columns) == 0 {
		t.Fatalf("no views in JSON output:\n%s", out)
	}
	if decoded.SQL == "" || decoded.SelectedRows == 0 {
		t.Fatalf("report header missing from JSON output:\n%s", out)
	}
}

// TestCLIJSONInvalidComponent runs a selection whose year view carries an
// invalid diff-stddevs component (raw, norm and p all NaN): -json must
// still encode, dropping the component, as /api/characterize does.
func TestCLIJSONInvalidComponent(t *testing.T) {
	out, err := runCLI(t,
		"-dataset", "boxoffice",
		"-query", "SELECT * FROM boxoffice WHERE year >= 2013",
		"-exclude-predicate=false",
		"-json")
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Views []struct {
			Columns    []string `json:"columns"`
			Components []struct {
				Kind string `json:"kind"`
			} `json:"components"`
		} `json:"views"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	var year bool
	for _, v := range decoded.Views {
		for _, c := range v.Columns {
			year = year || c == "year"
		}
	}
	if !year {
		t.Fatalf("no view over the predicate column year:\n%s", out)
	}
}

func TestCLICSVInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movies.csv")
	if err := csvio.WriteFile(path, synth.BoxOffice(3)); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t,
		"-csv", path,
		"-query", "SELECT * FROM movies WHERE gross_musd >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "selection:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestCLIFlagCombinations(t *testing.T) {
	good := [][]string{
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100", "-robust"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100", "-linkage", "average"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100", "-measure", "spearman"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100", "-generator", "cliques"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100", "-agg", "bonferroni"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100", "-exclude", "budget_musd, critic_score"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice WHERE gross_musd >= 100", "-significant-only"},
	}
	for _, args := range good {
		if _, err := runCLI(t, args...); err != nil {
			t.Errorf("args %v failed: %v", args, err)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	bad := [][]string{
		{},
		{"-query", "SELECT * FROM x"},
		{"-dataset", "nope", "-query", "SELECT * FROM nope"},
		{"-dataset", "boxoffice", "-csv", "x.csv", "-query", "SELECT * FROM boxoffice"},
		{"-dataset", "boxoffice", "-query", "not sql"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice", "-linkage", "bogus"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice", "-measure", "bogus"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice", "-generator", "bogus"},
		{"-dataset", "boxoffice", "-query", "SELECT * FROM boxoffice", "-agg", "bogus"},
		{"-csv", "/no/such/file.csv", "-query", "SELECT * FROM file"},
	}
	for _, args := range bad {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}
