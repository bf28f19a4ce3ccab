package synth

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/stats"
)

func TestUSCrimeShape(t *testing.T) {
	f := USCrime(1)
	if f.NumRows() != USCrimeRows || f.NumCols() != USCrimeCols {
		t.Fatalf("shape %d×%d, want %d×%d", f.NumRows(), f.NumCols(), USCrimeRows, USCrimeCols)
	}
	if f.Name() != "uscrime" {
		t.Fatalf("name %q", f.Name())
	}
	if got := len(f.CategoricalColumns()); got != 2 {
		t.Fatalf("categorical columns = %d, want 2", got)
	}
}

func TestUSCrimeDeterminism(t *testing.T) {
	a := USCrime(7)
	b := USCrime(7)
	col := "crime_violent_rate"
	ca, _ := a.Lookup(col)
	cb, _ := b.Lookup(col)
	for i := 0; i < 50; i++ {
		if ca.Float(i) != cb.Float(i) {
			t.Fatalf("same seed diverges at row %d", i)
		}
	}
	c := USCrime(8)
	cc, _ := c.Lookup(col)
	same := 0
	for i := 0; i < 50; i++ {
		if ca.Float(i) == cc.Float(i) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds agree on %d/50 values", same)
	}
}

// pearsonOf extracts two numeric columns and correlates them.
func pearsonOf(t *testing.T, f *frame.Frame, a, b string) float64 {
	t.Helper()
	ca, ok := f.Lookup(a)
	if !ok {
		t.Fatalf("missing column %q", a)
	}
	cb, ok := f.Lookup(b)
	if !ok {
		t.Fatalf("missing column %q", b)
	}
	return stats.Pearson(ca.Floats(), cb.Floats())
}

func TestUSCrimeFigure1Structure(t *testing.T) {
	f := USCrime(42)
	// The four Figure 1 pairs must be tight (well correlated)...
	pairs := [][2]string{
		{"population", "pop_density"},
		{"pct_college_educ", "avg_salary"},
		{"avg_rent", "pct_home_owners"},
		{"pct_under_25", "pct_monoparental"},
	}
	for _, p := range pairs {
		if r := math.Abs(pearsonOf(t, f, p[0], p[1])); r < 0.4 {
			t.Errorf("pair %v correlation %v, want ≥ 0.4", p, r)
		}
	}
	// ...and correlated with violent crime in the documented directions.
	wantSign := map[string]float64{
		"population":          +1,
		"pop_density":         +1,
		"pct_college_educ":    -1,
		"avg_salary":          -1,
		"avg_rent":            -1,
		"pct_home_owners":     -1,
		"pct_under_25":        +1,
		"pct_monoparental":    +1,
		"pct_boarded_windows": +1,
	}
	for col, sign := range wantSign {
		r := pearsonOf(t, f, "crime_violent_rate", col)
		if r*sign < 0.15 {
			t.Errorf("corr(crime, %s) = %v, want sign %v with |r| ≥ 0.15", col, r, sign)
		}
	}
	// Noise columns must stay uncorrelated with crime.
	for _, col := range []string{"noise_indicator_1", "noise_indicator_7"} {
		if r := math.Abs(pearsonOf(t, f, "crime_violent_rate", col)); r > 0.1 {
			t.Errorf("corr(crime, %s) = %v, want ≈0", col, r)
		}
	}
}

func TestBoxOfficeShape(t *testing.T) {
	f := BoxOffice(1)
	if f.NumRows() != BoxOfficeRows || f.NumCols() != BoxOfficeCols {
		t.Fatalf("shape %d×%d", f.NumRows(), f.NumCols())
	}
	// Scale block coherence.
	if r := pearsonOf(t, f, "budget_musd", "gross_musd"); r < 0.3 {
		t.Errorf("corr(budget, gross) = %v, want strong", r)
	}
	if r := pearsonOf(t, f, "critic_score", "audience_score"); r < 0.4 {
		t.Errorf("corr(critic, audience) = %v, want strong", r)
	}
	// Year is independent filler.
	if r := math.Abs(pearsonOf(t, f, "year", "gross_musd")); r > 0.1 {
		t.Errorf("corr(year, gross) = %v, want ≈0", r)
	}
	genre, _ := f.Lookup("genre")
	if genre.Cardinality() != 6 {
		t.Errorf("genre cardinality = %d, want 6", genre.Cardinality())
	}
}

func TestInnovationShape(t *testing.T) {
	f := Innovation(1)
	if f.NumRows() != InnovationRows || f.NumCols() != InnovationCols {
		t.Fatalf("shape %d×%d, want %d×%d", f.NumRows(), f.NumCols(), InnovationRows, InnovationCols)
	}
	// R&D marquee indicators correlate with the patent outcome.
	if r := pearsonOf(t, f, "patents_per_capita", "rd_spend_01"); r < 0.2 {
		t.Errorf("corr(patents, rd_spend_01) = %v, want positive", r)
	}
	// Distant societal blocks barely correlate with patents.
	if r := math.Abs(pearsonOf(t, f, "patents_per_capita", "culture_12")); r > 0.25 {
		t.Errorf("corr(patents, culture_12) = %v, want weak", r)
	}
	if got := len(f.CategoricalColumns()); got != 3 {
		t.Fatalf("categorical columns = %d, want 3", got)
	}
}

func TestQuantileOf(t *testing.T) {
	f := BoxOffice(3)
	q90, err := QuantileOf(f, "gross_musd", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	q50, err := QuantileOf(f, "gross_musd", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q90 <= q50 {
		t.Fatalf("P90 (%v) should exceed P50 (%v)", q90, q50)
	}
	if _, err := QuantileOf(f, "genre", 0.5); err == nil {
		t.Fatal("QuantileOf on categorical should fail")
	}
	if _, err := QuantileOf(f, "nosuch", 0.5); err == nil {
		t.Fatal("QuantileOf on missing column should fail")
	}
}

func TestPlantedBasics(t *testing.T) {
	pd, err := Planted(PlantedConfig{
		Seed: 11, Rows: 2000, SelectionFraction: 0.2,
		Views: []PlantedView{
			{Cols: 3, WithinCorr: 0.7, MeanShift: 1.5},
			{Cols: 2, WithinCorr: 0.8, ScaleRatio: 3},
		},
		NoiseCols: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pd.Frame.NumCols() != 10 {
		t.Fatalf("cols = %d, want 10", pd.Frame.NumCols())
	}
	if len(pd.TrueViews) != 2 || len(pd.TrueViews[0]) != 3 {
		t.Fatalf("TrueViews = %v", pd.TrueViews)
	}
	frac := float64(pd.Selection.Count()) / float64(pd.Frame.NumRows())
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("selection fraction = %v, want ≈0.2", frac)
	}
}

func TestPlantedMeanShiftIsRealized(t *testing.T) {
	pd, err := Planted(PlantedConfig{
		Seed: 13, Rows: 5000, SelectionFraction: 0.3,
		Views: []PlantedView{{Cols: 2, WithinCorr: 0.6, MeanShift: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, out, err := pd.Frame.SplitNumeric("view0_col0", pd.Selection)
	if err != nil {
		t.Fatal(err)
	}
	shift := stats.Mean(in) - stats.Mean(out)
	if math.Abs(shift-2) > 0.15 {
		t.Fatalf("realized shift = %v, want ≈2", shift)
	}
}

func TestPlantedScaleRatioIsRealized(t *testing.T) {
	pd, err := Planted(PlantedConfig{
		Seed: 17, Rows: 5000, SelectionFraction: 0.3,
		Views: []PlantedView{{Cols: 2, WithinCorr: 0.6, ScaleRatio: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in, out, _ := pd.Frame.SplitNumeric("view0_col0", pd.Selection)
	ratio := stats.StdDev(in) / stats.StdDev(out)
	if math.Abs(ratio-3) > 0.3 {
		t.Fatalf("realized std ratio = %v, want ≈3", ratio)
	}
}

func TestPlantedCorrelationStructure(t *testing.T) {
	pd, err := Planted(PlantedConfig{
		Seed: 19, Rows: 8000, SelectionFraction: 0.4,
		Views: []PlantedView{{Cols: 2, WithinCorr: 0.7, DecorrelateInside: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inA, outA, _ := pd.Frame.SplitNumeric("view0_col0", pd.Selection)
	inB, outB, _ := pd.Frame.SplitNumeric("view0_col1", pd.Selection)
	rIn := stats.Pearson(inA, inB)
	rOut := stats.Pearson(outA, outB)
	if math.Abs(rOut-0.7) > 0.05 {
		t.Fatalf("outside correlation = %v, want ≈0.7", rOut)
	}
	if math.Abs(rIn) > 0.08 {
		t.Fatalf("inside correlation = %v, want ≈0 (decorrelated)", rIn)
	}
}

func TestPlantedNoiseHasNoSignal(t *testing.T) {
	pd, err := Planted(PlantedConfig{
		Seed: 23, Rows: 5000, SelectionFraction: 0.3,
		Views:     []PlantedView{{Cols: 2, WithinCorr: 0.5, MeanShift: 2}},
		NoiseCols: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, out, _ := pd.Frame.SplitNumeric("noise0", pd.Selection)
	if d := math.Abs(stats.Mean(in) - stats.Mean(out)); d > 0.1 {
		t.Fatalf("noise column shifted by %v", d)
	}
}

func TestPlantedDecoys(t *testing.T) {
	pd, err := Planted(PlantedConfig{
		Seed: 41, Rows: 4000, SelectionFraction: 0.3,
		Views: []PlantedView{
			{Cols: 2, WithinCorr: 0.7, MeanShift: 1.5},
			{Cols: 2, WithinCorr: 0.9, Decoy: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Decoys are excluded from the ground truth but present in the frame.
	if len(pd.TrueViews) != 1 {
		t.Fatalf("TrueViews = %v, want only the real view", pd.TrueViews)
	}
	if _, ok := pd.Frame.Lookup("decoy1_col0"); !ok {
		t.Fatal("decoy columns missing from frame")
	}
	// Decoy columns show no distributional difference across the split...
	in, out, _ := pd.Frame.SplitNumeric("decoy1_col0", pd.Selection)
	if d := math.Abs(stats.Mean(in) - stats.Mean(out)); d > 0.1 {
		t.Errorf("decoy mean shifted by %v", d)
	}
	// ...but keep their internal correlation.
	a, _ := pd.Frame.Lookup("decoy1_col0")
	b, _ := pd.Frame.Lookup("decoy1_col1")
	if r := stats.Pearson(a.Floats(), b.Floats()); r < 0.8 {
		t.Errorf("decoy correlation = %v, want ≥ 0.8", r)
	}
}

func TestPlantedValidation(t *testing.T) {
	bad := []PlantedConfig{
		{Seed: 1, Rows: 5, SelectionFraction: 0.5, Views: []PlantedView{{Cols: 1}}},
		{Seed: 1, Rows: 100, SelectionFraction: 0, Views: []PlantedView{{Cols: 1}}},
		{Seed: 1, Rows: 100, SelectionFraction: 1, Views: []PlantedView{{Cols: 1}}},
		{Seed: 1, Rows: 100, SelectionFraction: 0.5},
		{Seed: 1, Rows: 100, SelectionFraction: 0.5, Views: []PlantedView{{Cols: 0}}},
		{Seed: 1, Rows: 100, SelectionFraction: 0.5, Views: []PlantedView{{Cols: 1, WithinCorr: 1}}},
		{Seed: 1, Rows: 100, SelectionFraction: 0.5, Views: []PlantedView{{Cols: 1, ScaleRatio: -1}}},
	}
	for i, cfg := range bad {
		if _, err := Planted(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func BenchmarkUSCrimeGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		USCrime(uint64(i))
	}
}

// TestByName pins the built-in dataset lookup the commands share: each name
// generates its dataset for the seed, and an unknown name is an error.
func TestByName(t *testing.T) {
	for name, gen := range map[string]func(uint64) *frame.Frame{
		"uscrime": USCrime, "boxoffice": BoxOffice, "innovation": Innovation,
	} {
		f, err := ByName(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Name() != name || f.Fingerprint() != gen(3).Fingerprint() {
			t.Errorf("ByName(%q, 3) differs from its generator", name)
		}
	}
	if _, err := ByName("nope", 3); err == nil {
		t.Error("unknown dataset accepted")
	}
}
