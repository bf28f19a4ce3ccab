package core

import (
	"strings"
	"testing"

	"repro/internal/effect"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/synth"
)

func TestExtendedComponentsEmitted(t *testing.T) {
	pd := plantedFixture(t, 20)
	cfg := DefaultConfig()
	cfg.Extended = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Characterize(pd.Frame, pd.Selection)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[effect.Kind]bool{}
	for _, v := range rep.Views {
		for _, c := range v.Components {
			if c.Valid() {
				kinds[c.Kind] = true
			}
		}
	}
	if !kinds[effect.DiffQuantiles] {
		t.Error("extended mode emitted no quantile components")
	}
	if !kinds[effect.DiffTails] {
		t.Error("extended mode emitted no tail components")
	}
}

func TestExtendedMixedSeparation(t *testing.T) {
	// Build a table where a categorical column separates a numeric one
	// inside the selection only; extended mode must produce the
	// DiffSeparation component on that pair.
	r := randx.New(9)
	n := 2000
	cats := make([]string, n)
	nums := make([]float64, n)
	filler := make([]float64, n)
	sel := frame.NewBitmap(n)
	labels := []string{"p", "q", "r"}
	for i := 0; i < n; i++ {
		g := r.Intn(3)
		cats[i] = labels[g]
		filler[i] = r.NormFloat64()
		if i < 600 {
			sel.Set(i)
			nums[i] = float64(g)*4 + r.NormFloat64() // separated inside
		} else {
			nums[i] = r.NormFloat64() // flat outside
		}
	}
	f := frame.MustNew("t", []*frame.Column{
		frame.NewCategoricalColumn("group", cats),
		frame.NewNumericColumn("value", nums),
		frame.NewNumericColumn("filler", filler),
	})
	cfg := DefaultConfig()
	cfg.Extended = true
	cfg.MinTight = 0.2 // η between group and value is moderate overall
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Views {
		for _, c := range v.Components {
			if c.Kind == effect.DiffSeparation && c.Valid() {
				if c.Inside < 0.5 || c.Outside > 0.3 {
					t.Errorf("separation η in/out = %v/%v", c.Inside, c.Outside)
				}
				return
			}
		}
	}
	t.Error("no DiffSeparation component found in any view")
}

func TestExtendedWeightsAutoFilled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Extended = true
	// User weights without extended entries: New must fill them.
	cfg.Weights = effect.Weights{effect.DiffMeans: 2}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Config().Weights.Get(effect.DiffQuantiles) != 1 {
		t.Error("extended weights not auto-filled")
	}
	if e.Config().Weights.Get(effect.DiffMeans) != 2 {
		t.Error("user weights overwritten")
	}
}

func TestSamplingCapsRows(t *testing.T) {
	pd, err := synth.Planted(synth.PlantedConfig{
		Seed: 31, Rows: 20000, SelectionFraction: 0.25,
		Views:     []synth.PlantedView{{Cols: 2, WithinCorr: 0.75, MeanShift: 1.5}},
		NoiseCols: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.CharacterizeOpts(pd.Frame, pd.Selection, Options{ApproxRows: 2000})
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Approximate
	if a == nil {
		t.Fatal("sampled report carries no Approximate provenance")
	}
	if a.SampleRows == 0 || a.SampleRows > 2200 {
		t.Fatalf("sampled %d rows, cap was 2000", a.SampleRows)
	}
	if a.SEInflation <= 1 {
		t.Errorf("SE inflation %v on a 10%% sample, want > 1", a.SEInflation)
	}
	// The planted view must still be recovered from the sample.
	if len(rep.Views) == 0 {
		t.Fatal("no views from sampled run")
	}
	if !strings.HasPrefix(rep.Views[0].Columns[0], "view0") {
		t.Errorf("top view %v is not the planted one", rep.Views[0].Columns)
	}
}

// TestSamplingDisabledBelowCap pins a cap at or above the table's row
// count: the sample is the whole table, so the provenance block reports
// every row with no standard-error inflation, and the views are
// byte-identical to the exact report's.
func TestSamplingDisabledBelowCap(t *testing.T) {
	pd := plantedFixture(t, 33) // 3000 rows
	e, _ := New(DefaultConfig())
	exact, err := e.Characterize(pd.Frame, pd.Selection)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{pd.Frame.NumRows(), 50000} {
		rep, err := e.CharacterizeOpts(pd.Frame, pd.Selection, Options{ApproxRows: cap})
		if err != nil {
			t.Fatal(err)
		}
		want := Approximate{
			SampleRows:  rep.TotalRows,
			CapRows:     cap,
			InsideRows:  rep.SelectedRows,
			OutsideRows: rep.TotalRows - rep.SelectedRows,
			SEInflation: 1,
		}
		if rep.Approximate == nil || *rep.Approximate != want {
			t.Fatalf("cap %d: Approximate = %+v, want %+v", cap, rep.Approximate, want)
		}
		stripped := *rep
		stripped.Approximate = nil
		if got, want := fingerprint(&stripped), fingerprint(exact); got != want {
			t.Errorf("cap %d: whole-table sample differs from the exact report\nwant:\n%s\ngot:\n%s", cap, want, got)
		}
	}
}

func TestSamplingDeterministic(t *testing.T) {
	pd, err := synth.Planted(synth.PlantedConfig{
		Seed: 35, Rows: 10000, SelectionFraction: 0.3,
		Views:     []synth.PlantedView{{Cols: 2, WithinCorr: 0.7, MeanShift: 1.2}},
		NoiseCols: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := New(DefaultConfig())
	opts := Options{ApproxRows: 1500, SkipReportCache: true}
	rep1, err := e.CharacterizeOpts(pd.Frame, pd.Selection, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e.CharacterizeOpts(pd.Frame, pd.Selection, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Approximate == nil {
		t.Fatal("sampled report carries no Approximate provenance")
	}
	if fingerprint(rep1) != fingerprint(rep2) {
		t.Fatal("sampled runs disagree")
	}
}
