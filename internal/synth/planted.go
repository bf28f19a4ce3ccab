package synth

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/randx"
)

// PlantedView describes one ground-truth characteristic view to embed in a
// generated dataset: a group of mutually correlated columns on which the
// selected rows differ from the rest in a controlled way.
type PlantedView struct {
	// Cols is the number of columns in the view (≥ 1).
	Cols int
	// WithinCorr is the pairwise correlation between the view's columns
	// (0 ≤ WithinCorr < 1); it controls tightness.
	WithinCorr float64
	// MeanShift displaces the selection's mean by this many standard
	// deviations.
	MeanShift float64
	// ScaleRatio multiplies the selection's standard deviation (1 = no
	// spread change).
	ScaleRatio float64
	// DecorrelateInside, when true, breaks the within-view correlation for
	// selected rows — the Figure 3 "difference between correlation
	// coefficients" signal.
	DecorrelateInside bool
	// Decoy marks a correlated block with NO selection distortion: it is
	// generated like any view but excluded from the ground truth. Decoys
	// trip up context-free methods (PCA finds them because they carry
	// shared variance) while Ziggy must rank them below the true views.
	Decoy bool
}

// PlantedConfig configures the generator.
type PlantedConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Rows is the dataset length.
	Rows int
	// SelectionFraction is the share of rows marked as the "query result"
	// (0 < fraction < 1).
	SelectionFraction float64
	// Views are the planted characteristic views.
	Views []PlantedView
	// NoiseCols is the number of unrelated standard-normal columns
	// appended after the planted views.
	NoiseCols int
}

// PlantedData is the generated dataset together with its ground truth.
type PlantedData struct {
	// Frame holds the data; planted columns are named viewK_colJ, noise
	// columns noiseJ.
	Frame *frame.Frame
	// Selection marks the "inside" rows.
	Selection *frame.Bitmap
	// TrueViews lists the column-name groups of the planted views, in
	// plant order.
	TrueViews [][]string
}

// Planted generates a dataset with known characteristic views. The baseline
// accuracy experiment (x3 in the internal/experiments index) measures how
// well each search method recovers TrueViews from Frame + Selection.
func Planted(cfg PlantedConfig) (*PlantedData, error) {
	if cfg.Rows < 10 {
		return nil, fmt.Errorf("synth: Planted needs at least 10 rows, got %d", cfg.Rows)
	}
	if cfg.SelectionFraction <= 0 || cfg.SelectionFraction >= 1 {
		return nil, fmt.Errorf("synth: SelectionFraction must be in (0,1), got %v", cfg.SelectionFraction)
	}
	if len(cfg.Views) == 0 && cfg.NoiseCols == 0 {
		return nil, fmt.Errorf("synth: nothing to generate")
	}
	for i, v := range cfg.Views {
		if v.Cols < 1 {
			return nil, fmt.Errorf("synth: view %d has %d columns", i, v.Cols)
		}
		if v.WithinCorr < 0 || v.WithinCorr >= 1 {
			return nil, fmt.Errorf("synth: view %d WithinCorr %v outside [0,1)", i, v.WithinCorr)
		}
		if v.ScaleRatio < 0 {
			return nil, fmt.Errorf("synth: view %d negative ScaleRatio", i)
		}
	}

	r := randx.New(cfg.Seed)
	n := cfg.Rows

	// Draw the selection: contiguous assignment then shuffle would bias
	// nothing, but per-row Bernoulli keeps it simple; enforce at least two
	// rows on each side.
	sel := frame.NewBitmap(n)
	for {
		for i := 0; i < n; i++ {
			if r.Bernoulli(cfg.SelectionFraction) {
				sel.Set(i)
			} else {
				sel.Clear(i)
			}
		}
		c := sel.Count()
		if c >= 2 && n-c >= 2 {
			break
		}
	}

	b := frame.NewBuilder("planted")
	var trueViews [][]string

	for vi, view := range cfg.Views {
		vr := r.Fork()
		names := make([]string, view.Cols)
		colIdx := make([]int, view.Cols)
		prefix := "view"
		if view.Decoy {
			prefix = "decoy"
		}
		for j := 0; j < view.Cols; j++ {
			names[j] = fmt.Sprintf("%s%d_col%d", prefix, vi, j)
			colIdx[j] = b.AddNumeric(names[j])
		}
		if !view.Decoy {
			trueViews = append(trueViews, names)
		}

		// Shared-factor construction: x_j = sqrt(rho)*f + sqrt(1-rho)*eps_j
		// gives pairwise correlation rho. Inside the selection we apply the
		// planted distortions.
		rho := view.WithinCorr
		a := math.Sqrt(rho)
		bNoise := math.Sqrt(1 - rho)
		scale := view.ScaleRatio
		if scale == 0 {
			scale = 1
		}
		row := make([]float64, view.Cols)
		for i := 0; i < n; i++ {
			f := vr.NormFloat64()
			inside := sel.Get(i) && !view.Decoy
			for j := 0; j < view.Cols; j++ {
				var v float64
				if inside && view.DecorrelateInside {
					// Independent draw: correlation collapses to 0 inside.
					v = vr.NormFloat64()
				} else {
					v = a*f + bNoise*vr.NormFloat64()
				}
				if inside {
					v = v*scale + view.MeanShift
				}
				row[j] = v
			}
			for j, idx := range colIdx {
				b.AppendFloat(idx, row[j])
			}
		}
	}

	nr := r.Fork()
	for j := 0; j < cfg.NoiseCols; j++ {
		idx := b.AddNumeric(fmt.Sprintf("noise%d", j))
		for i := 0; i < n; i++ {
			b.AppendFloat(idx, nr.NormFloat64())
		}
	}

	f, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &PlantedData{Frame: f, Selection: sel, TrueViews: trueViews}, nil
}
