package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/synth"
)

// withCell copies f with row r of numeric column name set to v.
func withCell(t *testing.T, f *frame.Frame, name string, r int, v float64) *frame.Frame {
	t.Helper()
	cols := append([]*frame.Column(nil), f.Columns()...)
	i := f.ColIndex(name)
	vals := append([]float64(nil), cols[i].Floats()...)
	vals[r] = v
	cols[i] = frame.NewNumericColumn(name, vals)
	g, err := frame.New(f.Name(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNonFiniteCellKeepsViews pins the dependency matrix and the report on
// a table with one infinite or overflowing numeric cell. Such a cell turns
// the correlation ratio η of its column's categorical pairs NaN; every
// cell must still map to S in [0, 1], so the clustering accepts the matrix
// and the Figure 1 selection still finds its views instead of returning an
// empty report.
func TestNonFiniteCellKeepsViews(t *testing.T) {
	base := synth.USCrime(1)
	for _, v := range []float64{math.Inf(1), math.Inf(-1), 1e300} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			f := withCell(t, base, "pop_density", 17, v)
			for _, m := range []depend.Measure{depend.AbsPearson, depend.AbsSpearman, depend.NormalizedMI} {
				mat := depend.NewMatrixParallel(f, m, 2)
				for i := 0; i < mat.Len(); i++ {
					for j := 0; j < mat.Len(); j++ {
						if s := mat.At(i, j); !(s >= 0 && s <= 1) {
							t.Errorf("%v: S(%s, %s) = %v, want it in [0, 1]", m, mat.Names()[i], mat.Names()[j], s)
						}
					}
				}
			}
			crime := f.Col(f.ColIndex("crime_violent_rate"))
			sel := frame.NewBitmap(f.NumRows())
			for r := 0; r < f.NumRows(); r++ {
				if crime.Float(r) >= 1300 {
					sel.Set(r)
				}
			}
			e, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.CharacterizeOpts(f, sel, Options{SkipReportCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Views) == 0 {
				t.Error("no views")
			}
		})
	}
}
