package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/stats"
)

// countNumeric returns how many numeric columns of f clear the MinRows
// usability bar on both sides of sel — the columns the robust and
// extended paths must rank exactly once each.
func countNumeric(t *testing.T, f *frame.Frame, sel *frame.Bitmap, minRows int) int {
	t.Helper()
	n := 0
	for _, idx := range f.NumericColumns() {
		in, out := splitNumericCol(f.Col(idx), sel, nil)
		if len(in) >= minRows && len(out) >= minRows {
			n++
		}
	}
	return n
}

// TestRobustRankBudget asserts the tentpole invariant end to end: a robust
// characterization performs exactly one ranking pass per usable numeric
// column — the single pass shared by Cliff's delta, its medians and the
// Mann-Whitney bound — and the budget holds for every worker count while
// the output stays byte-identical to the sequential run. Candidate views
// reuse the per-column components, so the cost is per column, not per
// column per view (strictly better than the acceptance bound).
func TestRobustRankBudget(t *testing.T) {
	pd := plantedFixture(t, 77)
	cfg := DefaultConfig()
	cfg.Robust = true

	wantRanks := int64(countNumeric(t, pd.Frame, pd.Selection, cfg.MinRows))
	if wantRanks == 0 {
		t.Fatal("fixture has no usable numeric columns")
	}

	var wantFP string
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		cfg.Parallelism = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := stats.RankOps()
		rep, err := e.Characterize(pd.Frame, pd.Selection)
		if err != nil {
			t.Fatal(err)
		}
		got := stats.RankOps() - before
		if got != wantRanks {
			t.Errorf("parallelism=%d: %d ranking passes for %d usable numeric columns, want exactly one each",
				workers, got, wantRanks)
		}
		fp := fingerprint(rep)
		if workers == 1 {
			wantFP = fp
			if len(rep.Views) == 0 {
				t.Fatal("reference run found no views")
			}
			continue
		}
		if fp != wantFP {
			t.Errorf("parallelism=%d: robust output differs from sequential", workers)
		}
	}
}

// TestRobustExtendedRankBudget asserts the budget in extended mode, for
// both Robust values: the quantile-shift and tail components read their
// order statistics off the column's Ranking, so each usable numeric column
// costs exactly one ranking pass — the same pass Cliff's delta uses in
// robust mode — for every worker count, with byte-identical output.
func TestRobustExtendedRankBudget(t *testing.T) {
	pd := plantedFixture(t, 78)
	for _, robust := range []bool{false, true} {
		t.Run(fmt.Sprintf("robust=%v", robust), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Robust = robust
			cfg.Extended = true

			wantRanks := int64(countNumeric(t, pd.Frame, pd.Selection, cfg.MinRows))
			if wantRanks == 0 {
				t.Fatal("fixture has no usable numeric columns")
			}
			var wantFP string
			for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
				cfg.Parallelism = workers
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				before := stats.RankOps()
				rep, err := e.Characterize(pd.Frame, pd.Selection)
				if err != nil {
					t.Fatal(err)
				}
				if got := stats.RankOps() - before; got != wantRanks {
					t.Errorf("parallelism=%d: %d ranking passes for %d usable numeric columns, want exactly one each",
						workers, got, wantRanks)
				}
				fp := fingerprint(rep)
				if workers == 1 {
					wantFP = fp
					if len(rep.Views) == 0 {
						t.Fatal("reference run found no views")
					}
					continue
				}
				if fp != wantFP {
					t.Errorf("parallelism=%d: extended output differs from sequential", workers)
				}
			}
		})
	}
}

// TestSpearmanMatrixRankBudget asserts the dependency matrix's rank-once
// phase: under the Spearman measure the matrix ranks each NULL-free numeric
// column once — cols passes, not the 2·cols·(cols−1) a per-pair Spearman
// would pay — for every worker count, with identical cells.
func TestSpearmanMatrixRankBudget(t *testing.T) {
	pd := plantedFixture(t, 79)
	f := pd.Frame
	numeric := 0
	for _, idx := range f.NumericColumns() {
		if f.Col(idx).NullCount() == 0 && f.Col(idx).Len() >= 3 {
			numeric++
		}
	}
	if numeric < 3 {
		t.Fatal("fixture has too few numeric columns")
	}

	var want *depend.Matrix
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		before := stats.RankOps()
		m := depend.NewMatrixParallel(f, depend.AbsSpearman, workers)
		if got := stats.RankOps() - before; got != int64(numeric) {
			t.Errorf("workers=%d: %d ranking passes for %d columns, want one each", workers, got, numeric)
		}
		if want == nil {
			want = m
			continue
		}
		for i := 0; i < m.Len(); i++ {
			for j := 0; j < m.Len(); j++ {
				if m.At(i, j) != want.At(i, j) {
					t.Fatalf("workers=%d: cell (%d,%d) = %v, want %v", workers, i, j, m.At(i, j), want.At(i, j))
				}
			}
		}
	}
}
