package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/stats"
)

// rankBudget runs the ranking-pass budget for cfg on the planted fixture
// at every worker count and returns the report fingerprint, which must not
// depend on the worker count. A ranking engine (Robust or Extended) makes
// exactly one ranking pass per numeric column on a cold characterization,
// all of them in preparation (the column orders), and none for a second,
// fresh selection on the warm table: each query walks the orders instead of
// sorting its in+out concatenations. A default-mode engine makes none at
// all.
func rankBudget(t *testing.T, cfg Config, seed uint64) {
	t.Helper()
	pd := plantedFixture(t, seed)
	f, sel := pd.Frame, pd.Selection
	fresh := sel.Not()
	want := int64(0)
	if cfg.Robust || cfg.Extended {
		want = int64(len(f.NumericColumns()))
	}
	if len(f.NumericColumns()) == 0 {
		t.Fatal("fixture has no numeric columns")
	}
	passes := func(run func()) int64 {
		before := stats.RankOps()
		run()
		return stats.RankOps() - before
	}
	characterize := func(e *Engine, s *frame.Bitmap) *Report {
		rep, err := e.Characterize(f, s)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	var wantFP, wantFreshFP string
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		cfg.Parallelism = workers
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rep *Report
		if got := passes(func() { rep = characterize(e, sel) }); got != want {
			t.Errorf("parallelism=%d: cold characterization made %d ranking passes, want %d (one per numeric column)",
				workers, got, want)
		}
		var freshRep *Report
		if got := passes(func() { freshRep = characterize(e, fresh) }); got != 0 {
			t.Errorf("parallelism=%d: fresh selection on the warm table made %d ranking passes, want 0", workers, got)
		}
		// The cold passes all belong to preparation: preparing the table
		// on a new engine makes them, and the query then makes none.
		e2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := passes(func() {
			if _, _, err := e2.prepare(f); err != nil {
				t.Fatal(err)
			}
		}); got != want {
			t.Errorf("parallelism=%d: preparation made %d ranking passes, want %d", workers, got, want)
		}
		if got := passes(func() { characterize(e2, sel) }); got != 0 {
			t.Errorf("parallelism=%d: characterization after preparation made %d ranking passes, want 0", workers, got)
		}
		fp, freshFP := fingerprint(rep), fingerprint(freshRep)
		if workers == 1 {
			wantFP, wantFreshFP = fp, freshFP
			if len(rep.Views) == 0 || len(freshRep.Views) == 0 {
				t.Fatal("reference run found no views")
			}
			continue
		}
		if fp != wantFP || freshFP != wantFreshFP {
			t.Errorf("parallelism=%d: output differs from sequential", workers)
		}
	}
}

// TestRobustRankBudget asserts the sort-once, walk-per-query budget in
// default and robust mode: robust engines sort each numeric column once
// per table, in preparation, and default-mode engines never rank.
func TestRobustRankBudget(t *testing.T) {
	for _, robust := range []bool{false, true} {
		t.Run(fmt.Sprintf("robust=%v", robust), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Robust = robust
			rankBudget(t, cfg, 77)
		})
	}
}

// TestRobustExtendedRankBudget asserts the same budget in extended mode,
// for both Robust values: the quantile-shift and tail components walk the
// same prepared orders, so extended mode ranks each numeric column once
// per table whether or not it is robust.
func TestRobustExtendedRankBudget(t *testing.T) {
	for _, robust := range []bool{false, true} {
		t.Run(fmt.Sprintf("robust=%v", robust), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Robust = robust
			cfg.Extended = true
			rankBudget(t, cfg, 78)
		})
	}
}

// TestPreparedSizeCountsOrders pins the prepared tier's accounting: a
// ranking engine's prepared entry is larger than a default-mode entry of
// the same table by exactly 4 bytes per non-NULL numeric cell — the column
// orders' slab — so the cache budget sees what the orders cost.
func TestPreparedSizeCountsOrders(t *testing.T) {
	nan := math.NaN()
	f, err := frame.New("t", []*frame.Column{
		frame.NewNumericColumn("a", []float64{1, nan, 3, 4, nan, 6, 7, 8}),
		frame.NewCategoricalColumn("c", []string{"x", "y", "x", "", "y", "x", "y", "x"}),
		frame.NewNumericColumn("b", []float64{nan, 2, 2, 5, 1, nan, nan, 0}),
		frame.NewNumericColumn("z", []float64{nan, nan, nan, nan, nan, nan, nan, nan}),
	})
	if err != nil {
		t.Fatal(err)
	}
	nonNull := 0
	for _, i := range f.NumericColumns() {
		nonNull += f.Col(i).Len() - f.Col(i).NullCount()
	}
	if nonNull != 11 {
		t.Fatalf("fixture has %d non-NULL numeric cells, want 11", nonNull)
	}
	size := func(cfg Config) int64 {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := e.prepare(f)
		if err != nil {
			t.Fatal(err)
		}
		return preparedSize(p)
	}
	plain := size(DefaultConfig())
	for _, mode := range []struct{ robust, extended bool }{{true, false}, {false, true}, {true, true}} {
		cfg := DefaultConfig()
		cfg.Robust, cfg.Extended = mode.robust, mode.extended
		if got := size(cfg) - plain; got != int64(4*nonNull) {
			t.Errorf("robust=%v extended=%v: prepared entry grows by %d bytes, want %d", mode.robust, mode.extended, got, 4*nonNull)
		}
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
