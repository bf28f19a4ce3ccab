package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/depend"
	"repro/internal/frame"
	"repro/internal/stats"
	"repro/internal/synth"
)

// rankBudget runs the ranking-pass budget for cfg on the planted fixture
// at every worker count and returns the report fingerprint, which must not
// depend on the worker count. A ranking engine (Robust or Extended) makes
// exactly one ranking pass per numeric column on a cold characterization,
// all of them in preparation (the column rank indexes), and none for a
// second, fresh selection on the warm table: each query ranks from the
// indexes instead of sorting its in+out concatenations. A default-mode engine makes none at
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
// for both Robust values: the quantile-shift and tail components read the
// same prepared rank indexes, so extended mode ranks each numeric column
// once per table whether or not it is robust.
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
// the same table by exactly its rank indexes — 4 bytes per numeric cell,
// NULL rows and all-NULL columns included, plus 8 per tie group (column b
// ties its two 2s) — so the cache budget sees what the indexes cost.
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
	const want = 4*3*8 + 8*1
	plain := preparedBytes(t, DefaultConfig(), f)
	for _, mode := range []struct{ robust, extended bool }{{true, false}, {false, true}, {true, true}} {
		cfg := DefaultConfig()
		cfg.Robust, cfg.Extended = mode.robust, mode.extended
		if got := preparedBytes(t, cfg, f) - plain; got != want {
			t.Errorf("robust=%v extended=%v: prepared entry grows by %d bytes, want %d", mode.robust, mode.extended, got, want)
		}
	}
}

// preparedBytes prepares f on a new engine under cfg and returns the
// entry's preparedSize.
func preparedBytes(t *testing.T, cfg Config, f *frame.Frame) int64 {
	t.Helper()
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

// TestPreparedSizeChargesRankIndexes pins the same charge on a robust
// engine over the NULL-injected uscrime table, with its tie groups counted
// from sorted copies of the columns: NULL rows cost 4 bytes like any
// other, so the indexes cost 4 bytes per row of every numeric column.
func TestPreparedSizeChargesRankIndexes(t *testing.T) {
	f := nullInjected(t, synth.USCrime(1))
	want, nulls := int64(0), 0
	for _, i := range f.NumericColumns() {
		c := f.Col(i)
		nulls += c.NullCount()
		want += 4 * int64(c.Len())
		var vals []float64
		for _, v := range c.Floats() {
			if !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		for k := 1; k < len(vals); k++ {
			if vals[k] == vals[k-1] && (k == 1 || vals[k-1] != vals[k-2]) {
				want += 8
			}
		}
	}
	if nulls == 0 {
		t.Fatal("fixture has no NULL numeric cells")
	}
	cfg := DefaultConfig()
	cfg.Robust = true
	if got := preparedBytes(t, cfg, f) - preparedBytes(t, DefaultConfig(), f); got != want {
		t.Errorf("robust prepared entry grows by %d bytes, want %d", got, want)
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
