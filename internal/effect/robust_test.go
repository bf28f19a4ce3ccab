package effect

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// TestCliffDeltaDegenerate pins the untestable-input contract of the robust
// component: all-ties columns keep a defined delta but an untestable
// P = NaN, while single-element groups and NaN-bearing columns yield the
// invalid component — never a panic.
func TestCliffDeltaDegenerate(t *testing.T) {
	t.Run("ranked", func(t *testing.T) {
		comp := func(in, out []float64) Component { return CliffDeltaRanked("x", stats.NewRanking(in, out)) }
		// All ties: delta 0 and medians defined, but the Mann-Whitney
		// variance collapses, so the significance bound is NaN.
		c := comp([]float64{4, 4, 4, 4}, []float64{4, 4, 4})
		if !c.Valid() || c.Raw != 0 || c.Inside != 4 || c.Outside != 4 {
			t.Errorf("all-ties component = %+v, want valid delta 0 around 4", c)
		}
		if !math.IsNaN(c.Test.P) {
			t.Errorf("all-ties P = %v, want NaN", c.Test.P)
		}
		// Single-element and empty groups.
		for _, pair := range [][2][]float64{
			{{1}, {2, 3, 4}},
			{{1, 2, 3}, {4}},
			{nil, {1, 2, 3}},
		} {
			if c := comp(pair[0], pair[1]); c.Valid() || !math.IsNaN(c.Test.P) {
				t.Errorf("tiny groups %v gave %+v, want invalid", pair, c)
			}
		}
		// NaN-bearing columns.
		for _, pair := range [][2][]float64{
			{{1, math.NaN(), 3}, {4, 5, 6}},
			{{1, 2, 3}, {math.NaN(), 5, 6}},
		} {
			if c := comp(pair[0], pair[1]); c.Valid() || !math.IsNaN(c.Test.P) {
				t.Errorf("NaN input %v gave %+v, want invalid", pair, c)
			}
		}
	})
}

// TestCliffDeltaRankOnce asserts the budget at the component level: one
// robust component — delta, medians, Mann-Whitney bound — costs exactly
// one ranking pass, and matches the walk of a column order bit for bit.
func TestCliffDeltaRankOnce(t *testing.T) {
	in := normals(21, 300, 0, 1)
	out := normals(22, 400, 0.5, 1)

	before := stats.RankOps()
	fresh := CliffDeltaRanked("x", stats.NewRanking(in, out))
	if got := stats.RankOps() - before; got != 1 {
		t.Errorf("NewRanking + CliffDeltaRanked cost %d ranking passes, want 1", got)
	}
	walked := CliffDeltaRanked("x", columnRanking(in, out))
	if componentBits(fresh) != componentBits(walked) {
		t.Errorf("NewRanking component %+v differs from the column walk %+v", fresh, walked)
	}
}

// TestQuantilesRankedSharesRanking asserts the extended quantile-shift
// and tail components reuse the column's Ranking instead of re-ranking, and
// match the sorted-copy reference bit-for-bit.
func TestQuantilesRankedSharesRanking(t *testing.T) {
	in := normals(23, 120, 0, 1)
	out := normals(24, 150, 0.8, 1.2)
	r := stats.NewRanking(in, out)

	before := stats.RankOps()
	q := Quantiles("x", r)
	tw := Tails("x", r, stats.Summarize(in), stats.Summarize(out))
	if got := stats.RankOps() - before; got != 0 {
		t.Errorf("Quantiles and Tails cost %d ranking passes, want 0", got)
	}
	if componentBits(q) != componentBits(refQuantiles(in, out)) {
		t.Errorf("Quantiles %+v differs from the sorted-copy reference %+v", q, refQuantiles(in, out))
	}
	if componentBits(tw) != componentBits(refTails(in, out)) {
		t.Errorf("Tails %+v differs from the sorted-copy reference %+v", tw, refTails(in, out))
	}
}
