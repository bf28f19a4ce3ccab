package effect

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/hypo"
	"repro/internal/randx"
	"repro/internal/stats"
)

func TestQuantilesDetectsMedianShift(t *testing.T) {
	in := normals(1, 500, 3, 1)
	out := normals(2, 500, 0, 1)
	c := quantiles(in, out)
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	if c.Kind != DiffQuantiles {
		t.Fatal("wrong kind")
	}
	// Median shift of 3σ over IQR≈1.35σ gives raw ≈ 2.2.
	if c.Raw < 1.5 || c.Raw > 3 {
		t.Errorf("raw = %v, want ≈2.2", c.Raw)
	}
	if c.Inside < 2.5 || math.Abs(c.Outside) > 0.3 {
		t.Errorf("medians = %v/%v", c.Inside, c.Outside)
	}
	if !c.Test.Significant(0.001) {
		t.Error("3σ shift should be significant")
	}
	// Negative direction.
	c = quantiles(out, in)
	if c.Raw >= 0 {
		t.Errorf("reversed shift should be negative, got %v", c.Raw)
	}
}

func TestQuantilesRobustToOutliers(t *testing.T) {
	// A single enormous outlier barely moves the quantile component while
	// it would wreck the mean component.
	base := normals(3, 200, 0, 1)
	spiked := append(append([]float64{}, base...), 1e9)
	c := quantiles(spiked, base)
	if math.Abs(c.Raw) > 0.2 {
		t.Errorf("outlier moved quantile component to %v", c.Raw)
	}
}

func TestQuantilesDegenerate(t *testing.T) {
	if quantiles([]float64{1, 2, 3}, []float64{1, 2, 3, 4}).Valid() {
		t.Error("n<4 should be invalid")
	}
	flat := []float64{5, 5, 5, 5, 5}
	if quantiles(flat, flat).Valid() {
		t.Error("zero pooled IQR should be invalid")
	}
}

func TestTailsDetectsHeavyTails(t *testing.T) {
	r := randx.New(5)
	n := 3000
	light := make([]float64, n)
	heavy := make([]float64, n)
	for i := 0; i < n; i++ {
		light[i] = r.NormFloat64()
		// Student-t-ish heavy tails: normal scaled by inverse chi.
		denom := math.Abs(r.NormFloat64())*0.8 + 0.2
		heavy[i] = r.NormFloat64() / denom
	}
	c := tails(heavy, light)
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	if c.Raw <= 0.1 {
		t.Errorf("heavy-tailed selection raw = %v, want > 0.1", c.Raw)
	}
	c2 := tails(light, heavy)
	if c2.Raw >= -0.1 {
		t.Errorf("light-tailed selection raw = %v, want < -0.1", c2.Raw)
	}
}

func TestTailsDegenerate(t *testing.T) {
	short := []float64{1, 2, 3, 4, 5}
	long := normals(6, 50, 0, 1)
	if tails(short, long).Valid() {
		t.Error("n<10 should be invalid")
	}
	flat := make([]float64, 50)
	for i := range flat {
		flat[i] = 7
	}
	if tails(flat, long).Valid() {
		t.Error("zero IQR should be invalid")
	}
}

func TestEntropyConcentration(t *testing.T) {
	dict := []string{"a", "b", "c", "d"}
	// Selection: all "a" plus a dash of "b" (low entropy). Complement:
	// uniform (high entropy).
	in := make([]int32, 100)
	for i := 90; i < 100; i++ {
		in[i] = 1
	}
	out := make([]int32, 400)
	for i := range out {
		out[i] = int32(i % 4)
	}
	c := entropy("cat", in, out, dict)
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	if c.Raw >= 0 {
		t.Errorf("concentrated selection should have negative raw, got %v", c.Raw)
	}
	if c.Outside < 0.99 {
		t.Errorf("uniform complement entropy = %v, want ≈1", c.Outside)
	}
	if c.Norm <= 0.2 {
		t.Errorf("norm = %v, want substantial", c.Norm)
	}
	if !c.Test.Significant(0.001) {
		t.Error("distribution change should be significant")
	}
}

func TestEntropyDegenerate(t *testing.T) {
	dict := []string{"a", "b"}
	if entropy("c", []int32{0}, []int32{0, 1}, dict).Valid() {
		t.Error("n<2 should be invalid")
	}
	if entropy("c", []int32{0, 1}, []int32{0, 1}, []string{"only"}).Valid() {
		t.Error("single-category dict should be invalid")
	}
}

func TestSeparationDetectsGroupDivergence(t *testing.T) {
	r := randx.New(7)
	n := 2000
	// Inside: categories strongly separate the numeric values. Outside:
	// no separation.
	catIn := make([]int32, n)
	numIn := make([]float64, n)
	catOut := make([]int32, n)
	numOut := make([]float64, n)
	for i := 0; i < n; i++ {
		g := int32(r.Intn(3))
		catIn[i] = g
		numIn[i] = float64(g)*5 + r.NormFloat64()
		catOut[i] = int32(r.Intn(3))
		numOut[i] = r.NormFloat64()
	}
	c := Separation("group", "value", eta(catIn, numIn, 3), eta(catOut, numOut, 3))
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	if c.Inside < 0.8 {
		t.Errorf("inside η = %v, want > 0.8", c.Inside)
	}
	if c.Outside > 0.2 {
		t.Errorf("outside η = %v, want ≈0", c.Outside)
	}
	if c.Raw <= 0 {
		t.Errorf("raw = %v, want > 0", c.Raw)
	}
	if len(c.Columns) != 2 || c.Columns[0] != "group" {
		t.Errorf("columns = %v", c.Columns)
	}
	if !c.Test.Significant(0.001) {
		t.Error("separation flip should be significant")
	}
}

// eta feeds codes and vals, aligned, to a k-category correlation ratio.
func eta(codes []int32, vals []float64, k int) stats.Eta {
	acc := stats.NewCorrelationRatio(k)
	for i, g := range codes {
		acc.Add(g, vals[i])
	}
	return acc.Eta()
}

func TestSeparationDegenerate(t *testing.T) {
	if Separation("g", "v", eta([]int32{0, 1}, []float64{1, 2}, 2), eta([]int32{0, 1}, []float64{1, 2}, 2)).Valid() {
		t.Error("n<8 should be invalid")
	}
	n := 20
	one := make([]int32, n) // a single group
	two := make([]int32, n)
	num := make([]float64, n)
	for i := range num {
		two[i] = int32(i % 2)
		num[i] = float64(i)
	}
	if Separation("g", "v", eta(one, num, 2), eta(two, num, 2)).Valid() {
		t.Error("one populated category should be invalid")
	}
	clean := eta(two, num, 2)
	num[3] = math.Inf(1)
	if Separation("g", "v", eta(two, num, 2), clean).Valid() {
		t.Error("a NaN η should be invalid")
	}
}

func TestExtendedKindStrings(t *testing.T) {
	names := map[Kind]string{
		DiffQuantiles:  "diff-quantiles",
		DiffTails:      "diff-tails",
		DiffEntropy:    "diff-entropy",
		DiffSeparation: "diff-separation",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}

// componentBits serializes a component's numeric payload exactly, except
// that -0 collapses to +0: when a group contains both signed zeros the two
// sort orders may surface either representative as an order statistic, and
// the zeros are numerically equal.
func componentBits(c Component) string {
	bits := func(x float64) uint64 { return math.Float64bits(x + 0) }
	return fmt.Sprintf("%x %x %x %x %x %x %x",
		bits(c.Raw), bits(c.Norm),
		bits(c.Inside), bits(c.Outside),
		bits(c.Test.Stat), bits(c.Test.DF), bits(c.Test.P))
}

// quantiles and tails rank the pair afresh, as the engine does once per
// numeric column, and compute the component off that ranking.
func quantiles(in, out []float64) Component {
	return Quantiles("x", stats.NewRanking(in, out))
}

func tails(in, out []float64) Component {
	return Tails("x", stats.NewRanking(in, out), stats.Summarize(in), stats.Summarize(out))
}

// sortedRef returns an ascending copy of xs: the naive order-statistics
// path the ranked components replace, kept here as their reference.
func sortedRef(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// refQuantiles is the sorted-copy reference for Quantiles: each group
// sorted on its own, quartiles read with stats.Quantile, and a Mann-Whitney
// test on a fresh ranking of the pair.
func refQuantiles(in, out []float64) Component {
	if len(in) < 4 || len(out) < 4 {
		return invalid(DiffQuantiles, "x")
	}
	si, so := sortedRef(in), sortedRef(out)
	medIn, medOut := stats.Quantile(si, 0.5), stats.Quantile(so, 0.5)
	iqrIn := stats.Quantile(si, 0.75) - stats.Quantile(si, 0.25)
	iqrOut := stats.Quantile(so, 0.75) - stats.Quantile(so, 0.25)
	pooled := (iqrIn + iqrOut) / 2
	if pooled <= 0 {
		return invalid(DiffQuantiles, "x")
	}
	raw := (medIn - medOut) / pooled
	return Component{Kind: DiffQuantiles, Columns: []string{"x"}, Raw: raw, Norm: normalize(raw),
		Inside: medIn, Outside: medOut, Test: hypo.MannWhitneyURanked(stats.NewRanking(in, out))}
}

// refTails is the sorted-copy reference for Tails.
func refTails(in, out []float64) Component {
	if len(in) < 10 || len(out) < 10 {
		return invalid(DiffTails, "x")
	}
	tw := func(xs []float64) float64 {
		s := sortedRef(xs)
		iqr := stats.Quantile(s, 0.75) - stats.Quantile(s, 0.25)
		if iqr <= 0 {
			return math.NaN()
		}
		return (stats.Quantile(s, 0.95) - stats.Quantile(s, 0.05)) / iqr
	}
	ti, to := tw(in), tw(out)
	if math.IsNaN(ti) || math.IsNaN(to) || ti <= 0 || to <= 0 {
		return invalid(DiffTails, "x")
	}
	raw := math.Log(ti / to)
	return Component{Kind: DiffTails, Columns: []string{"x"}, Raw: raw, Norm: normalize(raw),
		Inside: ti, Outside: to, Test: hypo.VarianceF(stats.Summarize(in), stats.Summarize(out))}
}

// adversarialPairs builds the differential corpus: every pairing of the
// group sizes 3, 4, 9 and 10 (one below and at each component's validity
// threshold) plus two larger sizes, each filled by generators that stress
// the order statistics — heavy ties within and across groups, ±Inf, −0
// beside +0, and rounded normals.
func adversarialPairs() [][2][]float64 {
	r := randx.New(11)
	negZero := math.Copysign(0, -1)
	gens := []func(i int) float64{
		func(int) float64 { return float64(r.Intn(3)) },                  // heavy ties
		func(int) float64 { return 7 },                                   // one value
		func(int) float64 { return math.Round(r.Normal(0, 1) * 4) },      // rounded normals
		func(int) float64 { return []float64{negZero, 0, 1}[r.Intn(3)] }, // signed zeros
		func(i int) float64 { // ±Inf among ties
			switch i % 5 {
			case 0:
				return math.Inf(1)
			case 3:
				return math.Inf(-1)
			}
			return float64(r.Intn(4))
		},
		func(i int) float64 { // one +Inf tail over ties
			if i == 0 {
				return math.Inf(1)
			}
			return float64(r.Intn(5))
		},
	}
	sizes := []int{3, 4, 9, 10, 17, 40}
	var pairs [][2][]float64
	for gi, gIn := range gens {
		gOut := gens[(gi+1)%len(gens)]
		for _, n := range sizes {
			for _, m := range sizes {
				in, out := make([]float64, n), make([]float64, m)
				for i := range in {
					in[i] = gIn(i)
				}
				for i := range out {
					out[i] = gOut(i)
				}
				pairs = append(pairs, [2][]float64{in, out})
			}
		}
	}
	return pairs
}

// columnRanking ranks the in/out pair the way the engine does: in and
// out are interleaved into one column with a NULL row between every two
// values, the column is indexed once (stats.RankIndex), and a Rank of that
// index with quantiles splits it by a selection bitmap.
func columnRanking(in, out []float64) stats.Ranking {
	var xs []float64
	var sel, rest []uint64
	push := func(v float64, inside bool) {
		for len(sel) <= len(xs)>>6 {
			sel, rest = append(sel, 0), append(rest, 0)
		}
		if inside {
			sel[len(xs)>>6] |= 1 << (uint(len(xs)) & 63)
		} else {
			rest[len(xs)>>6] |= 1 << (uint(len(xs)) & 63)
		}
		xs = append(xs, v, math.NaN())
	}
	for i := 0; i < len(in) || i < len(out); i++ {
		if i < len(in) {
			push(in[i], true)
		}
		if i < len(out) {
			push(out[i], false)
		}
	}
	for len(sel) < (len(xs)+63)/64 {
		sel, rest = append(sel, 0), append(rest, 0)
	}
	var x stats.RankIndex
	x.Build(nil, xs)
	return x.Rank(&stats.RankingScratch{}, xs, sel, rest, len(in), len(out), true)
}

// TestQuantilesRankedMatchesSortingPath asserts the Ranking-backed
// quantile component is bit-identical to the sorted-copy reference,
// including its Mann-Whitney bound, whether the ranking comes from
// NewRanking or from a column's rank index as the engine builds it.
func TestQuantilesRankedMatchesSortingPath(t *testing.T) {
	for i, p := range adversarialPairs() {
		in, out := p[0], p[1]
		want := componentBits(refQuantiles(in, out))
		if got := componentBits(quantiles(in, out)); got != want {
			t.Fatalf("pair %d (%v | %v): ranked %s, reference %s", i, in, out, got, want)
		}
		if got := componentBits(Quantiles("x", columnRanking(in, out))); got != want {
			t.Fatalf("pair %d (%v | %v): column-ranked %s, reference %s", i, in, out, got, want)
		}
	}
}

// TestTailsRankedMatchesSortingPath is the same assertion for the
// tail-weight component.
func TestTailsRankedMatchesSortingPath(t *testing.T) {
	for i, p := range adversarialPairs() {
		in, out := p[0], p[1]
		want := componentBits(refTails(in, out))
		if got := componentBits(tails(in, out)); got != want {
			t.Fatalf("pair %d (%v | %v): ranked %s, reference %s", i, in, out, got, want)
		}
		if got := componentBits(Tails("x", columnRanking(in, out), stats.Summarize(in), stats.Summarize(out))); got != want {
			t.Fatalf("pair %d (%v | %v): column-ranked %s, reference %s", i, in, out, got, want)
		}
	}
}

// TestRankedComponentsInvalidOnDegenerateRanking asserts that a
// NaN-bearing ranking gives the invalid component instead of reading its
// NaN quantiles, even when the groups are large enough.
func TestRankedComponentsInvalidOnDegenerateRanking(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.NaN()}
	out := []float64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	r := stats.NewRanking(in, out)
	if c := Quantiles("x", r); c.Valid() || c.Kind != DiffQuantiles {
		t.Errorf("NaN ranking: Quantiles = %+v, want invalid", c)
	}
	if c := Tails("x", r, stats.Summarize(in), stats.Summarize(out)); c.Valid() || c.Kind != DiffTails {
		t.Errorf("NaN ranking: Tails = %+v, want invalid", c)
	}
}
