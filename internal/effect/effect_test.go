package effect

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/stats"
)

func normals(seed uint64, n int, mean, std float64) []float64 {
	r := randx.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Normal(mean, std)
	}
	return xs
}

// The components read summaries, correlations and category counts; these
// adapters compute them from a copied split with the slice functions the
// engine's walks are pinned against.
func means(col string, in, out []float64) Component {
	return Means(col, stats.Summarize(in), stats.Summarize(out))
}

func stdDevs(col string, in, out []float64) Component {
	return StdDevs(col, stats.Summarize(in), stats.Summarize(out))
}

func correlations(colA, colB string, inA, inB, outA, outB []float64) Component {
	return Correlations(colA, colB, stats.Pearson(inA, inB), len(inA), stats.Pearson(outA, outB), len(outA))
}

// codeCounts tallies dictionary codes over a k-entry dictionary, ignoring
// codes outside it.
func codeCounts(codes []int32, k int) []float64 {
	counts := make([]float64, k)
	for _, c := range codes {
		if int(c) < k {
			counts[c]++
		}
	}
	return counts
}

func frequencies(col string, in, out []int32, dict []string) Component {
	return Frequencies(col, codeCounts(in, len(dict)), codeCounts(out, len(dict)), dict)
}

func entropy(col string, in, out []int32, dict []string) Component {
	return Entropy(col, codeCounts(in, len(dict)), codeCounts(out, len(dict)), dict)
}

func TestMeansDetectsShift(t *testing.T) {
	in := normals(1, 300, 2, 1)
	out := normals(2, 3000, 0, 1)
	c := means("x", in, out)
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	if c.Kind != DiffMeans || len(c.Columns) != 1 || c.Columns[0] != "x" {
		t.Fatal("metadata wrong")
	}
	if c.Raw < 1.5 || c.Raw > 2.5 {
		t.Errorf("Hedges g = %v, want ≈2", c.Raw)
	}
	if c.Norm <= 0.9 || c.Norm > 1 {
		t.Errorf("Norm = %v, want near 1", c.Norm)
	}
	if c.Inside < 1.8 || c.Inside > 2.2 || math.Abs(c.Outside) > 0.1 {
		t.Errorf("Inside/Outside = %v/%v, want ≈2/≈0", c.Inside, c.Outside)
	}
	if !c.Test.Significant(0.001) {
		t.Error("large shift should be significant")
	}
}

func TestMeansSign(t *testing.T) {
	in := normals(3, 500, -1, 1)
	out := normals(4, 500, 1, 1)
	c := means("x", in, out)
	if c.Raw >= 0 {
		t.Errorf("selection below complement should give negative g, got %v", c.Raw)
	}
}

func TestMeansNoEffect(t *testing.T) {
	in := normals(5, 1000, 0, 1)
	out := normals(6, 1000, 0, 1)
	c := means("x", in, out)
	if math.Abs(c.Raw) > 0.15 {
		t.Errorf("null g = %v, want ≈0", c.Raw)
	}
}

func TestMeansHedgesCorrectionShrinks(t *testing.T) {
	// The correction factor J < 1 shrinks the raw Cohen's d.
	in := []float64{1, 2, 3}
	out := []float64{4, 5, 6}
	c := means("x", in, out)
	// Cohen's d = (2-5)/1 = -3; J = 1 - 3/(4·6-9) = 0.8; g = -2.4.
	if math.Abs(c.Raw-(-2.4)) > 1e-9 {
		t.Errorf("g = %v, want -2.4", c.Raw)
	}
}

func TestMeansDegenerate(t *testing.T) {
	if means("x", []float64{1}, []float64{1, 2}).Valid() {
		t.Error("n<2 should be invalid")
	}
	if means("x", []float64{1, 1}, []float64{1, 1}).Valid() {
		t.Error("zero pooled variance should be invalid")
	}
}

func TestStdDevs(t *testing.T) {
	in := normals(7, 800, 0, 3)
	out := normals(8, 800, 0, 1)
	c := stdDevs("x", in, out)
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	if math.Abs(c.Raw-math.Log(3)) > 0.15 {
		t.Errorf("log std ratio = %v, want ≈%v", c.Raw, math.Log(3))
	}
	if c.Inside < 2.5 || c.Outside > 1.2 {
		t.Errorf("Inside/Outside std = %v/%v", c.Inside, c.Outside)
	}
	if !c.Test.Significant(0.001) {
		t.Error("3× spread should be significant")
	}
	// Lower variance inside gives a negative raw value.
	c2 := stdDevs("x", out, in)
	if c2.Raw >= 0 {
		t.Errorf("tighter selection should give negative raw, got %v", c2.Raw)
	}
}

func TestStdDevsDegenerate(t *testing.T) {
	if stdDevs("x", []float64{2, 2, 2}, []float64{1, 2, 3}).Valid() {
		t.Error("zero std should be invalid")
	}
	if stdDevs("x", []float64{1}, []float64{1, 2}).Valid() {
		t.Error("n<2 should be invalid")
	}
}

func TestCorrelations(t *testing.T) {
	r := randx.New(9)
	const n = 2000
	inA := make([]float64, n)
	inB := make([]float64, n)
	outA := make([]float64, n)
	outB := make([]float64, n)
	for i := 0; i < n; i++ {
		inA[i] = r.NormFloat64()
		inB[i] = 0.95*inA[i] + 0.3*r.NormFloat64() // strongly correlated inside
		outA[i] = r.NormFloat64()
		outB[i] = r.NormFloat64() // independent outside
	}
	c := correlations("a", "b", inA, inB, outA, outB)
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	if c.Inside < 0.8 {
		t.Errorf("inside r = %v, want > 0.8", c.Inside)
	}
	if math.Abs(c.Outside) > 0.1 {
		t.Errorf("outside r = %v, want ≈0", c.Outside)
	}
	if c.Raw <= 0 {
		t.Errorf("raw Δz = %v, want > 0", c.Raw)
	}
	if !c.Test.Significant(0.001) {
		t.Error("correlation flip should be significant")
	}
	if len(c.Columns) != 2 {
		t.Error("correlation component must name two columns")
	}
}

func TestCorrelationsDegenerate(t *testing.T) {
	short := []float64{1, 2, 3}
	long := []float64{1, 2, 3, 4, 5}
	if correlations("a", "b", short, short, long, long).Valid() {
		t.Error("n<4 should be invalid")
	}
	if correlations("a", "b", long, short, long, long).Valid() {
		t.Error("mismatched sides should be invalid")
	}
	flat := []float64{1, 1, 1, 1, 1}
	if correlations("a", "b", flat, long, long, long).Valid() {
		t.Error("constant column should be invalid")
	}
}

func TestFrequencies(t *testing.T) {
	dict := []string{"red", "green", "blue"}
	// Inside: 80% red; outside: uniform.
	in := make([]int32, 100)
	for i := range in {
		if i < 80 {
			in[i] = 0
		} else if i < 90 {
			in[i] = 1
		} else {
			in[i] = 2
		}
	}
	out := make([]int32, 300)
	for i := range out {
		out[i] = int32(i % 3)
	}
	c := frequencies("color", in, out, dict)
	if !c.Valid() {
		t.Fatal("component invalid")
	}
	// TVD = 0.5·(|0.8-1/3| + |0.1-1/3| + |0.1-1/3|) = 0.4667.
	if math.Abs(c.Raw-0.4666666) > 1e-4 {
		t.Errorf("TVD = %v, want ≈0.4667", c.Raw)
	}
	if c.Norm != c.Raw {
		t.Error("frequency Norm should equal Raw")
	}
	if c.Detail != "red" {
		t.Errorf("Detail = %q, want red (largest shift)", c.Detail)
	}
	if math.Abs(c.Inside-0.8) > 1e-9 || math.Abs(c.Outside-1.0/3) > 1e-9 {
		t.Errorf("Inside/Outside = %v/%v", c.Inside, c.Outside)
	}
	if !c.Test.Significant(0.001) {
		t.Error("skewed frequencies should be significant")
	}
}

func TestFrequenciesDegenerate(t *testing.T) {
	if frequencies("c", []int32{0}, []int32{0, 1}, []string{"a", "b"}).Valid() {
		t.Error("n<2 should be invalid")
	}
	if frequencies("c", []int32{0, 1}, []int32{0, 1}, nil).Valid() {
		t.Error("empty dict should be invalid")
	}
}

func TestCliffDelta(t *testing.T) {
	cliff := func(in, out []float64) Component { return CliffDeltaRanked("x", stats.NewRanking(in, out)) }
	// Complete separation: delta = +1.
	in := []float64{10, 11, 12}
	out := []float64{1, 2, 3}
	c := cliff(in, out)
	if math.Abs(c.Raw-1) > 1e-9 {
		t.Errorf("separated delta = %v, want 1", c.Raw)
	}
	// Reversed: delta = -1.
	c = cliff(out, in)
	if math.Abs(c.Raw+1) > 1e-9 {
		t.Errorf("reversed delta = %v, want -1", c.Raw)
	}
	// Identical: delta = 0.
	c = cliff([]float64{1, 2, 3}, []float64{1, 2, 3})
	if math.Abs(c.Raw) > 1e-9 {
		t.Errorf("identical delta = %v, want 0", c.Raw)
	}
	if cliff([]float64{1}, []float64{1, 2}).Valid() {
		t.Error("n<2 should be invalid")
	}
}

func TestCliffDeltaMatchesBruteForce(t *testing.T) {
	r := randx.New(10)
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(30) + 2
		m := r.Intn(30) + 2
		in := make([]float64, n)
		out := make([]float64, m)
		for i := range in {
			in[i] = float64(r.Intn(10))
		}
		for i := range out {
			out[i] = float64(r.Intn(10))
		}
		want := 0.0
		for _, x := range in {
			for _, y := range out {
				switch {
				case x > y:
					want++
				case x < y:
					want--
				}
			}
		}
		want /= float64(n * m)
		got := CliffDeltaRanked("x", stats.NewRanking(in, out)).Raw
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: delta = %v, brute force %v", trial, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		DiffMeans:           "diff-means",
		DiffStdDevs:         "diff-stddevs",
		DiffCorrelations:    "diff-correlations",
		DiffFrequencies:     "diff-frequencies",
		DiffLocationsRobust: "diff-locations-robust",
		Kind(77):            "Kind(77)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
}
