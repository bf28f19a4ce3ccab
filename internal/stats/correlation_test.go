package stats

import (
	"math"
	"testing"

	"repro/internal/randx"
)

func TestPearsonExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	approx(t, "perfect", Pearson(xs, ys), 1, 1e-12)
	neg := []float64{10, 8, 6, 4, 2}
	approx(t, "anti", Pearson(xs, neg), -1, 1e-12)
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Error("single pair should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{3})) {
		t.Error("length mismatch should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant series should be NaN")
	}
}

func TestPearsonRecoversPlantedCorrelation(t *testing.T) {
	// y = 0.6x + 0.8z for independent standard normals x and z has unit
	// variance and correlation 0.6 with x.
	r := randx.New(9)
	const n = 50000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.NormFloat64()
		ys[i] = 0.6*xs[i] + 0.8*r.NormFloat64()
	}
	approx(t, "planted r", Pearson(xs, ys), 0.6, 0.01)
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25} // monotone but nonlinear
	approx(t, "spearman monotone", Spearman(xs, ys), 1, 1e-12)
	if !math.IsNaN(Spearman([]float64{1}, []float64{1})) {
		t.Error("single pair should be NaN")
	}
}

// TestSpearmanTextbookTies pins Spearman to a value computed by hand. The
// midranks are x → {1, 2.5, 2.5, 4, 5} and y → {2, 1, 3.5, 3.5, 5}, both
// with mean 3; their deviations give Σdxdy = 7.25 and Σdx² = Σdy² = 9.5, so
// ρ = 7.25/9.5 = 29/38.
func TestSpearmanTextbookTies(t *testing.T) {
	approx(t, "spearman with ties", Spearman([]float64{1, 2, 2, 3, 4}, []float64{2, 1, 3, 3, 5}), 29.0/38, 1e-15)
}

func TestFisherZ(t *testing.T) {
	for _, r := range []float64{-0.9, -0.5, 0, 0.3, 0.8} {
		approx(t, "fisher round-trip", math.Tanh(FisherZ(r)), r, 1e-12)
	}
	if math.IsInf(FisherZ(1), 0) || math.IsInf(FisherZ(-1), 0) {
		t.Error("FisherZ at ±1 must stay finite")
	}
	if FisherZ(0.5) <= FisherZ(0.3) {
		t.Error("FisherZ must be increasing")
	}
}

func TestCorrelationMatrix(t *testing.T) {
	cols := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{4, 3, 2, 1},
	}
	m := CorrelationMatrix(cols)
	// Diagonal ones.
	for i := 0; i < 3; i++ {
		approx(t, "diag", m[i*3+i], 1, 0)
	}
	approx(t, "m01", m[0*3+1], 1, 1e-12)
	approx(t, "m02", m[0*3+2], -1, 1e-12)
	// Symmetry.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m[i*3+j] != m[j*3+i] {
				t.Fatal("matrix not symmetric")
			}
		}
	}
}

func TestMutualInformationIndependentVsDependent(t *testing.T) {
	r := randx.New(11)
	const n = 20000
	xs := make([]float64, n)
	indep := make([]float64, n)
	dep := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.NormFloat64()
		indep[i] = r.NormFloat64()
		dep[i] = xs[i] + 0.1*r.NormFloat64()
	}
	miIndep := MutualInformationBinned(xs, indep, 16)
	miDep := MutualInformationBinned(xs, dep, 16)
	if miDep < 5*miIndep || miDep < 0.5 {
		t.Errorf("MI(dep)=%v should dominate MI(indep)=%v", miDep, miIndep)
	}
	nmi := NormalizedMI(xs, dep, 16)
	if nmi <= 0 || nmi > 1 {
		t.Errorf("NormalizedMI out of (0,1]: %v", nmi)
	}
	if NormalizedMI(xs, indep, 16) > 0.1 {
		t.Errorf("NormalizedMI of independent series too high: %v", NormalizedMI(xs, indep, 16))
	}
}

func TestMutualInformationDegenerate(t *testing.T) {
	if MutualInformationBinned(nil, nil, 8) != 0 {
		t.Error("empty MI should be 0")
	}
	flat := []float64{1, 1, 1, 1}
	vary := []float64{1, 2, 3, 4}
	if MutualInformationBinned(flat, vary, 8) != 0 {
		t.Error("constant-series MI should be 0")
	}
	if NormalizedMI(flat, vary, 8) != 0 {
		t.Error("constant-series NMI should be 0")
	}
	if MutualInformationBinned(vary, []float64{1}, 8) != 0 {
		t.Error("mismatched length MI should be 0")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.9, 1.0}
	h := NewHistogram(xs, 2, 0, 1)
	if h.Total != 5 {
		t.Fatalf("Total = %d", h.Total)
	}
	// 0.5 lands on the boundary and belongs to the upper bin; 1.0 clamps
	// into the upper bin.
	if h.Counts[0] != 2 || h.Counts[1] != 3 {
		t.Fatalf("Counts = %v, want [2 3]", h.Counts)
	}
	p := h.Probabilities()
	approx(t, "p0", p[0], 0.4, 1e-12)
	if h.BinOf(-5) != 0 || h.BinOf(99) != 1 {
		t.Error("out-of-range values must clamp")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{1, 2}, 0, 0, 1)
	if len(h.Counts) != 1 || h.Counts[0] != 2 {
		t.Error("k<=0 should give single-bin histogram")
	}
	h2 := NewHistogram([]float64{1, 2}, 4, 5, 5)
	if len(h2.Counts) != 1 {
		t.Error("hi<=lo should give single-bin histogram")
	}
	if h2.BinOf(123) != 0 {
		t.Error("degenerate BinOf should be 0")
	}
	empty := Histogram{Counts: make([]int, 3)}
	for _, p := range empty.Probabilities() {
		if p != 0 {
			t.Error("zero-total probabilities should be 0")
		}
	}
}

func TestSturgesBins(t *testing.T) {
	if SturgesBins(0) != 4 || SturgesBins(1) != 4 {
		t.Error("tiny n should clamp to 4")
	}
	if SturgesBins(1<<30) != 31 {
		t.Errorf("SturgesBins(2^30) = %d, want 31", SturgesBins(1<<30))
	}
	if SturgesBins(2) < 4 {
		t.Error("lower clamp broken")
	}
}

func BenchmarkPearson(b *testing.B) {
	r := randx.New(1)
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pearson(xs, ys)
	}
}

func BenchmarkMutualInformation(b *testing.B) {
	r := randx.New(1)
	n := 10000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = xs[i] + r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MutualInformationBinned(xs, ys, 16)
	}
}

// TestCorrelationRatioMatchesTwoPass holds the streaming η against the
// textbook two-pass formula: between-category over total sum of squares.
func TestCorrelationRatioMatchesTwoPass(t *testing.T) {
	r := randx.New(11)
	const k, n = 4, 600
	codes := make([]int32, n)
	xs := make([]float64, n)
	acc := NewCorrelationRatio(k + 1) // category k stays empty
	for i := range xs {
		codes[i] = int32(r.Intn(k))
		xs[i] = float64(codes[i]) + r.NormFloat64()
		acc.Add(codes[i], xs[i])
	}
	grand := Mean(xs)
	sum := make([]float64, k)
	cnt := make([]float64, k)
	var ssTotal float64
	for i, x := range xs {
		sum[codes[i]] += x
		cnt[codes[i]]++
		ssTotal += (x - grand) * (x - grand)
	}
	var ssBetween float64
	for g := range sum {
		d := sum[g]/cnt[g] - grand
		ssBetween += cnt[g] * d * d
	}
	got := acc.Eta()
	approx(t, "η", got.Value, math.Sqrt(ssBetween/ssTotal), 1e-12)
	if got.N != n || got.Groups != k {
		t.Errorf("N, Groups = %d, %d; want %d, %d", got.N, got.Groups, n, k)
	}
}

// TestCorrelationRatioDegenerate pins the NaN cases: no spread to explain,
// and a sum of squares that an infinite value poisons.
func TestCorrelationRatioDegenerate(t *testing.T) {
	for name, xs := range map[string][]float64{
		"empty":    nil,
		"one case": {3},
		"constant": {2, 2, 2, 2},
		"+Inf":     {1, 2, math.Inf(1), 4},
		"-Inf":     {1, 2, math.Inf(-1), 4},
	} {
		acc := NewCorrelationRatio(2)
		for i, x := range xs {
			acc.Add(int32(i%2), x)
		}
		if got := acc.Eta(); !math.IsNaN(got.Value) || got.N != len(xs) {
			t.Errorf("%s: η = %+v, want NaN over %d cases", name, got, len(xs))
		}
	}
	acc := NewCorrelationRatio(3)
	for _, x := range []float64{1, 1, 5, 5} {
		acc.Add(int32(x)%3, x)
	}
	if got := acc.Eta(); got.Value != 1 || got.Groups != 2 {
		t.Errorf("perfect separation: η = %+v, want 1 over 2 groups", got)
	}
}

// TestCorrelationRatioCopyResumes pins what a resumed dependency fold
// relies on: a copy kept after a prefix, widened to a grown dictionary and
// fed the rest, holds the bits of one accumulator fed every row, and
// feeding the copy leaves the original untouched.
func TestCorrelationRatioCopyResumes(t *testing.T) {
	r := randx.New(12)
	const n, split = 500, 180
	codes := make([]int32, n)
	xs := make([]float64, n)
	for i := range xs {
		k := 2
		if i >= split {
			k = 5 // codes 2..4 first appear after split
		}
		codes[i] = int32(r.Intn(k))
		xs[i] = 1e6 + float64(codes[i]) + r.NormFloat64()
	}
	whole := NewCorrelationRatio(5)
	prefix := NewCorrelationRatio(2)
	for i := range xs {
		whole.Add(codes[i], xs[i])
		if i < split {
			prefix.Add(codes[i], xs[i])
		}
	}
	wide := NewCorrelationRatio(4) // categories 2 and 3 stay empty
	for i := 0; i < split; i++ {
		wide.Add(codes[i], xs[i])
	}
	kept := wide.Copy(0)
	if len(kept.sum) != 2 || kept.Eta() != prefix.Eta() {
		t.Errorf("canonical copy spans %d categories, η %+v; want 2 and %+v", len(kept.sum), kept.Eta(), prefix.Eta())
	}
	resumed := kept.Copy(5)
	for i := split; i < n; i++ {
		resumed.Add(codes[i], xs[i])
	}
	if got, want := resumed.Eta(), whole.Eta(); got != want {
		t.Errorf("resumed η = %+v, one pass %+v", got, want)
	}
	if kept.n != split || len(kept.sum) != 2 {
		t.Errorf("feeding a copy moved its source: %+v", kept)
	}
	if narrow := resumed.Copy(1); len(narrow.sum) != 5 || narrow.Eta() != resumed.Eta() {
		t.Errorf("a copy over fewer categories dropped non-empty ones: %d", len(narrow.sum))
	}
}
