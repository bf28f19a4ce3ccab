package baseline

import (
	"math"
	"sort"

	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/stats"
)

// Method is a subspace-search strategy under comparison.
type Method interface {
	// Name identifies the method in experiment tables.
	Name() string
	// FindViews returns up to k column groups of size ≤ d characterizing
	// how sel differs from its complement.
	FindViews(f *frame.Frame, sel *frame.Bitmap, k, d int) [][]string
}

// numericSides precomputes the inside and outside values of the numeric
// columns.
type numericSides struct {
	names []string
	in    [][]float64
	out   [][]float64
}

func splitNumericColumns(f *frame.Frame, sel *frame.Bitmap) numericSides {
	var s numericSides
	for _, idx := range f.NumericColumns() {
		name := f.Col(idx).Name()
		in, out, err := f.SplitNumeric(name, sel)
		if err != nil || len(in) < 3 || len(out) < 3 {
			continue
		}
		s.names = append(s.names, name)
		s.in = append(s.in, in)
		s.out = append(s.out, out)
	}
	return s
}

// ---------------------------------------------------------------------------
// KL beam search
// ---------------------------------------------------------------------------

// KLBeam searches subsets maximizing the Gaussian KL divergence
// KL(selection ‖ complement) with full covariance, via beam search of the
// given width.
type KLBeam struct {
	// Width is the beam width; 0 defaults to 8.
	Width int
}

// Name implements Method.
func (KLBeam) Name() string { return "kl-beam" }

// FindViews implements Method.
func (b KLBeam) FindViews(f *frame.Frame, sel *frame.Bitmap, k, d int) [][]string {
	width := b.Width
	if width <= 0 {
		width = 8
	}
	s := splitNumericColumns(f, sel)
	m := len(s.names)
	if m == 0 {
		return nil
	}

	type state struct {
		cols  []int
		score float64
	}
	// Seed the beam with singletons.
	beam := make([]state, 0, m)
	for i := 0; i < m; i++ {
		if kl := gaussianKL(s, []int{i}); !math.IsNaN(kl) {
			beam = append(beam, state{cols: []int{i}, score: kl})
		}
	}
	sort.Slice(beam, func(a, c int) bool { return beam[a].score > beam[c].score })
	if len(beam) > width {
		beam = beam[:width]
	}
	best := append([]state{}, beam...)

	for size := 2; size <= d; size++ {
		var next []state
		for _, st := range beam {
			member := make(map[int]bool, len(st.cols))
			for _, c := range st.cols {
				member[c] = true
			}
			for i := 0; i < m; i++ {
				if member[i] {
					continue
				}
				cols := append(append([]int{}, st.cols...), i)
				sort.Ints(cols)
				if kl := gaussianKL(s, cols); !math.IsNaN(kl) {
					next = append(next, state{cols: cols, score: kl})
				}
			}
		}
		if len(next) == 0 {
			break
		}
		sort.Slice(next, func(a, c int) bool { return next[a].score > next[c].score })
		// Deduplicate identical column sets.
		var dedup []state
		seen := map[string]bool{}
		for _, st := range next {
			key := intsKey(st.cols)
			if !seen[key] {
				seen[key] = true
				dedup = append(dedup, st)
			}
		}
		beam = dedup
		if len(beam) > width {
			beam = beam[:width]
		}
		best = append(best, beam...)
	}

	// Greedy disjoint top-k over all beam states.
	sort.SliceStable(best, func(a, c int) bool { return best[a].score > best[c].score })
	used := map[int]bool{}
	var views [][]string
	for _, st := range best {
		if len(views) >= k {
			break
		}
		clash := false
		for _, c := range st.cols {
			if used[c] {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		var names []string
		for _, c := range st.cols {
			used[c] = true
			names = append(names, s.names[c])
		}
		views = append(views, names)
	}
	return views
}

func intsKey(xs []int) string {
	key := make([]byte, 0, len(xs)*3)
	for _, x := range xs {
		key = append(key, byte(x), byte(x>>8), ',')
	}
	return string(key)
}

// gaussianKL computes KL(in ‖ out) for the selected columns under
// multivariate Gaussian fits. Returns NaN when covariances are singular.
func gaussianKL(s numericSides, cols []int) float64 {
	d := len(cols)
	muIn := make([]float64, d)
	muOut := make([]float64, d)
	for i, c := range cols {
		muIn[i] = stats.Mean(s.in[c])
		muOut[i] = stats.Mean(s.out[c])
	}
	covIn := covMatrix(s.in, cols)
	covOut := covMatrix(s.out, cols)
	invOut, detOut, ok := invertSPD(covOut, d)
	if !ok {
		return math.NaN()
	}
	detIn, ok := determinant(covIn, d)
	if !ok || detIn <= 0 || detOut <= 0 {
		return math.NaN()
	}
	// tr(Σ₂⁻¹ Σ₁)
	tr := 0.0
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			tr += invOut[i*d+j] * covIn[j*d+i]
		}
	}
	// (μ₂-μ₁)ᵀ Σ₂⁻¹ (μ₂-μ₁)
	quad := 0.0
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			quad += (muOut[i] - muIn[i]) * invOut[i*d+j] * (muOut[j] - muIn[j])
		}
	}
	return 0.5 * (tr + quad - float64(d) + math.Log(detOut/detIn))
}

// covMatrix computes the sample covariance matrix of the chosen columns.
// Column slices may have slightly different lengths after NULL stripping;
// the shortest length wins.
func covMatrix(data [][]float64, cols []int) []float64 {
	d := len(cols)
	n := len(data[cols[0]])
	for _, c := range cols {
		if len(data[c]) < n {
			n = len(data[c])
		}
	}
	means := make([]float64, d)
	for i, c := range cols {
		means[i] = stats.Mean(data[c][:n])
	}
	cov := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			sum := 0.0
			for r := 0; r < n; r++ {
				sum += (data[cols[i]][r] - means[i]) * (data[cols[j]][r] - means[j])
			}
			v := sum / float64(n-1)
			cov[i*d+j] = v
			cov[j*d+i] = v
		}
	}
	return cov
}

// invertSPD inverts a small symmetric positive-definite matrix via
// Gauss-Jordan elimination with partial pivoting, also returning the
// determinant.
func invertSPD(a []float64, n int) (inv []float64, det float64, ok bool) {
	// Augmented [A | I].
	aug := make([]float64, n*2*n)
	for i := 0; i < n; i++ {
		copy(aug[i*2*n:i*2*n+n], a[i*n:(i+1)*n])
		aug[i*2*n+n+i] = 1
	}
	det = 1
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r*2*n+col]) > math.Abs(aug[pivot*2*n+col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot*2*n+col]) < 1e-12 {
			return nil, 0, false
		}
		if pivot != col {
			for j := 0; j < 2*n; j++ {
				aug[col*2*n+j], aug[pivot*2*n+j] = aug[pivot*2*n+j], aug[col*2*n+j]
			}
			det = -det
		}
		p := aug[col*2*n+col]
		det *= p
		for j := 0; j < 2*n; j++ {
			aug[col*2*n+j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := aug[r*2*n+col]
			if factor == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				aug[r*2*n+j] -= factor * aug[col*2*n+j]
			}
		}
	}
	inv = make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(inv[i*n:(i+1)*n], aug[i*2*n+n:i*2*n+2*n])
	}
	return inv, det, true
}

// determinant computes det(A) for a small matrix via LU elimination.
func determinant(a []float64, n int) (float64, bool) {
	m := make([]float64, len(a))
	copy(m, a)
	det := 1.0
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r*n+col]) > math.Abs(m[pivot*n+col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot*n+col]) < 1e-15 {
			return 0, false
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m[col*n+j], m[pivot*n+j] = m[pivot*n+j], m[col*n+j]
			}
			det = -det
		}
		det *= m[col*n+col]
		for r := col + 1; r < n; r++ {
			factor := m[r*n+col] / m[col*n+col]
			for j := col; j < n; j++ {
				m[r*n+j] -= factor * m[col*n+j]
			}
		}
	}
	return det, true
}

// ---------------------------------------------------------------------------
// Centroid distance greedy
// ---------------------------------------------------------------------------

// CentroidGreedy ranks columns by the standardized distance between the
// selection and complement means and chunks the ranking into views.
type CentroidGreedy struct{}

// Name implements Method.
func (CentroidGreedy) Name() string { return "centroid" }

// FindViews implements Method.
func (CentroidGreedy) FindViews(f *frame.Frame, sel *frame.Bitmap, k, d int) [][]string {
	s := splitNumericColumns(f, sel)
	type scored struct {
		name string
		v    float64
	}
	var ranked []scored
	for i := range s.names {
		mi, mo := stats.Mean(s.in[i]), stats.Mean(s.out[i])
		vi, vo := stats.Variance(s.in[i]), stats.Variance(s.out[i])
		pooled := (vi + vo) / 2
		if pooled <= 0 || math.IsNaN(pooled) {
			continue
		}
		ranked = append(ranked, scored{s.names[i], math.Abs(mi-mo) / math.Sqrt(pooled)})
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].v > ranked[b].v })
	var views [][]string
	for start := 0; start < len(ranked) && len(views) < k; start += d {
		end := start + d
		if end > len(ranked) {
			end = len(ranked)
		}
		var names []string
		for _, sc := range ranked[start:end] {
			names = append(names, sc.name)
		}
		views = append(views, names)
	}
	return views
}

// ---------------------------------------------------------------------------
// PCA loadings (context-free)
// ---------------------------------------------------------------------------

// PCA extracts principal components of the full table (ignoring the
// selection, as §1 argues dimensionality reduction does) and reports the
// top-|loading| columns of each component as a view.
type PCA struct {
	// Iterations bounds the power iteration; 0 defaults to 100.
	Iterations int
}

// Name implements Method.
func (PCA) Name() string { return "pca" }

// FindViews implements Method.
func (p PCA) FindViews(f *frame.Frame, sel *frame.Bitmap, k, d int) [][]string {
	iters := p.Iterations
	if iters <= 0 {
		iters = 100
	}
	idxs := f.NumericColumns()
	var names []string
	var series [][]float64
	for _, idx := range idxs {
		c := f.Col(idx)
		vals := make([]float64, 0, c.Len())
		for i := 0; i < c.Len(); i++ {
			if !c.IsNull(i) {
				vals = append(vals, c.Float(i))
			}
		}
		if len(vals) < 3 || stats.StdDev(vals) == 0 {
			continue
		}
		names = append(names, c.Name())
		series = append(series, vals)
	}
	m := len(names)
	if m == 0 {
		return nil
	}
	corr := stats.CorrelationMatrix(series)
	// NaN cells (constant columns already removed, but guard) become 0.
	for i := range corr {
		if math.IsNaN(corr[i]) {
			corr[i] = 0
		}
	}

	var views [][]string
	used := make(map[int]bool)
	r := randx.New(12345)
	work := make([]float64, len(corr))
	copy(work, corr)
	for comp := 0; comp < k; comp++ {
		vec, eig := powerIteration(work, m, iters, r)
		if eig <= 1e-9 {
			break
		}
		// Top-d loadings not yet used.
		type loading struct {
			idx int
			v   float64
		}
		var ls []loading
		for i := 0; i < m; i++ {
			if !used[i] {
				ls = append(ls, loading{i, math.Abs(vec[i])})
			}
		}
		sort.Slice(ls, func(a, b int) bool { return ls[a].v > ls[b].v })
		if len(ls) == 0 {
			break
		}
		take := d
		if take > len(ls) {
			take = len(ls)
		}
		var view []string
		for _, l := range ls[:take] {
			used[l.idx] = true
			view = append(view, names[l.idx])
		}
		views = append(views, view)
		// Deflate: W -= λ v vᵀ.
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				work[i*m+j] -= eig * vec[i] * vec[j]
			}
		}
	}
	return views
}

// powerIteration finds the dominant eigenpair of a symmetric matrix.
func powerIteration(a []float64, n, iters int, r *randx.Source) ([]float64, float64) {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	normalize(v)
	tmp := make([]float64, n)
	var eig float64
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a[i*n+j] * v[j]
			}
			tmp[i] = sum
		}
		eig = norm(tmp)
		if eig == 0 {
			return v, 0
		}
		for i := range tmp {
			tmp[i] /= eig
		}
		copy(v, tmp)
	}
	return v, eig
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// ---------------------------------------------------------------------------
// Random and FullSpace floors
// ---------------------------------------------------------------------------

// Random emits uniformly random disjoint views; the recovery floor.
type Random struct {
	// Seed drives the draw; distinct trials should use distinct seeds.
	Seed uint64
}

// Name implements Method.
func (Random) Name() string { return "random" }

// FindViews implements Method.
func (rm Random) FindViews(f *frame.Frame, sel *frame.Bitmap, k, d int) [][]string {
	idxs := f.NumericColumns()
	names := make([]string, len(idxs))
	for i, idx := range idxs {
		names[i] = f.Col(idx).Name()
	}
	r := randx.New(rm.Seed)
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var views [][]string
	for start := 0; start < len(names) && len(views) < k; start += d {
		end := start + d
		if end > len(names) {
			end = len(names)
		}
		views = append(views, append([]string{}, names[start:end]...))
	}
	return views
}

// FullSpace returns one view containing every numeric column — the
// unconstrained maximizer of Equation 1.
type FullSpace struct{}

// Name implements Method.
func (FullSpace) Name() string { return "full-space" }

// FindViews implements Method.
func (FullSpace) FindViews(f *frame.Frame, sel *frame.Bitmap, k, d int) [][]string {
	idxs := f.NumericColumns()
	if len(idxs) == 0 || k < 1 {
		return nil
	}
	names := make([]string, len(idxs))
	for i, idx := range idxs {
		names[i] = f.Col(idx).Name()
	}
	return [][]string{names}
}
