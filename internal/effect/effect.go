// Package effect implements the Zig-Components of the paper (§2.2, Figure
// 3): simple, verifiable indicators of how the distribution of the user's
// selection differs from the rest of the data on one or two columns.
//
// Each component is an effect size from the meta-analysis literature
// (Hedges & Olkin 1985, the paper's reference [2]):
//
//   - DiffMeans: Hedges' g, the bias-corrected standardized mean
//     difference, with a Welch t-test as its asymptotic significance bound.
//   - DiffStdDevs: the log ratio of sample standard deviations, with the
//     F variance-ratio test.
//   - DiffCorrelations: the difference of Fisher-z-transformed Pearson
//     correlations of a column pair, with the Fisher z test — the
//     two-dimensional component shown in Figure 3.
//   - DiffFrequencies: the total variation distance between the category
//     frequency vectors of a categorical column, with the chi-squared
//     homogeneity test.
//   - DiffLocationsRobust: Cliff's delta, a rank-based alternative to
//     DiffMeans used when the engine runs in robust mode, tested with
//     Mann-Whitney U.
//
// Raw effects live on different scales, so each component also carries a
// normalized magnitude in [0, 1] (tanh of the absolute raw effect; total
// variation distance is already in [0, 1]). The Zig-Dissimilarity of a view
// is the weighted sum of its components' normalized magnitudes.
package effect

import (
	"fmt"
	"math"

	"repro/internal/hypo"
	"repro/internal/stats"
)

// Kind identifies a Zig-Component family.
type Kind int

const (
	// DiffMeans is the standardized difference between means (Hedges' g).
	DiffMeans Kind = iota
	// DiffStdDevs is the log ratio between standard deviations.
	DiffStdDevs
	// DiffCorrelations is the difference between the correlation
	// coefficients of a column pair (Fisher z scale).
	DiffCorrelations
	// DiffFrequencies is the total variation distance between categorical
	// frequency vectors.
	DiffFrequencies
	// DiffLocationsRobust is Cliff's delta, a rank-based location shift.
	DiffLocationsRobust
)

// String names the component kind.
func (k Kind) String() string {
	switch k {
	case DiffMeans:
		return "diff-means"
	case DiffStdDevs:
		return "diff-stddevs"
	case DiffCorrelations:
		return "diff-correlations"
	case DiffFrequencies:
		return "diff-frequencies"
	case DiffLocationsRobust:
		return "diff-locations-robust"
	default:
		if name, ok := extendedName(k); ok {
			return name
		}
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Component is one computed Zig-Component: a verifiable statement about how
// the selection differs from its complement on specific columns.
type Component struct {
	// Kind is the component family.
	Kind Kind
	// Columns names the one or two columns the component involves.
	Columns []string
	// Raw is the signed effect size on its natural scale.
	Raw float64
	// Norm is the normalized magnitude in [0, 1] used for scoring.
	Norm float64
	// Inside and Outside carry the summary statistic of each side (means,
	// standard deviations, correlations, or largest frequency shift),
	// letting users verify the claim on a chart.
	Inside, Outside float64
	// Test is the significance test backing the component.
	Test hypo.Result
	// Detail is an optional component-specific annotation (e.g. the most
	// shifted category of a frequency component).
	Detail string
}

// Valid reports whether the component could be computed (enough data on
// both sides).
func (c Component) Valid() bool {
	return !math.IsNaN(c.Raw) && !math.IsNaN(c.Norm)
}

// normalize squashes an unbounded effect magnitude into [0, 1).
func normalize(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	return math.Tanh(math.Abs(x))
}

func invalid(kind Kind, cols ...string) Component {
	return Component{Kind: kind, Columns: cols, Raw: math.NaN(), Norm: math.NaN(), Test: hypo.Result{P: math.NaN()}}
}

// Means computes the DiffMeans component for one column from the
// summaries of the selection (in) and its complement (out).
func Means(col string, in, out stats.Summary) Component {
	if in.N < 2 || out.N < 2 {
		return invalid(DiffMeans, col)
	}
	mi, mo := in.Mean, out.Mean
	vi, vo := in.Var, out.Var
	ni, no := float64(in.N), float64(out.N)
	pooledVar := ((ni-1)*vi + (no-1)*vo) / (ni + no - 2)
	if pooledVar <= 0 || math.IsNaN(pooledVar) {
		return invalid(DiffMeans, col)
	}
	d := (mi - mo) / math.Sqrt(pooledVar)
	// Hedges' small-sample bias correction J ≈ 1 - 3/(4(nᵢ+nₒ)-9).
	j := 1 - 3/(4*(ni+no)-9)
	g := d * j
	return Component{
		Kind:    DiffMeans,
		Columns: []string{col},
		Raw:     g,
		Norm:    normalize(g),
		Inside:  mi,
		Outside: mo,
		Test:    hypo.WelchT(in, out),
	}
}

// StdDevs computes the DiffStdDevs component for one column from the
// summaries of both sides.
func StdDevs(col string, in, out stats.Summary) Component {
	if in.N < 2 || out.N < 2 {
		return invalid(DiffStdDevs, col)
	}
	si, so := math.Sqrt(in.Var), math.Sqrt(out.Var)
	if si <= 0 || so <= 0 || math.IsNaN(si) || math.IsNaN(so) {
		return invalid(DiffStdDevs, col)
	}
	raw := math.Log(si / so)
	return Component{
		Kind:    DiffStdDevs,
		Columns: []string{col},
		Raw:     raw,
		Norm:    normalize(raw),
		Inside:  si,
		Outside: so,
		Test:    hypo.VarianceF(in, out),
	}
}

// Correlations computes the two-dimensional DiffCorrelations component for
// a column pair from each side's Pearson correlation: ri over the ni
// complete cases of the selection, ro over the no of its complement.
func Correlations(colA, colB string, ri float64, ni int, ro float64, no int) Component {
	if ni < 4 || no < 4 || math.IsNaN(ri) || math.IsNaN(ro) {
		return invalid(DiffCorrelations, colA, colB)
	}
	raw := stats.FisherZ(ri) - stats.FisherZ(ro)
	return Component{
		Kind:    DiffCorrelations,
		Columns: []string{colA, colB},
		Raw:     raw,
		Norm:    normalize(raw),
		Inside:  ri,
		Outside: ro,
		Test:    hypo.CorrelationZ(ri, ni, ro, no),
	}
}

// CliffDeltaRanked derives the rank-based DiffLocationsRobust component,
// delta = P(x > y) − P(x < y) for x drawn from the selection and y from
// the complement, in [−1, 1], from a two-group Ranking: the rank sum gives
// the delta (U = #(in > out) + ties/2; delta = 2U/(n·m) − 1), the
// ranking's group medians give the verifiable Inside/Outside summary, and
// the tie-corrected rank sum feeds the Mann-Whitney test — all without
// touching the raw values again.
// Degenerate rankings (a group below two elements, NaN-bearing input)
// yield the invalid component.
func CliffDeltaRanked(col string, r stats.Ranking) Component {
	if r.NA < 2 || r.NB < 2 || r.HasNaN {
		return invalid(DiffLocationsRobust, col)
	}
	n, m := float64(r.NA), float64(r.NB)
	u := r.RankSumA - n*(n+1)/2
	delta := 2*u/(n*m) - 1
	return Component{
		Kind:    DiffLocationsRobust,
		Columns: []string{col},
		Raw:     delta,
		Norm:    math.Abs(delta), // already in [0, 1]
		Inside:  r.MedianA,
		Outside: r.MedianB,
		Test:    hypo.MannWhitneyURanked(r),
	}
}

// Frequencies computes the DiffFrequencies component for a categorical
// column from the per-code counts of both sides over its dictionary. Raw
// and Norm are the total variation distance between the two frequency
// vectors; Detail names the category with the largest absolute shift.
func Frequencies(col string, countsIn, countsOut []float64, dict []string) Component {
	ni, no := total(countsIn), total(countsOut)
	if ni < 2 || no < 2 || len(dict) == 0 {
		return invalid(DiffFrequencies, col)
	}
	tvd := 0.0
	bestShift := -1.0
	bestCat := ""
	var bestIn, bestOut float64
	for i := range dict {
		pi := countsIn[i] / ni
		po := countsOut[i] / no
		shift := math.Abs(pi - po)
		tvd += shift
		if shift > bestShift {
			bestShift = shift
			bestCat = dict[i]
			bestIn, bestOut = pi, po
		}
	}
	tvd /= 2
	return Component{
		Kind:    DiffFrequencies,
		Columns: []string{col},
		Raw:     tvd,
		Norm:    tvd, // already in [0, 1]
		Inside:  bestIn,
		Outside: bestOut,
		Test:    hypo.ChiSquareHomogeneity(countsIn, countsOut),
		Detail:  bestCat,
	}
}

// total sums category counts; integral counts sum exactly.
func total(counts []float64) float64 {
	t := 0.0
	for _, c := range counts {
		t += c
	}
	return t
}
