package effect

import (
	"math"

	"repro/internal/hypo"
	"repro/internal/stats"
)

// This file implements the extended Zig-Components the demo paper defers to
// the companion research paper ("We refer the interested reader to our full
// paper for other examples of Zig-Components (e.g., involving categorical
// data)"): quantile shifts, tail-weight changes, entropy changes for
// categorical columns, and a two-dimensional mixed component comparing how
// strongly a categorical column separates a numeric one inside vs outside
// the selection. The engine computes them when Config.Extended is set.

const (
	// DiffQuantiles is the shift of the median in units of the pooled
	// interquartile range — a robust location/scale-free shift.
	DiffQuantiles Kind = iota + 100
	// DiffTails is the difference in tail weight (kurtosis proxy measured
	// as P95-P5 range over IQR).
	DiffTails
	// DiffEntropy is the change of normalized Shannon entropy of a
	// categorical column.
	DiffEntropy
	// DiffSeparation is the two-dimensional mixed component: the change of
	// the correlation ratio η between a categorical and a numeric column.
	DiffSeparation
)

// extendedNames maps the extended kinds for Kind.String.
func extendedName(k Kind) (string, bool) {
	switch k {
	case DiffQuantiles:
		return "diff-quantiles", true
	case DiffTails:
		return "diff-tails", true
	case DiffEntropy:
		return "diff-entropy", true
	case DiffSeparation:
		return "diff-separation", true
	default:
		return "", false
	}
}

// usableRanking reports whether r is a NaN-free ranking of groups the size
// of the in/out pair — the precondition for reading order statistics off
// it.
func usableRanking(r stats.Ranking, in, out []float64) bool {
	return !r.HasNaN && r.NA == len(in) && r.NB == len(out)
}

// Quantiles computes the DiffQuantiles component: the median shift scaled
// by the pooled interquartile range, tested with Mann-Whitney U. The
// quartiles of both groups and the Mann-Whitney bound are read off the
// column's two-group Ranking r, which must rank the same in/out pair, so
// the component sorts nothing; an unusable ranking (NaN-bearing, or built
// over other data) yields the invalid component.
func Quantiles(col string, in, out []float64, r stats.Ranking) Component {
	if len(in) < 4 || len(out) < 4 || !usableRanking(r, in, out) {
		return invalid(DiffQuantiles, col)
	}
	qs := [3]float64{0.25, 0.5, 0.75}
	var qi, qo [3]float64
	r.QuantilesA(qs[:], qi[:])
	r.QuantilesB(qs[:], qo[:])
	pooled := ((qi[2] - qi[0]) + (qo[2] - qo[0])) / 2
	if pooled <= 0 {
		return invalid(DiffQuantiles, col)
	}
	raw := (qi[1] - qo[1]) / pooled
	return Component{
		Kind:    DiffQuantiles,
		Columns: []string{col},
		Raw:     raw,
		Norm:    normalize(raw),
		Inside:  qi[1],
		Outside: qo[1],
		Test:    hypo.MannWhitneyURanked(r),
	}
}

// Tails computes the DiffTails component: the log ratio of the tail-weight
// statistic (P95-P5)/(P75-P25) between the two sides. Heavy-tailed
// selections score high. All four order statistics per group are read off
// the column's Ranking r under the same contract as Quantiles. The F
// variance test provides an (approximate) significance bound; spread
// changes and tail changes travel together for the distributions explorers
// meet.
func Tails(col string, in, out []float64, r stats.Ranking) Component {
	if len(in) < 10 || len(out) < 10 || !usableRanking(r, in, out) {
		return invalid(DiffTails, col)
	}
	qs := [4]float64{0.05, 0.25, 0.75, 0.95}
	var a, b [4]float64
	r.QuantilesA(qs[:], a[:])
	r.QuantilesB(qs[:], b[:])
	tw := func(v [4]float64) float64 {
		iqr := v[2] - v[1]
		if iqr <= 0 {
			return math.NaN()
		}
		return (v[3] - v[0]) / iqr
	}
	ti, to := tw(a), tw(b)
	if math.IsNaN(ti) || math.IsNaN(to) || ti <= 0 || to <= 0 {
		return invalid(DiffTails, col)
	}
	raw := math.Log(ti / to)
	return Component{
		Kind:    DiffTails,
		Columns: []string{col},
		Raw:     raw,
		Norm:    normalize(raw),
		Inside:  ti,
		Outside: to,
		Test:    hypo.VarianceF(in, out),
	}
}

// normalizedEntropy returns H(p)/log(k') where k' is the number of
// populated categories; 0 for degenerate inputs.
func normalizedEntropy(counts []float64) float64 {
	total := 0.0
	populated := 0
	for _, c := range counts {
		total += c
		if c > 0 {
			populated++
		}
	}
	if total <= 0 || populated < 2 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log(p)
		}
	}
	return h / math.Log(float64(populated))
}

// Separation computes the DiffSeparation component: the change of the
// correlation ratio η (how strongly the categorical column cat separates
// the numeric column num) between the selection and its complement.
// catIn/catOut are dictionary codes aligned with numIn/numOut.
func Separation(catCol, numCol string, catIn []int32, numIn []float64, catOut []int32, numOut []float64, card int) Component {
	if len(catIn) != len(numIn) || len(catOut) != len(numOut) ||
		len(catIn) < 8 || len(catOut) < 8 || card < 2 {
		return invalid(DiffSeparation, catCol, numCol)
	}
	etaIn := etaOf(catIn, numIn, card)
	etaOut := etaOf(catOut, numOut, card)
	if math.IsNaN(etaIn) || math.IsNaN(etaOut) {
		return invalid(DiffSeparation, catCol, numCol)
	}
	// Fisher-z the ratios like correlations: η lives in [0,1].
	raw := stats.FisherZ(etaIn) - stats.FisherZ(etaOut)
	return Component{
		Kind:    DiffSeparation,
		Columns: []string{catCol, numCol},
		Raw:     raw,
		Norm:    normalize(raw),
		Inside:  etaIn,
		Outside: etaOut,
		// η² relates to the F statistic of one-way ANOVA; Fisher z over
		// atanh(η) with the correlation test gives the asymptotic bound.
		Test: hypo.CorrelationZ(etaIn, len(catIn), etaOut, len(catOut)),
	}
}

// etaOf computes the correlation ratio of codes vs values.
func etaOf(codes []int32, vals []float64, card int) float64 {
	groupSum := make([]float64, card)
	groupN := make([]float64, card)
	var total stats.Moments
	for i, c := range codes {
		if c < 0 || int(c) >= card {
			continue
		}
		groupSum[c] += vals[i]
		groupN[c]++
		total.Add(vals[i])
	}
	if total.N() < 4 {
		return math.NaN()
	}
	grand := total.Mean()
	ssTotal := total.Variance() * float64(total.N()-1)
	if ssTotal <= 0 {
		return math.NaN()
	}
	ssBetween := 0.0
	groups := 0
	for g := 0; g < card; g++ {
		if groupN[g] == 0 {
			continue
		}
		groups++
		d := groupSum[g]/groupN[g] - grand
		ssBetween += groupN[g] * d * d
	}
	if groups < 2 {
		return math.NaN()
	}
	eta := math.Sqrt(ssBetween / ssTotal)
	if eta > 1 {
		eta = 1
	}
	return eta
}
