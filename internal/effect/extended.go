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

// The positions of the extended components' levels in
// stats.QuantileLevels.
const (
	p05, p25, p50, p75, p95 = 0, 1, 2, 3, 4
)

// Quantiles computes the DiffQuantiles component: the median shift scaled
// by the pooled interquartile range, tested with Mann-Whitney U. The
// quartiles of both groups and the Mann-Whitney bound are read off the
// column's two-group Ranking r, which must have been asked for its
// quantiles, so the component sorts nothing; a NaN-bearing ranking yields
// the invalid component.
func Quantiles(col string, r stats.Ranking) Component {
	if r.NA < 4 || r.NB < 4 || r.HasNaN {
		return invalid(DiffQuantiles, col)
	}
	qi, qo := &r.QuantilesA, &r.QuantilesB
	pooled := ((qi[p75] - qi[p25]) + (qo[p75] - qo[p25])) / 2
	if pooled <= 0 {
		return invalid(DiffQuantiles, col)
	}
	raw := (qi[p50] - qo[p50]) / pooled
	return Component{
		Kind:    DiffQuantiles,
		Columns: []string{col},
		Raw:     raw,
		Norm:    normalize(raw),
		Inside:  qi[p50],
		Outside: qo[p50],
		Test:    hypo.MannWhitneyURanked(r),
	}
}

// Tails computes the DiffTails component: the log ratio of the tail-weight
// statistic (P95-P5)/(P75-P25) between the two sides. Heavy-tailed
// selections score high. All four order statistics per group are read off
// the column's Ranking r under the same contract as Quantiles. The F
// variance test over the sides' summaries in and out (the groups r ranks)
// provides an (approximate) significance bound; spread changes and tail
// changes travel together for the distributions explorers meet.
func Tails(col string, r stats.Ranking, in, out stats.Summary) Component {
	if r.NA < 10 || r.NB < 10 || r.HasNaN {
		return invalid(DiffTails, col)
	}
	tw := func(v *[len(stats.QuantileLevels)]float64) float64 {
		iqr := v[p75] - v[p25]
		if iqr <= 0 {
			return math.NaN()
		}
		return (v[p95] - v[p05]) / iqr
	}
	ti, to := tw(&r.QuantilesA), tw(&r.QuantilesB)
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

// Entropy computes the DiffEntropy component for a categorical column from
// the per-code counts of both sides: the difference of normalized Shannon
// entropies (in [0,1] each). A selection concentrated on few categories
// scores negative raw values.
func Entropy(col string, countsIn, countsOut []float64, dict []string) Component {
	if total(countsIn) < 2 || total(countsOut) < 2 || len(dict) < 2 {
		return invalid(DiffEntropy, col)
	}
	hi := normalizedEntropy(countsIn)
	ho := normalizedEntropy(countsOut)
	raw := hi - ho
	return Component{
		Kind:    DiffEntropy,
		Columns: []string{col},
		Raw:     raw,
		Norm:    math.Abs(raw), // entropies are already normalized to [0,1]
		Inside:  hi,
		Outside: ho,
		Test:    hypo.ChiSquareHomogeneity(countsIn, countsOut),
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
// correlation ratio η (how strongly the categorical column catCol separates
// the numeric column numCol) between the selection and its complement,
// from each side's η over its complete cases. A side with fewer than 8
// cases, fewer than two populated categories or a NaN η gives the invalid
// component.
func Separation(catCol, numCol string, in, out stats.Eta) Component {
	if in.N < 8 || out.N < 8 || in.Groups < 2 || out.Groups < 2 ||
		math.IsNaN(in.Value) || math.IsNaN(out.Value) {
		return invalid(DiffSeparation, catCol, numCol)
	}
	// Fisher-z the ratios like correlations: η lives in [0,1].
	raw := stats.FisherZ(in.Value) - stats.FisherZ(out.Value)
	return Component{
		Kind:    DiffSeparation,
		Columns: []string{catCol, numCol},
		Raw:     raw,
		Norm:    normalize(raw),
		Inside:  in.Value,
		Outside: out.Value,
		// η² relates to the F statistic of one-way ANOVA; Fisher z over
		// atanh(η) with the correlation test gives the asymptotic bound.
		Test: hypo.CorrelationZ(in.Value, in.N, out.Value, out.N),
	}
}
