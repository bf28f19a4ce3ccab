package effect

import (
	"math"

	"repro/internal/hypo"
	"repro/internal/stats"
)

// Scratch holds the category-count buffers the categorical components
// reuse. The engine keeps one per worker goroutine so they are reused
// across columns and never shared across workers. The numeric components
// need no scratch: their order statistics come from the column's
// stats.Ranking, a walk of an order sorted once per table. A nil *Scratch
// is valid everywhere and falls back to fresh allocations, and a
// scratch-backed computation returns exactly the same bytes as an
// allocation-backed one: the buffers only ever carry values written by the
// current call.
type Scratch struct {
	countsIn, countsOut []float64
}

// zeroedFloats returns a length-n zeroed slice backed by *buf.
func zeroedFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
		return *buf
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// CliffDelta computes the rank-based DiffLocationsRobust component:
// delta = P(x > y) - P(x < y) for x drawn from the selection and y from the
// complement, in [-1, 1]. One ranking of the concatenation (NewRanking)
// produces the delta, both group medians, and the Mann-Whitney
// significance bound via CliffDeltaRanked. The engine never calls it: it
// walks the column order it prepared once per table instead.
func CliffDelta(col string, in, out []float64) Component {
	if len(in) < 2 || len(out) < 2 {
		return invalid(DiffLocationsRobust, col)
	}
	return CliffDeltaRanked(col, stats.NewRanking(in, out))
}

// categoryCounts tallies the in and out codes over a k-entry dictionary
// into s's count buffers (fresh slices when s is nil), ignoring codes
// outside [0, k).
func categoryCounts(s *Scratch, in, out []int32, k int) (countsIn, countsOut []float64) {
	if s != nil {
		countsIn = zeroedFloats(&s.countsIn, k)
		countsOut = zeroedFloats(&s.countsOut, k)
	} else {
		countsIn = make([]float64, k)
		countsOut = make([]float64, k)
	}
	for _, c := range in {
		if c >= 0 && int(c) < k {
			countsIn[c]++
		}
	}
	for _, c := range out {
		if c >= 0 && int(c) < k {
			countsOut[c]++
		}
	}
	return countsIn, countsOut
}

// Frequencies computes the DiffFrequencies component for a categorical
// column given dictionary codes of both sides and the dictionary itself,
// counting into s's buffers (s may be nil). Raw and Norm are the total
// variation distance between the two frequency vectors; Detail names the
// category with the largest absolute shift.
func Frequencies(s *Scratch, col string, in, out []int32, dict []string) Component {
	if len(in) < 2 || len(out) < 2 || len(dict) == 0 {
		return invalid(DiffFrequencies, col)
	}
	k := len(dict)
	countsIn, countsOut := categoryCounts(s, in, out, k)
	ni, no := float64(len(in)), float64(len(out))
	tvd := 0.0
	bestShift := -1.0
	bestCat := ""
	var bestIn, bestOut float64
	for i := 0; i < k; i++ {
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

// Entropy computes the DiffEntropy component for a categorical column,
// counting into s's buffers (s may be nil): the difference of normalized
// Shannon entropies (in [0,1] each). A selection concentrated on few
// categories scores negative raw values.
func Entropy(s *Scratch, col string, in, out []int32, dict []string) Component {
	if len(in) < 2 || len(out) < 2 || len(dict) < 2 {
		return invalid(DiffEntropy, col)
	}
	k := len(dict)
	countsIn, countsOut := categoryCounts(s, in, out, k)
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
