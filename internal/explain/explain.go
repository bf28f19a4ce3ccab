package explain

import (
	"math"
	"slices"
	"strconv"

	"repro/internal/effect"
)

// View renders the explanation for a view over the given columns, from its
// computed components. Components with the strongest evidence come first;
// at most three clauses are emitted. alpha is the significance level used
// to prefer statistically confirmed components. The sentence is appended
// into one buffer, on the stack unless it outgrows it, and copied out once.
func View(columns []string, comps []effect.Component, alpha float64) string {
	if len(columns) == 0 {
		return ""
	}
	var order [16]int
	ranked := rankComponents(order[:0], comps, alpha)
	ranked = ranked[:min(len(ranked), 3)]
	clauses := ranked[:0]
	for _, i := range ranked {
		if hasClause(comps[i]) {
			clauses = append(clauses, i)
		}
	}
	var text [320]byte
	buf := appendColumnPhrase(append(text[:0], "On "...), columns)
	if len(clauses) == 0 {
		return string(append(buf, ", no reliable difference could be confirmed."...))
	}
	buf = append(buf, ", your selection "...)
	for k, i := range clauses {
		switch {
		case k == 0:
		case k < len(clauses)-1:
			buf = append(buf, ", "...)
		case k == 1:
			buf = append(buf, " and "...)
		default:
			buf = append(buf, ", and "...)
		}
		buf = appendClause(buf, &comps[i])
	}
	return string(append(buf, '.'))
}

// rankComponents appends to dst the indexes of comps' valid components,
// ordered by evidence: significant ones first (most confident first), then
// the rest by normalized magnitude. The sort is stable.
func rankComponents(dst []int, comps []effect.Component, alpha float64) []int {
	for i, c := range comps {
		if c.Valid() && c.Norm > 0.05 {
			dst = append(dst, i)
		}
	}
	less := func(a, b *effect.Component) bool {
		sa, sb := a.Test.Significant(alpha), b.Test.Significant(alpha)
		if sa != sb {
			return sa
		}
		if sa && sb && a.Test.P != b.Test.P {
			return a.Test.P < b.Test.P
		}
		return a.Norm > b.Norm
	}
	slices.SortStableFunc(dst, func(i, j int) int {
		switch {
		case less(&comps[i], &comps[j]):
			return -1
		case less(&comps[j], &comps[i]):
			return 1
		}
		return 0
	})
	return dst
}

// appendColumnPhrase appends "column x", "the columns x and y" or "the
// columns x, y and z".
func appendColumnPhrase(buf []byte, columns []string) []byte {
	if len(columns) == 1 {
		return cat(buf, "column ", columns[0])
	}
	buf = append(buf, "the columns "...)
	last := len(columns) - 1
	for i, c := range columns[:last] {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, c...)
	}
	return cat(buf, " and ", columns[last])
}

// magnitude picks an adverb from the normalized effect size.
func magnitude(norm float64) string {
	switch {
	case norm >= 0.75:
		return "markedly"
	case norm >= 0.40:
		return "noticeably"
	default:
		return "slightly"
	}
}

// either returns no when cond holds and yes otherwise.
func either(cond bool, no, yes string) string {
	if cond {
		return no
	}
	return yes
}

// hasClause reports whether appendClause renders c.
func hasClause(c effect.Component) bool {
	switch c.Kind {
	case effect.DiffCorrelations, effect.DiffSeparation:
		return len(c.Columns) >= 2
	case effect.DiffMeans, effect.DiffLocationsRobust, effect.DiffStdDevs, effect.DiffFrequencies,
		effect.DiffQuantiles, effect.DiffTails, effect.DiffEntropy:
		return true
	}
	return false
}

// appendClause appends component c, which hasClause accepts, as a verb
// phrase.
func appendClause(buf []byte, c *effect.Component) []byte {
	switch c.Kind {
	case effect.DiffMeans:
		buf = cat(buf, "has ", magnitude(c.Norm), " ", either(c.Raw < 0, "lower", "higher"), " values on ", c.Columns[0], " (avg ")
		return versus(buf, c.Inside, " vs ", c.Outside, ")", appendNum)
	case effect.DiffLocationsRobust:
		buf = cat(buf, "ranks ", magnitude(c.Norm), " ", either(c.Raw < 0, "lower", "higher"), " on ", c.Columns[0], " (median ")
		return versus(buf, c.Inside, " vs ", c.Outside, ")", appendNum)
	case effect.DiffStdDevs:
		buf = cat(buf, "has a ", magnitude(c.Norm), " ", either(c.Raw < 0, "lower", "higher"), " variance on ", c.Columns[0], " (σ ")
		return versus(buf, c.Inside, " vs ", c.Outside, ")", appendNum)
	case effect.DiffCorrelations:
		a, b := c.Columns[0], c.Columns[1]
		switch {
		case math.Abs(c.Inside) >= 0.35 && math.Abs(c.Outside) < 0.2:
			buf = cat(buf, "couples ", a, " with ", b)
		case math.Abs(c.Inside) < 0.2 && math.Abs(c.Outside) >= 0.35:
			buf = cat(buf, "loses the usual link between ", a, " and ", b)
		default:
			buf = cat(buf, "shifts the correlation of ", a, " and ", b)
		}
		return versus(append(buf, " (r="...), c.Inside, " inside vs ", c.Outside, " outside)", appendFixed2)
	case effect.DiffFrequencies:
		buf = cat(buf, either(c.Inside < c.Outside, "under-represents", "over-represents"), " the category ")
		buf = cat(strconv.AppendQuote(buf, c.Detail), " of ", c.Columns[0], " (")
		return versus(buf, 100*c.Inside, "% vs ", 100*c.Outside, "%)", appendFixed0)
	case effect.DiffQuantiles:
		buf = cat(buf, "sits ", magnitude(c.Norm), " ", either(c.Raw < 0, "below", "above"), " the typical ", c.Columns[0], " (median ")
		return versus(buf, c.Inside, " vs ", c.Outside, ")", appendNum)
	case effect.DiffTails:
		buf = cat(buf, "has ", magnitude(c.Norm), " ", either(c.Raw > 0, "heavier", "lighter"), " tails on ", c.Columns[0], " (tail ratio ")
		return versus(buf, c.Inside, " vs ", c.Outside, ")", appendFixed2)
	case effect.DiffEntropy:
		buf = cat(buf, either(c.Raw < 0, "concentrates on fewer", "spreads over more"), " categories of ", c.Columns[0], " (entropy ")
		return versus(buf, c.Inside, " vs ", c.Outside, ")", appendFixed2)
	case effect.DiffSeparation:
		if c.Raw > 0 {
			buf = cat(buf, "lets ", c.Columns[0], " separate ", c.Columns[1], " more sharply")
		} else {
			buf = cat(buf, "blurs the separation of ", c.Columns[1], " by ", c.Columns[0])
		}
		return versus(append(buf, " (η="...), c.Inside, " inside vs ", c.Outside, " outside)", appendFixed2)
	}
	return buf
}

// cat appends the strings.
func cat(buf []byte, parts ...string) []byte {
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return buf
}

// versus appends a, sep, b and end, each statistic in format f.
func versus(buf []byte, a float64, sep string, b float64, end string, f func([]byte, float64) []byte) []byte {
	return append(f(append(f(buf, a), sep...), b), end...)
}

// appendFixed0 appends v as fmt's %.0f does.
func appendFixed0(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'f', 0, 64) }

// appendFixed2 appends v as fmt's %.2f does.
func appendFixed2(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'f', 2, 64) }

// appendNum appends a statistic compactly, with thousands kept readable.
func appendNum(buf []byte, v float64) []byte {
	a := math.Abs(v)
	switch {
	case a >= 1e6:
		return append(strconv.AppendFloat(buf, v/1e6, 'g', 3, 64), 'M')
	case a >= 1e4:
		return append(strconv.AppendFloat(buf, v/1e3, 'g', 3, 64), 'k')
	case a >= 100:
		return appendFixed0(buf, v)
	default:
		return strconv.AppendFloat(buf, v, 'g', 3, 64)
	}
}
