package explain

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/effect"
)

// referenceView is the fmt-built View that the appending one replaced,
// kept as the reference its text must equal byte for byte.
func referenceView(columns []string, comps []effect.Component, alpha float64) string {
	if len(columns) == 0 {
		return ""
	}
	ranked := refRank(comps, alpha)
	if len(ranked) == 0 {
		return fmt.Sprintf("On %s, no reliable difference could be confirmed.", refColumnPhrase(columns))
	}
	limit := 3
	if len(ranked) < limit {
		limit = len(ranked)
	}
	clauses := make([]string, 0, limit)
	for _, c := range ranked[:limit] {
		if cl := refClause(c); cl != "" {
			clauses = append(clauses, cl)
		}
	}
	if len(clauses) == 0 {
		return fmt.Sprintf("On %s, no reliable difference could be confirmed.", refColumnPhrase(columns))
	}
	return fmt.Sprintf("On %s, your selection %s.", refColumnPhrase(columns), refJoin(clauses))
}

// refRank orders valid components: significant ones first (most
// confident first), then the rest by normalized magnitude.
func refRank(comps []effect.Component, alpha float64) []effect.Component {
	var ranked []effect.Component
	for _, c := range comps {
		if c.Valid() && c.Norm > 0.05 {
			ranked = append(ranked, c)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		si := ranked[i].Test.Significant(alpha)
		sj := ranked[j].Test.Significant(alpha)
		if si != sj {
			return si
		}
		if si && sj && ranked[i].Test.P != ranked[j].Test.P {
			return ranked[i].Test.P < ranked[j].Test.P
		}
		return ranked[i].Norm > ranked[j].Norm
	})
	return ranked
}

// refColumnPhrase renders "column x" or "the columns x and y".
func refColumnPhrase(columns []string) string {
	switch len(columns) {
	case 1:
		return fmt.Sprintf("column %s", columns[0])
	case 2:
		return fmt.Sprintf("the columns %s and %s", columns[0], columns[1])
	default:
		return fmt.Sprintf("the columns %s and %s",
			strings.Join(columns[:len(columns)-1], ", "), columns[len(columns)-1])
	}
}

// refMagnitude picks an adverb from the normalized effect size.
func refMagnitude(norm float64) string {
	switch {
	case norm >= 0.75:
		return "markedly"
	case norm >= 0.40:
		return "noticeably"
	default:
		return "slightly"
	}
}

// refClause renders one component as a verb phrase.
func refClause(c effect.Component) string {
	switch c.Kind {
	case effect.DiffMeans:
		dir := "higher"
		if c.Raw < 0 {
			dir = "lower"
		}
		return fmt.Sprintf("has %s %s values on %s (avg %s vs %s)",
			refMagnitude(c.Norm), dir, c.Columns[0], refNum(c.Inside), refNum(c.Outside))

	case effect.DiffLocationsRobust:
		dir := "higher"
		if c.Raw < 0 {
			dir = "lower"
		}
		return fmt.Sprintf("ranks %s %s on %s (median %s vs %s)",
			refMagnitude(c.Norm), dir, c.Columns[0], refNum(c.Inside), refNum(c.Outside))

	case effect.DiffStdDevs:
		if c.Raw < 0 {
			return fmt.Sprintf("has a %s lower variance on %s (σ %s vs %s)",
				refMagnitude(c.Norm), c.Columns[0], refNum(c.Inside), refNum(c.Outside))
		}
		return fmt.Sprintf("has a %s higher variance on %s (σ %s vs %s)",
			refMagnitude(c.Norm), c.Columns[0], refNum(c.Inside), refNum(c.Outside))

	case effect.DiffCorrelations:
		if len(c.Columns) < 2 {
			return ""
		}
		switch {
		case math.Abs(c.Inside) >= 0.35 && math.Abs(c.Outside) < 0.2:
			return fmt.Sprintf("couples %s with %s (r=%.2f inside vs %.2f outside)",
				c.Columns[0], c.Columns[1], c.Inside, c.Outside)
		case math.Abs(c.Inside) < 0.2 && math.Abs(c.Outside) >= 0.35:
			return fmt.Sprintf("loses the usual link between %s and %s (r=%.2f inside vs %.2f outside)",
				c.Columns[0], c.Columns[1], c.Inside, c.Outside)
		default:
			return fmt.Sprintf("shifts the correlation of %s and %s (r=%.2f inside vs %.2f outside)",
				c.Columns[0], c.Columns[1], c.Inside, c.Outside)
		}

	case effect.DiffFrequencies:
		dir := "over-represents"
		if c.Inside < c.Outside {
			dir = "under-represents"
		}
		return fmt.Sprintf("%s the category %q of %s (%.0f%% vs %.0f%%)",
			dir, c.Detail, c.Columns[0], 100*c.Inside, 100*c.Outside)

	case effect.DiffQuantiles:
		dir := "above"
		if c.Raw < 0 {
			dir = "below"
		}
		return fmt.Sprintf("sits %s %s the typical %s (median %s vs %s)",
			refMagnitude(c.Norm), dir, c.Columns[0], refNum(c.Inside), refNum(c.Outside))

	case effect.DiffTails:
		if c.Raw > 0 {
			return fmt.Sprintf("has %s heavier tails on %s (tail ratio %.2f vs %.2f)",
				refMagnitude(c.Norm), c.Columns[0], c.Inside, c.Outside)
		}
		return fmt.Sprintf("has %s lighter tails on %s (tail ratio %.2f vs %.2f)",
			refMagnitude(c.Norm), c.Columns[0], c.Inside, c.Outside)

	case effect.DiffEntropy:
		if c.Raw < 0 {
			return fmt.Sprintf("concentrates on fewer categories of %s (entropy %.2f vs %.2f)",
				c.Columns[0], c.Inside, c.Outside)
		}
		return fmt.Sprintf("spreads over more categories of %s (entropy %.2f vs %.2f)",
			c.Columns[0], c.Inside, c.Outside)

	case effect.DiffSeparation:
		if len(c.Columns) < 2 {
			return ""
		}
		if c.Raw > 0 {
			return fmt.Sprintf("lets %s separate %s more sharply (η=%.2f inside vs %.2f outside)",
				c.Columns[0], c.Columns[1], c.Inside, c.Outside)
		}
		return fmt.Sprintf("blurs the separation of %s by %s (η=%.2f inside vs %.2f outside)",
			c.Columns[1], c.Columns[0], c.Inside, c.Outside)

	default:
		return ""
	}
}

// refJoin joins verb phrases with commas and a final "and".
func refJoin(clauses []string) string {
	switch len(clauses) {
	case 1:
		return clauses[0]
	case 2:
		return clauses[0] + " and " + clauses[1]
	default:
		return strings.Join(clauses[:len(clauses)-1], ", ") + ", and " + clauses[len(clauses)-1]
	}
}

// refNum formats a statistic compactly, with thousands kept readable.
func refNum(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	case a >= 1:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}
