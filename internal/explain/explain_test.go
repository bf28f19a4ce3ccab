package explain

import (
	"math"
	"strings"
	"testing"

	"repro/internal/effect"
	"repro/internal/hypo"
	"repro/internal/randx"
)

func comp(k effect.Kind, cols []string, raw, norm, inside, outside, p float64) effect.Component {
	return effect.Component{
		Kind: k, Columns: cols, Raw: raw, Norm: norm,
		Inside: inside, Outside: outside,
		Test: hypo.Result{P: p},
	}
}

func TestViewMeansHigher(t *testing.T) {
	c := comp(effect.DiffMeans, []string{"population"}, 1.8, 0.9, 61234, 24880, 1e-9)
	s := View([]string{"population", "pop_density"}, []effect.Component{c}, 0.05)
	for _, want := range []string{"the columns population and pop_density", "markedly higher values", "population"} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation %q missing %q", s, want)
		}
	}
	if !strings.HasSuffix(s, ".") {
		t.Errorf("explanation should end with a period: %q", s)
	}
}

func TestViewMeansLowerAndMagnitudes(t *testing.T) {
	low := comp(effect.DiffMeans, []string{"x"}, -0.3, 0.2, 1, 2, 0.3)
	s := View([]string{"x"}, []effect.Component{low}, 0.05)
	if !strings.Contains(s, "slightly lower values") {
		t.Errorf("explanation %q", s)
	}
	mid := comp(effect.DiffMeans, []string{"x"}, -0.6, 0.5, 1, 2, 0.3)
	s = View([]string{"x"}, []effect.Component{mid}, 0.05)
	if !strings.Contains(s, "noticeably lower values") {
		t.Errorf("explanation %q", s)
	}
}

func TestViewStdDevs(t *testing.T) {
	c := comp(effect.DiffStdDevs, []string{"density"}, -0.9, 0.7, 0.4, 1.0, 0.001)
	s := View([]string{"density"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, "lower variance on density") {
		t.Errorf("explanation %q", s)
	}
	c = comp(effect.DiffStdDevs, []string{"density"}, 0.9, 0.7, 2.5, 1.0, 0.001)
	s = View([]string{"density"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, "higher variance on density") {
		t.Errorf("explanation %q", s)
	}
}

func TestViewCorrelations(t *testing.T) {
	// Couples: strong inside, absent outside.
	c := comp(effect.DiffCorrelations, []string{"a", "b"}, 1.2, 0.8, 0.85, 0.05, 0.001)
	s := View([]string{"a", "b"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, "couples a with b") {
		t.Errorf("explanation %q", s)
	}
	// Loses: absent inside, strong outside.
	c = comp(effect.DiffCorrelations, []string{"a", "b"}, -1.2, 0.8, 0.05, 0.80, 0.001)
	s = View([]string{"a", "b"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, "loses the usual link") {
		t.Errorf("explanation %q", s)
	}
	// Shift: both moderate.
	c = comp(effect.DiffCorrelations, []string{"a", "b"}, 0.6, 0.5, 0.75, 0.35, 0.001)
	s = View([]string{"a", "b"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, "shifts the correlation") {
		t.Errorf("explanation %q", s)
	}
}

func TestViewFrequencies(t *testing.T) {
	c := comp(effect.DiffFrequencies, []string{"genre"}, 0.4, 0.4, 0.45, 0.12, 0.001)
	c.Detail = "action"
	s := View([]string{"genre"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, `over-represents the category "action"`) {
		t.Errorf("explanation %q", s)
	}
	if !strings.Contains(s, "45% vs 12%") {
		t.Errorf("explanation %q missing percentages", s)
	}
	c.Inside, c.Outside = 0.05, 0.30
	s = View([]string{"genre"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, "under-represents") {
		t.Errorf("explanation %q", s)
	}
}

func TestViewRobustLocation(t *testing.T) {
	c := comp(effect.DiffLocationsRobust, []string{"x"}, 0.8, 0.8, 12, 5, 0.001)
	s := View([]string{"x"}, []effect.Component{c}, 0.05)
	if !strings.Contains(s, "ranks markedly higher on x") {
		t.Errorf("explanation %q", s)
	}
}

func TestViewPrefersSignificantComponents(t *testing.T) {
	strongButUnproven := comp(effect.DiffMeans, []string{"a"}, 2.0, 0.95, 10, 1, math.NaN())
	weakButProven := comp(effect.DiffStdDevs, []string{"b"}, 0.5, 0.45, 2, 1, 1e-6)
	s := View([]string{"a", "b"}, []effect.Component{strongButUnproven, weakButProven}, 0.05)
	// The significant component must lead the sentence.
	iVar := strings.Index(s, "variance")
	iVal := strings.Index(s, "values")
	if iVar == -1 || iVal == -1 || iVar > iVal {
		t.Errorf("significant component should come first: %q", s)
	}
}

func TestViewLimitsToThreeClauses(t *testing.T) {
	comps := []effect.Component{
		comp(effect.DiffMeans, []string{"a"}, 1, 0.9, 2, 1, 0.001),
		comp(effect.DiffMeans, []string{"b"}, 1, 0.8, 2, 1, 0.001),
		comp(effect.DiffMeans, []string{"c"}, 1, 0.7, 2, 1, 0.001),
		comp(effect.DiffMeans, []string{"d"}, 1, 0.6, 2, 1, 0.001),
		comp(effect.DiffMeans, []string{"e"}, 1, 0.5, 2, 1, 0.001),
	}
	s := View([]string{"a", "b", "c", "d", "e"}, comps, 0.05)
	if n := strings.Count(s, "values"); n != 3 {
		t.Errorf("expected 3 clauses, found %d in %q", n, s)
	}
	// Oxford-style join of three clauses.
	if !strings.Contains(s, ", and ") {
		t.Errorf("three clauses should join with ', and ': %q", s)
	}
}

func TestViewNoComponents(t *testing.T) {
	s := View([]string{"x"}, nil, 0.05)
	if !strings.Contains(s, "no reliable difference") {
		t.Errorf("explanation %q", s)
	}
	// Invalid or negligible components give the same fallback.
	tiny := comp(effect.DiffMeans, []string{"x"}, 0.01, 0.01, 1, 1, 0.9)
	s = View([]string{"x"}, []effect.Component{tiny}, 0.05)
	if !strings.Contains(s, "no reliable difference") {
		t.Errorf("explanation %q", s)
	}
}

func TestViewEmptyColumns(t *testing.T) {
	if s := View(nil, nil, 0.05); s != "" {
		t.Errorf("empty view should be empty string, got %q", s)
	}
}

func TestColumnPhraseForms(t *testing.T) {
	one := View([]string{"solo"}, nil, 0.05)
	if !strings.Contains(one, "On column solo") {
		t.Errorf("singleton phrase: %q", one)
	}
	three := View([]string{"a", "b", "c"}, nil, 0.05)
	if !strings.Contains(three, "a, b and c") {
		t.Errorf("triple phrase: %q", three)
	}
}

func TestNumberFormatting(t *testing.T) {
	big := comp(effect.DiffMeans, []string{"x"}, 1, 0.9, 61234567, 1234, 0.001)
	s := View([]string{"x"}, []effect.Component{big}, 0.05)
	if !strings.Contains(s, "M") {
		t.Errorf("millions should be abbreviated: %q", s)
	}
}

// TestViewMatchesReference compares View with the fmt-built reference
// byte for byte over random views: every component kind, with one or two
// columns, and statistics that are tiny, huge, −0, ±Inf or NaN, so every
// number format and every ordering branch is taken. Category names carry
// quotes, backslashes and non-ASCII runes for %q.
func TestViewMatchesReference(t *testing.T) {
	r := randx.New(39)
	kinds := []effect.Kind{effect.DiffMeans, effect.DiffLocationsRobust, effect.DiffStdDevs, effect.DiffCorrelations,
		effect.DiffFrequencies, effect.DiffQuantiles, effect.DiffTails, effect.DiffEntropy, effect.DiffSeparation, effect.Kind(99)}
	stat := func() float64 {
		switch r.Intn(12) {
		case 0:
			return math.Inf(1 - 2*r.Intn(2))
		case 1:
			return math.NaN()
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return r.Normal(0, 0.3)
		default:
			return r.Normal(0, 1) * math.Pow(10, float64(r.Intn(16)-6))
		}
	}
	names := []string{"a", "pop_density", `q"uote`, "back\\slash", "émigré", "tab\there"}
	for i := 0; i < 5000; i++ {
		var columns []string
		for k := r.Intn(5); k >= 0; k-- {
			columns = append(columns, names[r.Intn(len(names))])
		}
		comps := make([]effect.Component, r.Intn(7))
		for j := range comps {
			cols := columns[:1+r.Intn(len(columns))]
			comps[j] = comp(kinds[r.Intn(len(kinds))], cols[:min(len(cols), 2)], stat(), r.Float64(), stat(), stat(), r.Float64()*0.1)
			switch r.Intn(8) {
			case 0:
				comps[j].Norm = math.NaN()
			case 1:
				comps[j].Test.P = math.NaN()
			case 2:
				comps[j].Norm = comps[(j+1)%len(comps)].Norm
			}
			comps[j].Detail = names[r.Intn(len(names))]
		}
		alpha := []float64{0.05, 0.01, 1}[r.Intn(3)]
		if got, want := View(columns, comps, alpha), referenceView(columns, comps, alpha); got != want {
			t.Fatalf("view %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestViewAllocatesOnce holds View to one allocation, its returned string.
func TestViewAllocatesOnce(t *testing.T) {
	comps := []effect.Component{
		comp(effect.DiffMeans, []string{"a"}, 1, 0.9, 61234567, 1234, 0.001),
		comp(effect.DiffCorrelations, []string{"a", "b"}, 0.6, 0.5, 0.75, 0.35, 0.002),
		comp(effect.DiffStdDevs, []string{"b"}, -1, 0.6, 0.5, 2, 0.003),
		comp(effect.DiffTails, []string{"b"}, 1, 0.3, 1.5, 1.1, 0.2),
	}
	if allocs := testing.AllocsPerRun(100, func() { View([]string{"a", "b"}, comps, 0.05) }); allocs != 1 {
		t.Errorf("View allocates %v times, want 1", allocs)
	}
}
