package effect

import (
	"math"
	"strings"
	"testing"
)

func mkComp(k Kind, norm float64) Component {
	return Component{Kind: k, Raw: norm, Norm: norm}
}

func TestScoreWeightedSum(t *testing.T) {
	comps := []Component{
		mkComp(DiffMeans, 0.5),
		mkComp(DiffStdDevs, 0.25),
	}
	w := Weights{DiffMeans: 2, DiffStdDevs: 1}
	if got := Score(comps, w); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("Score = %v, want 1.25", got)
	}
}

func TestScoreSkipsInvalid(t *testing.T) {
	comps := []Component{
		mkComp(DiffMeans, 0.5),
		{Kind: DiffStdDevs, Raw: math.NaN(), Norm: math.NaN()},
	}
	if got := Score(comps, DefaultWeights()); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Score = %v, want 0.5 (invalid skipped)", got)
	}
}

func TestScoreNilWeightsDefault(t *testing.T) {
	comps := []Component{mkComp(DiffMeans, 0.3)}
	if got := Score(comps, nil); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Score with nil weights = %v, want 0.3", got)
	}
}

func TestScoreGrowsWithComponents(t *testing.T) {
	// The plain sum favors larger views (the paper's motivation for the
	// tightness constraint).
	small := []Component{mkComp(DiffMeans, 0.4)}
	large := append([]Component{}, small...)
	large = append(large, mkComp(DiffMeans, 0.4), mkComp(DiffStdDevs, 0.4))
	if Score(large, DefaultWeights()) <= Score(small, DefaultWeights()) {
		t.Fatal("sum score should grow with more components")
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Fatalf("default weights invalid: %v", err)
	}
	if err := (Weights{DiffMeans: -1}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	if err := (Weights{DiffMeans: math.NaN()}).Validate(); err == nil {
		t.Error("NaN weight accepted")
	}
	if err := (Weights{DiffMeans: 0}).Validate(); err == nil {
		t.Error("all-zero weights accepted")
	}
	if err := (Weights{}).Validate(); err == nil {
		t.Error("empty weights accepted")
	}
}

func TestWeightsCloneIndependent(t *testing.T) {
	w := DefaultWeights()
	c := w.Clone()
	c[DiffMeans] = 99
	if w[DiffMeans] == 99 {
		t.Fatal("Clone shares storage")
	}
}

func TestWeightsGetNil(t *testing.T) {
	var w Weights
	if w.Get(DiffMeans) != 0 {
		t.Fatal("nil weights Get should be 0")
	}
}

func TestWeightsString(t *testing.T) {
	w := Weights{DiffStdDevs: 2, DiffMeans: 1}
	s := w.String()
	if !strings.Contains(s, "diff-means=1") || !strings.Contains(s, "diff-stddevs=2") {
		t.Fatalf("String = %q", s)
	}
	// Deterministic ordering: means (kind 0) before stddevs (kind 1).
	if strings.Index(s, "diff-means") > strings.Index(s, "diff-stddevs") {
		t.Fatalf("String not sorted: %q", s)
	}
}
