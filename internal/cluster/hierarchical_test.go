package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/randx"
)

// twoBlockDistances builds a distance matrix with two well-separated blocks
// of sizes a and b: within-block distance win, across-block distance wout.
func twoBlockDistances(a, b int, win, wout float64) ([]float64, int) {
	n := a + b
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sameBlock := (i < a) == (j < a)
			if sameBlock {
				d[i*n+j] = win
			} else {
				d[i*n+j] = wout
			}
		}
	}
	return d, n
}

func TestAgglomerateTwoBlocks(t *testing.T) {
	for _, linkage := range []Linkage{Complete, Single, Average} {
		d, n := twoBlockDistances(3, 4, 0.1, 0.9)
		dd, err := Agglomerate(d, n, linkage)
		if err != nil {
			t.Fatal(err)
		}
		if len(dd.Merges) != n-1 {
			t.Fatalf("%v: %d merges, want %d", linkage, len(dd.Merges), n-1)
		}
		clusters := dd.CutAt(0.5)
		if len(clusters) != 2 {
			t.Fatalf("%v: cut gives %d clusters, want 2: %v", linkage, len(clusters), clusters)
		}
		if len(clusters[0]) != 3 || len(clusters[1]) != 4 {
			t.Fatalf("%v: cluster sizes %d/%d, want 3/4", linkage, len(clusters[0]), len(clusters[1]))
		}
		for _, v := range clusters[0] {
			if v >= 3 {
				t.Fatalf("%v: vertex %d leaked into first block", linkage, v)
			}
		}
	}
}

func TestCompleteLinkageTightnessGuarantee(t *testing.T) {
	// For complete linkage, every cluster cut at height h has max pairwise
	// distance <= h. Build a random distance matrix and verify on cuts.
	r := randx.New(42)
	n := 24
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.Float64()
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
	dd, err := Agglomerate(d, n, Complete)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{0.2, 0.4, 0.6, 0.8} {
		for _, cl := range dd.CutAt(h) {
			for a := 0; a < len(cl); a++ {
				for b := a + 1; b < len(cl); b++ {
					if d[cl[a]*n+cl[b]] > h+1e-9 {
						t.Fatalf("cut at %v: pair (%d,%d) has distance %v > %v",
							h, cl[a], cl[b], d[cl[a]*n+cl[b]], h)
					}
				}
			}
		}
	}
}

func TestSingleVsCompleteChaining(t *testing.T) {
	// A chain 0-1-2 with d(0,1)=d(1,2)=0.1 but d(0,2)=0.9: single linkage
	// chains all three at 0.1; complete linkage keeps 0,2 separate until
	// 0.9.
	n := 3
	d := []float64{
		0, 0.1, 0.9,
		0.1, 0, 0.1,
		0.9, 0.1, 0,
	}
	single, _ := Agglomerate(d, n, Single)
	complete, _ := Agglomerate(d, n, Complete)
	if got := len(single.CutAt(0.2)); got != 1 {
		t.Fatalf("single linkage at 0.2: %d clusters, want 1 (chaining)", got)
	}
	if got := len(complete.CutAt(0.2)); got != 2 {
		t.Fatalf("complete linkage at 0.2: %d clusters, want 2", got)
	}
	// The final complete merge must be at 0.9.
	last := complete.Merges[len(complete.Merges)-1]
	if math.Abs(last.Height-0.9) > 1e-12 {
		t.Fatalf("complete final height = %v, want 0.9", last.Height)
	}
}

func TestAverageLinkageHeight(t *testing.T) {
	// Merge {0,1} at 0.1; then cluster {0,1} joins 2 at mean(0.5, 0.7)=0.6.
	n := 3
	d := []float64{
		0, 0.1, 0.5,
		0.1, 0, 0.7,
		0.5, 0.7, 0,
	}
	dd, _ := Agglomerate(d, n, Average)
	if math.Abs(dd.Merges[1].Height-0.6) > 1e-12 {
		t.Fatalf("average linkage height = %v, want 0.6", dd.Merges[1].Height)
	}
}

func TestAgglomerateValidation(t *testing.T) {
	if _, err := Agglomerate(nil, 0, Complete); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Agglomerate([]float64{0, 1}, 2, Complete); err == nil {
		t.Error("mis-sized matrix accepted")
	}
	if _, err := Agglomerate([]float64{0, -1, -1, 0}, 2, Complete); err == nil {
		t.Error("negative distance accepted")
	}
	if _, err := Agglomerate([]float64{0, math.NaN(), math.NaN(), 0}, 2, Complete); err == nil {
		t.Error("NaN distance accepted")
	}
	if _, err := Agglomerate([]float64{0, 1, 2, 0}, 2, Complete); err == nil {
		t.Error("asymmetric matrix accepted")
	}
}

func TestSingleLeaf(t *testing.T) {
	dd, err := Agglomerate([]float64{0}, 1, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if len(dd.Merges) != 0 {
		t.Fatal("single leaf should have no merges")
	}
	cl := dd.CutAt(1)
	if len(cl) != 1 || len(cl[0]) != 1 || cl[0][0] != 0 {
		t.Fatalf("CutAt on single leaf = %v", cl)
	}
}

func TestCutAtExtremes(t *testing.T) {
	d, n := twoBlockDistances(2, 2, 0.1, 0.9)
	dd, _ := Agglomerate(d, n, Complete)
	if got := dd.CutAt(-1); len(got) != n {
		t.Fatalf("cut below all heights: %d clusters, want %d singletons", len(got), n)
	}
	if got := dd.CutAt(10); len(got) != 1 {
		t.Fatalf("cut above all heights: %d clusters, want 1", len(got))
	}
}

func TestHeightsMonotoneForCompleteAndAverage(t *testing.T) {
	r := randx.New(7)
	n := 15
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.Float64()
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
	for _, linkage := range []Linkage{Complete, Average, Single} {
		dd, _ := Agglomerate(d, n, linkage)
		for i := 1; i < len(dd.Merges); i++ {
			if dd.Merges[i].Height < dd.Merges[i-1].Height-1e-9 {
				t.Fatalf("%v: heights not monotone: %v", linkage, dd.Merges)
			}
		}
	}
}

func TestRender(t *testing.T) {
	d, n := twoBlockDistances(2, 1, 0.1, 0.9)
	dd, _ := Agglomerate(d, n, Complete)
	out := dd.Render([]string{"a", "b", "c"})
	if !strings.Contains(out, "a + b") {
		t.Fatalf("Render = %q", out)
	}
	// Without labels falls back to leaf ids.
	out = dd.Render(nil)
	if !strings.Contains(out, "leaf-0") {
		t.Fatalf("Render without labels = %q", out)
	}
}

func TestParseLinkage(t *testing.T) {
	for name, want := range map[string]Linkage{"complete": Complete, "single": Single, "average": Average, "": Complete} {
		got, err := ParseLinkage(name)
		if err != nil || got != want {
			t.Errorf("ParseLinkage(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseLinkage("bogus"); err == nil {
		t.Error("bogus linkage accepted")
	}
	if Complete.String() != "complete" || Linkage(9).String() != "Linkage(9)" {
		t.Error("Linkage.String wrong")
	}
}
