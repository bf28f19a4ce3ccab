package plot

import (
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/randx"
)

func plotFixture(t *testing.T) (*frame.Frame, *frame.Bitmap) {
	t.Helper()
	r := randx.New(1)
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	cats := make([]string, n)
	sel := frame.NewBitmap(n)
	for i := 0; i < n; i++ {
		if i < 150 {
			sel.Set(i)
			xs[i] = r.Normal(5, 1)
			ys[i] = r.Normal(5, 1)
			cats[i] = "hot"
		} else {
			xs[i] = r.Normal(0, 1)
			ys[i] = r.Normal(0, 1)
			cats[i] = []string{"cold", "mild"}[r.Intn(2)]
		}
	}
	f := frame.MustNew("t", []*frame.Column{
		frame.NewNumericColumn("x", xs),
		frame.NewNumericColumn("y", ys),
		frame.NewCategoricalColumn("climate", cats),
	})
	return f, sel
}

func TestScatterLayout(t *testing.T) {
	f, sel := plotFixture(t)
	a, _ := f.Lookup("x")
	b, _ := f.Lookup("y")
	inX, inY, outX, outY := completePairs(a, b, sel)
	s := Scatter("x", "y", inX, inY, outX, outY, 40, 12)
	if !strings.Contains(s, "+") || !strings.Contains(s, "·") {
		t.Fatalf("scatter lacks glyphs:\n%s", s)
	}
	if !strings.Contains(s, "y (y) vs x (x)") {
		t.Fatalf("scatter lacks axis labels:\n%s", s)
	}
	// The selection cluster (around 5,5) must land in the upper-right
	// region: find a '+' in the top third of the plot.
	lines := strings.Split(s, "\n")
	topThird := lines[2:6]
	var foundHigh bool
	for _, l := range topThird {
		if strings.Contains(l, "+") {
			foundHigh = true
		}
	}
	if !foundHigh {
		t.Errorf("selection cluster not in upper region:\n%s", s)
	}
}

func TestScatterDegenerate(t *testing.T) {
	if s := Scatter("x", "y", nil, nil, nil, nil, 40, 12); !strings.Contains(s, "no data") {
		t.Errorf("empty scatter = %q", s)
	}
	flat := []float64{1, 1, 1}
	if s := Scatter("x", "y", flat, flat, flat, flat, 40, 12); !strings.Contains(s, "degenerate") {
		t.Errorf("flat scatter = %q", s)
	}
}

func TestHistogram(t *testing.T) {
	f, sel := plotFixture(t)
	in, out, err := f.SplitNumeric("x", sel)
	if err != nil {
		t.Fatal(err)
	}
	s := Histogram("x", in, out, 8, 30)
	if !strings.Contains(s, "x") || !strings.Contains(s, "+") || !strings.Contains(s, "·") {
		t.Fatalf("histogram incomplete:\n%s", s)
	}
	if s := Histogram("x", nil, nil, 8, 30); !strings.Contains(s, "no data") {
		t.Errorf("empty histogram = %q", s)
	}
	flat := []float64{2, 2}
	if s := Histogram("x", flat, flat, 8, 30); !strings.Contains(s, "degenerate") {
		t.Errorf("flat histogram = %q", s)
	}
}

func TestCategoricalBars(t *testing.T) {
	f, sel := plotFixture(t)
	in, out, dict, err := f.SplitCodes("climate", sel)
	if err != nil {
		t.Fatal(err)
	}
	s := CategoricalBars("climate", in, out, dict, 20)
	for _, want := range []string{"hot", "cold", "%"} {
		if !strings.Contains(s, want) {
			t.Errorf("bars missing %q:\n%s", want, s)
		}
	}
	// The selection is 100% "hot": its bar shows 100%.
	if !strings.Contains(s, "100%") {
		t.Errorf("bars lack the 100%% group:\n%s", s)
	}
	if s := CategoricalBars("c", nil, nil, nil, 20); !strings.Contains(s, "no data") {
		t.Errorf("empty bars = %q", s)
	}
}

func TestViewDispatch(t *testing.T) {
	f, sel := plotFixture(t)
	// Two numeric columns → scatter.
	s, err := View(f, sel, []string{"x", "y"}, 40, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "vs") {
		t.Errorf("expected scatter, got:\n%s", s)
	}
	// Single numeric → histogram.
	s, err = View(f, sel, []string{"x"}, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, "vs") {
		t.Errorf("expected histogram, got scatter:\n%s", s)
	}
	// Mixed pair → stacked charts.
	s, err = View(f, sel, []string{"x", "climate"}, 30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "climate") {
		t.Errorf("stacked charts missing categorical:\n%s", s)
	}
	// Errors.
	if _, err := View(f, sel, nil, 30, 10); err == nil {
		t.Error("empty view accepted")
	}
	if _, err := View(f, sel, []string{"nosuch"}, 30, 10); err == nil {
		t.Error("unknown column accepted")
	}
}
