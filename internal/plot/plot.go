// Package plot renders characteristic views as text: ASCII scatter plots
// for two-column numeric views (the paper's Figure 1 charts, with '+' for
// the selection and '·' for the rest), overlaid histograms for single
// numeric columns, and frequency bars for categorical columns.
//
// The CLI (ziggy -plot) and the demo server use these renderings so that a
// terminal user can "inspect the charts and check whether they hold", the
// verifiability property §2.2 claims for the Zig-Components.
package plot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/frame"
	"repro/internal/stats"
)

// Glyphs used by the renderers.
const (
	glyphIn   = '+'
	glyphOut  = '·'
	glyphBoth = '#'
)

// Scatter renders a two-series scatter plot. Points from the selection are
// drawn with '+', points outside with '·', collisions with '#'. Axes carry
// min/max annotations.
func Scatter(xLabel, yLabel string, inX, inY, outX, outY []float64, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}
	allX := append(append([]float64{}, inX...), outX...)
	allY := append(append([]float64{}, inY...), outY...)
	if len(allX) == 0 || len(allX) != len(allY) {
		return "(no data to plot)\n"
	}
	loX, hiX := stats.MinMax(allX)
	loY, hiY := stats.MinMax(allY)
	if !(hiX > loX) || !(hiY > loY) {
		return "(degenerate ranges; nothing to plot)\n"
	}

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	place := func(xs, ys []float64, glyph rune) {
		for i := range xs {
			c := int(float64(width-1) * (xs[i] - loX) / (hiX - loX))
			r := height - 1 - int(float64(height-1)*(ys[i]-loY)/(hiY-loY))
			if c < 0 || c >= width || r < 0 || r >= height {
				continue
			}
			switch grid[r][c] {
			case ' ':
				grid[r][c] = glyph
			case glyph:
			default:
				grid[r][c] = glyphBoth
			}
		}
	}
	// Outside first so selection points stay visible on top.
	place(outX, outY, glyphOut)
	place(inX, inY, glyphIn)

	var b strings.Builder
	fmt.Fprintf(&b, "%s (y) vs %s (x)   [%c selection  %c rest  %c both]\n",
		yLabel, xLabel, glyphIn, glyphOut, glyphBoth)
	fmt.Fprintf(&b, "%s ┌%s┐\n", pad(fmtNum(hiY), 9), strings.Repeat("─", width))
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", 9)
		if r == height-1 {
			label = pad(fmtNum(loY), 9)
		}
		fmt.Fprintf(&b, "%s │%s│\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s └%s┘\n", strings.Repeat(" ", 9), strings.Repeat("─", width))
	loLabel, hiLabel := fmtNum(loX), fmtNum(hiX)
	gap := width - len(loLabel) - len(hiLabel)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s %s%s%s\n", strings.Repeat(" ", 10), loLabel,
		strings.Repeat(" ", gap), hiLabel)
	return b.String()
}

// Histogram renders the selection and complement distributions of one
// numeric column as two aligned bar columns per bin.
func Histogram(label string, in, out []float64, bins, width int) string {
	if bins < 2 {
		bins = 10
	}
	if width < 10 {
		width = 30
	}
	all := append(append([]float64{}, in...), out...)
	if len(all) == 0 {
		return "(no data to plot)\n"
	}
	lo, hi := stats.MinMax(all)
	if !(hi > lo) {
		return "(degenerate range; nothing to plot)\n"
	}
	hIn := stats.NewHistogram(in, bins, lo, hi)
	hOut := stats.NewHistogram(out, bins, lo, hi)
	pIn := hIn.Probabilities()
	pOut := hOut.Probabilities()
	maxP := 0.0
	for i := range pIn {
		maxP = math.Max(maxP, math.Max(pIn[i], pOut[i]))
	}
	if maxP == 0 {
		return "(empty histogram)\n"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s   [%c selection  %c rest]\n", label, glyphIn, glyphOut)
	binWidth := (hi - lo) / float64(bins)
	for i := 0; i < bins; i++ {
		edge := lo + float64(i)*binWidth
		nIn := int(math.Round(pIn[i] / maxP * float64(width)))
		nOut := int(math.Round(pOut[i] / maxP * float64(width)))
		fmt.Fprintf(&b, "%10s │%s\n", fmtNum(edge),
			strings.Repeat(string(glyphIn), nIn))
		fmt.Fprintf(&b, "%10s │%s\n", "",
			strings.Repeat(string(glyphOut), nOut))
	}
	return b.String()
}

// CategoricalBars renders the frequency of each category inside vs outside
// the selection.
func CategoricalBars(label string, in, out []int32, dict []string, width int) string {
	if width < 10 {
		width = 30
	}
	if len(dict) == 0 || len(in) == 0 || len(out) == 0 {
		return "(no data to plot)\n"
	}
	k := len(dict)
	cIn := make([]float64, k)
	cOut := make([]float64, k)
	for _, c := range in {
		if c >= 0 && int(c) < k {
			cIn[c]++
		}
	}
	for _, c := range out {
		if c >= 0 && int(c) < k {
			cOut[c]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s   [%c selection  %c rest]\n", label, glyphIn, glyphOut)
	nameW := 0
	for _, d := range dict {
		if len(d) > nameW {
			nameW = len(d)
		}
	}
	if nameW > 18 {
		nameW = 18
	}
	for i := 0; i < k; i++ {
		fIn := cIn[i] / float64(len(in))
		fOut := cOut[i] / float64(len(out))
		name := dict[i]
		if len(name) > nameW {
			name = name[:nameW]
		}
		fmt.Fprintf(&b, "%*s │%s %4.0f%%\n", nameW, name,
			pad(strings.Repeat(string(glyphIn), int(fIn*float64(width))), width), fIn*100)
		fmt.Fprintf(&b, "%*s │%s %4.0f%%\n", nameW, "",
			pad(strings.Repeat(string(glyphOut), int(fOut*float64(width))), width), fOut*100)
	}
	return b.String()
}

// View renders the appropriate chart for a view's columns: a scatter for
// two numeric columns, a histogram for one numeric column, frequency bars
// for categorical columns, and a vertical combination otherwise.
func View(f *frame.Frame, sel *frame.Bitmap, columns []string, width, height int) (string, error) {
	if len(columns) == 0 {
		return "", fmt.Errorf("plot: empty view")
	}
	// Two numeric columns: the Figure 1 scatter.
	if len(columns) == 2 {
		a, okA := f.Lookup(columns[0])
		b, okB := f.Lookup(columns[1])
		if okA && okB && a.Kind() == frame.Numeric && b.Kind() == frame.Numeric {
			inX, inY, outX, outY := completePairs(a, b, sel)
			return Scatter(columns[0], columns[1], inX, inY, outX, outY, width, height), nil
		}
	}
	// Otherwise stack per-column charts.
	var b strings.Builder
	for _, name := range columns {
		c, ok := f.Lookup(name)
		if !ok {
			return "", fmt.Errorf("plot: unknown column %q", name)
		}
		switch c.Kind() {
		case frame.Numeric:
			in, out, err := f.SplitNumeric(name, sel)
			if err != nil {
				return "", err
			}
			b.WriteString(Histogram(name, in, out, 12, width))
		case frame.Categorical:
			in, out, dict, err := f.SplitCodes(name, sel)
			if err != nil {
				return "", err
			}
			b.WriteString(CategoricalBars(name, in, out, dict, width))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// completePairs extracts pairwise complete cases split by the mask.
func completePairs(a, b *frame.Column, sel *frame.Bitmap) (inX, inY, outX, outY []float64) {
	n := a.Len()
	for i := 0; i < n; i++ {
		if a.IsNull(i) || b.IsNull(i) {
			continue
		}
		if sel.Get(i) {
			inX = append(inX, a.Float(i))
			inY = append(inY, b.Float(i))
		} else {
			outX = append(outX, a.Float(i))
			outY = append(outY, b.Float(i))
		}
	}
	return
}

func fmtNum(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// pad right-pads (or left-pads for numbers at line starts) s to width.
func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}
