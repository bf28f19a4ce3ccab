// Package experiments regenerates every figure and use case of the paper
// plus extension studies. Each experiment is a function returning a Table
// whose rows are the artifact's content; `zigbench -exp <id>` prints it
// and the repository-root benchmark of the same id times it.
//
// The experiment index, each id with the paper claim it reproduces:
//
//	f1   Figure 1: the high-crime selection's characteristic views —
//	     population and density up with low variance, education and
//	     salary down, rent and ownership down, young and single-parent
//	     households up.
//	f2   Figure 2: every column splits into Cᴵ and Cᴼ with no loss and no
//	     overlap, NULLs in neither.
//	f3   Figure 3: the Zig-Components of population × pop_density —
//	     differences of means, standard deviations and correlations, each
//	     normalized and with its significance.
//	f4   Figure 4: the three pipeline stages; preparation dominates a cold
//	     query and sharing statistics across queries removes most of it.
//	f5   Figure 5: the demo interface, one HTTP round trip.
//	uc1  §4.2 Box Office: what makes top-grossing movies special.
//	uc2  §4.2 US Crime: "seemingly superfluous" columns such as boarded
//	     windows carry predictive power.
//	uc3  §4.2 Countries & Innovation: hypothesis generation at 6,823×519.
//	x1   Scaling in columns at N=2000: preparation grows quadratically in
//	     M (pairwise dependencies), search stays subordinate.
//	x2   Scaling in rows at M=64: every stage is linear in N.
//	x3   Accuracy: Ziggy recovers planted views and rejects decoys, where
//	     black-box and context-free baselines (internal/baseline) do not.
//	x4   MIN_tight sweep: higher thresholds fragment views toward
//	     singletons.
//	x5   Computation sharing (§3 preparation): later queries of a session
//	     reuse the dependency matrix.
//	x6   Linkage ablation: complete linkage alone keeps every member pair
//	     of a view above MIN_tight, which is why the paper picks it.
//	x7   Sampling ablation: recall holds down to a few thousand sampled
//	     rows while warm latency falls with the cap.
//
// The paper's datasets are not redistributable, so f1–f5, uc1–uc3, x4 and
// x5 run on the statistical stand-ins of internal/synth: they reproduce the
// shape of each claim, not the paper's numbers. x1–x3, x6 and x7 run on
// tables with planted ground truth (synth.Planted).
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier from the package index (f1, uc2, x3, ...).
	ID string
	// Title describes the artifact being regenerated.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the formatted cells.
	Rows [][]string
	// Notes carries free-form observations appended after the table.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
