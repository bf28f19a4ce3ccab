package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/effect"
)

// View is one characteristic view: a small set of columns on which the
// selection's distribution diverges from the rest of the data.
type View struct {
	// Columns names the view's columns in frame order.
	Columns []string
	// Score is the Zig-Dissimilarity (Equation 1 with the composite
	// measure of §2.2). Views are reported in decreasing score order.
	Score float64
	// Tightness is the minimum pairwise dependency of the view's columns
	// (Equation 2); always ≥ the configured MinTight.
	Tightness float64
	// Components lists the Zig-Components backing the score, strongest
	// first.
	Components []effect.Component
	// PValue is the aggregated confidence of the view under the configured
	// aggregation scheme; NaN when no component was testable.
	PValue float64
	// Significant reports whether PValue clears the configured Alpha.
	Significant bool
	// Explanation is the generated natural-language description.
	Explanation string
}

// String renders a one-line summary.
func (v View) String() string {
	return fmt.Sprintf("View{%s score=%.3f tight=%.2f p=%.3g}",
		strings.Join(v.Columns, ", "), v.Score, v.Tightness, v.PValue)
}

// Timings reports per-stage wall time of one characterization run
// (paper Figure 4's three stages).
type Timings struct {
	Preparation time.Duration
	Search      time.Duration
	Post        time.Duration
}

// Total sums the stages.
func (t Timings) Total() time.Duration { return t.Preparation + t.Search + t.Post }

// Approximate is the provenance block of a sample-based approximate
// report (Options.ApproxRows > 0): exactly which deterministic subset the
// pipeline ran on, and how much statistical resolution that cost. It is a
// pure function of (frame fingerprint, selection fingerprint, seed, cap),
// so two approximate reports with the same provenance are byte-identical
// no matter which shard, worker count, or topology served them.
type Approximate struct {
	// SampleRows is the number of rows the pipeline actually consumed
	// (InsideRows + OutsideRows). It equals min(CapRows, selection size)
	// up to the per-side MinRows floors.
	SampleRows int `json:"sampleRows"`
	// CapRows is the requested sample cap (Options.ApproxRows).
	CapRows int `json:"capRows"`
	// Seed is the caller-chosen sampling seed (Options.ApproxSeed); the
	// effective stratified-sampling seed also mixes in both content
	// fingerprints, so distinct (frame, selection) pairs never share a
	// sample stream.
	Seed uint64 `json:"seed"`
	// InsideRows and OutsideRows are the per-stratum sample sizes: how
	// many selected and non-selected rows survived the proportional cut.
	InsideRows  int `json:"insideRows"`
	OutsideRows int `json:"outsideRows"`
	// SEInflation estimates how much wider the standard errors behind the
	// per-component hypothesis tests are versus the exact report:
	// sqrt(TotalRows / SampleRows), ≥ 1, 1 when nothing was cut. The
	// tests themselves already run on the sample (their p-values reflect
	// the reduced power); this annotation quantifies the resolution loss
	// for display.
	SEInflation float64 `json:"seInflation"`
}

// Report is the full outcome of Engine.Characterize. Reports are immutable
// once returned: a cached report's views, warnings and approximate block
// are shared by every hit, and so are the JSON bytes its first hit stores
// (WriteReportJSON).
type Report struct {
	// Views lists the characteristic views, best first, mutually disjoint
	// (Equation 4).
	Views []View
	// SelectedRows and TotalRows describe the split sizes.
	SelectedRows, TotalRows int
	// Approximate is non-nil exactly when the report was computed on a
	// deterministic sample (Options.ApproxRows > 0) — the flag an
	// explorer checks before trusting effect magnitudes, and the block
	// the serving layer sets when it degrades instead of shedding. Its
	// SampleRows is the number of rows the per-query statistics consumed.
	Approximate *Approximate
	// Timings carries the stage breakdown.
	Timings Timings
	// Warnings lists non-fatal issues (skipped columns, tiny selections).
	Warnings []string
	// CacheHit reports whether the preparation-stage dependency structure
	// was reused from a previous (or concurrent) query on the same table.
	CacheHit bool
	// ReportCacheHit reports whether this entire report was served from
	// the report-level memo — a lookup, or a wait on a concurrent
	// identical computation — instead of running the pipeline. Such
	// reports are byte-identical to a fresh run except for the cache
	// flags and zeroed Timings.
	ReportCacheHit bool

	// stored holds the encoded tail of the report's JSON document once a
	// hit has written it (WriteReportJSON). The report cache attaches it
	// when the report enters, and the copies the cache serves share it.
	stored *storedJSON
}
