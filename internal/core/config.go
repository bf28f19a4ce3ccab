// Package core implements the Ziggy query-characterization engine: given a
// table and a selection over its rows (a query result), it finds the
// characteristic views — small, coherent, mutually disjoint sets of columns
// on which the selected tuples differ most from the rest of the data — and
// explains each view in plain language.
//
// The pipeline follows paper Figure 4:
//
//	Preparation      — split every column into Cᴵ/Cᴼ, compute per-column
//	                   Zig-Components, build the column dependency matrix
//	                   (cached across queries on the same table).
//	View search      — generate tight candidate views by partitioning the
//	                   dependency graph (complete-linkage clustering by
//	                   default, maximal cliques as the alternative), score
//	                   them with the Zig-Dissimilarity, and rank them
//	                   greedily under the disjointness constraint.
//	Post-processing  — test each component's significance, aggregate
//	                   p-values into per-view confidence, and generate the
//	                   textual explanations.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/depend"
	"repro/internal/effect"
	"repro/internal/hypo"
)

// CandidateGen selects the view-search candidate generator.
type CandidateGen int

const (
	// Clustering partitions the dependency graph with hierarchical
	// clustering (the paper's implementation uses complete linkage).
	Clustering CandidateGen = iota
	// Cliques enumerates maximal cliques of the thresholded dependency
	// graph.
	Cliques
)

// String names the generator.
func (g CandidateGen) String() string {
	switch g {
	case Clustering:
		return "clustering"
	case Cliques:
		return "cliques"
	default:
		return fmt.Sprintf("CandidateGen(%d)", int(g))
	}
}

// Config parameterizes the engine. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// MinTight is the tightness threshold MIN_tight of Equation 3: every
	// reported view has minimum pairwise column dependency ≥ MinTight.
	MinTight float64
	// MaxDim is D, the maximum number of columns per view (Equation 1's
	// "at most D columns"). Low values keep views plottable.
	MaxDim int
	// MaxViews caps the number of reported views.
	MaxViews int
	// Weights are the user's Zig-Component preferences.
	Weights effect.Weights
	// Measure is the dependency statistic S of Equation 2.
	Measure depend.Measure
	// Linkage picks the clustering flavor (complete in the paper).
	Linkage cluster.Linkage
	// Generator picks clustering or clique candidate generation.
	Generator CandidateGen
	// Alpha is the significance level for the post-processing stage.
	Alpha float64
	// Aggregation combines per-component p-values into view confidence.
	Aggregation hypo.Aggregation
	// Robust switches the location component from Hedges' g / Welch to
	// Cliff's delta / Mann-Whitney.
	Robust bool
	// RequireSignificant drops views whose aggregated p-value does not
	// clear Alpha ("validating views", paper §3).
	RequireSignificant bool
	// MinRows is the minimum number of usable rows required on each side
	// of the split before a column participates at all.
	MinRows int
	// MaxCliques bounds clique enumeration when Generator == Cliques.
	MaxCliques int
	// Extended enables the extended Zig-Component families from the
	// companion research paper: quantile shifts, tail-weight changes,
	// categorical entropy changes, and mixed categorical-numeric
	// separation changes. Weights for them default to 1 when absent.
	Extended bool
	// Parallelism is the worker count for the engine's parallel stages
	// (column splitting, the pairwise dependency matrix, candidate
	// scoring). Zero means all CPUs (runtime.GOMAXPROCS); 1 runs the
	// sequential path with no goroutines. Results are bit-for-bit
	// identical for every worker count.
	Parallelism int
	// Shards is the number of independent engine shards the serving layer
	// (internal/shard, ziggy.Session, ziggyd -shards) runs behind its
	// router; each loaded table is assigned to one shard by content
	// fingerprint. Zero means all CPUs (runtime.GOMAXPROCS). The engine
	// itself ignores the field — it parameterizes the router — and like
	// Parallelism it never affects report bytes (TestShardedDeterminism),
	// so it is excluded from the report-cache key.
	Shards int
	// CacheEntries bounds each memo tier (prepared structures and full
	// reports) to this many LRU entries. Zero means DefaultCacheEntries;
	// negative is invalid.
	CacheEntries int
	// CacheBytes bounds each memo tier to approximately this many resident
	// bytes. Zero means DefaultCacheBytes; negative is invalid.
	CacheBytes int64
	// ApproxRows is the sample cap the serving layer applies when it
	// answers approximately (Options.ApproxRows on degraded requests,
	// ziggyd -approx-cap). Zero means DefaultApproxRows. Like Parallelism
	// and Shards the engine itself never reads it — callers resolve it via
	// EffectiveApproxRows and pass the concrete cap through Options — so
	// it is excluded from the report-cache key.
	ApproxRows int
	// ApproxUnderPressure makes a saturated shard serve a deterministic
	// sample-based approximate report (flagged Report.Approximate) instead
	// of shedding with ErrSaturated. Serving-layer-only, like Shards.
	ApproxUnderPressure bool
}

// Default memo-tier bounds applied when Config leaves them zero. Each of
// the two tiers gets its own budget.
const (
	DefaultCacheEntries = 128
	DefaultCacheBytes   = 256 << 20 // 256 MiB
)

// DefaultApproxRows is the sample cap applied when approximate serving is
// requested without an explicit cap (Config.ApproxRows == 0).
const DefaultApproxRows = 512

// EffectiveApproxRows resolves the zero-means-default approximate sample
// cap, mirroring EffectiveCacheBounds: the single place that maps 0 to
// DefaultApproxRows for every serving edge (HTTP handler, degraded
// admission).
func (c Config) EffectiveApproxRows() int {
	if c.ApproxRows == 0 {
		return DefaultApproxRows
	}
	return c.ApproxRows
}

// EffectiveCacheBounds resolves the zero-means-default cache bounds: the
// single place (shared by the engine, the report cache, and the shard
// router's per-shard budget split) that maps 0 to DefaultCacheEntries /
// DefaultCacheBytes.
func (c Config) EffectiveCacheBounds() (entries int, bytes int64) {
	entries, bytes = c.CacheEntries, c.CacheBytes
	if entries == 0 {
		entries = DefaultCacheEntries
	}
	if bytes == 0 {
		bytes = DefaultCacheBytes
	}
	return entries, bytes
}

// DefaultConfig returns the configuration used throughout the paper's demo
// scenarios: two-column views, moderate tightness, complete linkage, the
// minimum rule for confidence.
func DefaultConfig() Config {
	return Config{
		MinTight:           0.4,
		MaxDim:             2,
		MaxViews:           8,
		Weights:            effect.DefaultWeights(),
		Measure:            depend.AbsPearson,
		Linkage:            cluster.Complete,
		Generator:          Clustering,
		Alpha:              0.05,
		Aggregation:        hypo.MinP,
		MinRows:            5,
		MaxCliques:         10000,
		RequireSignificant: false,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MinTight < 0 || c.MinTight > 1 {
		return fmt.Errorf("core: MinTight %v outside [0,1]", c.MinTight)
	}
	if c.MaxDim < 1 {
		return fmt.Errorf("core: MaxDim %d < 1", c.MaxDim)
	}
	if c.MaxViews < 1 {
		return fmt.Errorf("core: MaxViews %d < 1", c.MaxViews)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("core: Alpha %v outside (0,1)", c.Alpha)
	}
	if c.MinRows < 2 {
		return fmt.Errorf("core: MinRows %d < 2", c.MinRows)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism %d < 0 (0 means all CPUs)", c.Parallelism)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards %d < 0 (0 means all CPUs)", c.Shards)
	}
	if c.CacheEntries < 0 {
		return fmt.Errorf("core: CacheEntries %d < 0 (0 means the default)", c.CacheEntries)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("core: CacheBytes %d < 0 (0 means the default)", c.CacheBytes)
	}
	if c.ApproxRows < 0 {
		return fmt.Errorf("core: ApproxRows %d < 0 (0 means the default)", c.ApproxRows)
	}
	if err := c.Weights.Validate(); err != nil {
		return err
	}
	return nil
}
