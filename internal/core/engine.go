package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/depend"
	"repro/internal/effect"
	"repro/internal/explain"
	"repro/internal/frame"
	"repro/internal/hypo"
	"repro/internal/memo"
	"repro/internal/par"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Engine characterizes query results. It is safe for concurrent use; the
// dependency structure of each table is computed once and shared across
// queries, and entire reports are memoized by content fingerprint, so a
// repeated identical query is served from cache and concurrent identical
// queries compute once (the computation-sharing strategy of the paper's
// preparation stage, extended to the whole serving hot path).
type Engine struct {
	cfg Config
	// cfgHash keys the report cache on the effective (post-default)
	// configuration.
	cfgHash uint64

	prep *memo.Cache[prepKey, *prepared]
	// prefixes holds the dependency fold state at each prepared table's
	// last full-chunk boundary, so the table an append grows out of it
	// resumes the fold instead of rebuilding its matrix from row 0.
	prefixes *memo.Cache[uint64, *depend.FoldState]
	// reports may be private to this engine (New) or shared with other
	// engines (NewShared) — the shard router shares its report cache with
	// its local backends.
	reports *ReportCache
}

// prepared holds the query-independent preparation products for one table.
type prepared struct {
	dep    *depend.Matrix
	dendro *cluster.Dendrogram
	// ranks holds each numeric column's stats.RankIndex — every row's
	// position in the column's sort order, and its tie groups — built only
	// when the engine ranks (Robust or Extended); nil otherwise, and the
	// zero index for categorical columns. The positions share one int32
	// slab, so a table's indexes cost 4 bytes per numeric cell, NULL rows
	// included, plus 8 per tie group.
	ranks []stats.RankIndex
}

// New validates cfg and builds an engine with a private report cache.
func New(cfg Config) (*Engine, error) {
	return NewShared(cfg, nil)
}

// NewShared validates cfg and builds an engine whose report-level memo is
// the given shared cache; nil builds a private one (equivalent to New).
// Sharing is safe because report keys are pure content fingerprints plus the
// effective config/options hashes — which engine computes a report never
// affects its bytes.
func NewShared(cfg Config, reports *ReportCache) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = effectiveConfig(cfg)
	entries, bytes := cfg.EffectiveCacheBounds()
	if reports == nil {
		reports = NewReportCache(entries, bytes)
	}
	return &Engine{
		cfg:      cfg,
		cfgHash:  hashConfig(cfg),
		prep:     memo.New[prepKey, *prepared](entries, bytes),
		prefixes: memo.New[uint64, *depend.FoldState](entries, bytes),
		reports:  reports,
	}, nil
}

// effectiveConfig applies the defaults an engine runs cfg with: extended
// component families get unit weight unless the user priced them
// explicitly.
func effectiveConfig(cfg Config) Config {
	if cfg.Extended {
		w := cfg.Weights.Clone()
		for _, k := range []effect.Kind{effect.DiffQuantiles, effect.DiffTails, effect.DiffEntropy, effect.DiffSeparation} {
			if _, ok := w[k]; !ok {
				w[k] = 1
			}
		}
		cfg.Weights = w
	}
	return cfg
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// InvalidateCache drops every cache tier: prepared structures, the
// dependency fold's prefix states and memoized reports. Content
// fingerprints make stale entries unreachable on their own when a table is
// reloaded with different data — its key changes and the old entries age
// out of the LRU — so this remains mainly for benchmarks that need a cold
// engine. It is NOT sufficient on its own for a frame mutated in place
// against the immutability convention: the frame's cached fingerprint
// would key fresh results under the stale hash. Such callers must also
// call Frame.InvalidateFingerprint (or, better, build a new Frame instead
// of mutating one).
func (e *Engine) InvalidateCache() {
	e.prep.Purge()
	e.prefixes.Purge()
	e.reports.Purge()
}

// InvalidateFrame drops the cache entries of the single frame with the
// given content fingerprint from both tiers: its prepared structures
// (every measure/linkage) and its memoized reports (every selection,
// config, and options). Other frames' entries survive — this is the
// scoped companion to InvalidateCache that the table lifecycle
// (Session.Unregister, Session.Append) uses so dropping or growing one
// table never evicts another table's warm entries.
//
// The dependency fold's prefix states stay: they are keyed by row content,
// not by table, and an append drops the base's fingerprint right before the
// grown table prepares — exactly when the base's prefix state is needed.
func (e *Engine) InvalidateFrame(fp uint64) {
	e.prep.RemoveIf(func(k prepKey) bool { return k.frame == fp })
	e.reports.InvalidateFrame(fp)
}

// colData carries the per-column, per-query preparation products.
type colData struct {
	idx    int
	name   string
	kind   frame.Kind
	usable bool
	// valid is the column's non-NULL mask (frame.ColumnValidWords).
	valid []uint64
	// warning is the skip reason when the column is unusable; collected
	// into Report.Warnings in column order after the parallel fan-out.
	warning string

	// One-dimensional Zig-Components of this column.
	comps []effect.Component
	// score is the weighted 1D component mass, used to order columns when
	// packing oversized groups into views.
	score float64
}

// Options tunes a single characterization run.
type Options struct {
	// ExcludeColumns are kept out of every view — typically the columns
	// the user's predicate already constrains, which would otherwise
	// dominate the ranking with tautological views ("high-crime cities
	// have high crime").
	ExcludeColumns []string
	// SkipReportCache bypasses the report-level memo for this run: the
	// pipeline always executes (the prepared-cache still applies) and the
	// result is not stored. Benchmarks and tests use it to measure the
	// per-query pipeline rather than a cache lookup.
	SkipReportCache bool
	// ApproxRows, when positive, runs the per-query statistics on a
	// deterministic stratified sample of at most this many rows and flags
	// the result with a Report.Approximate provenance block. The sample is
	// a pure function of (frame fingerprint, selection fingerprint,
	// ApproxSeed, ApproxRows), so approximate reports are byte-identical
	// per configuration across worker counts, shard counts, and serving
	// topologies — and they memoize under their own report-cache key,
	// separate from the exact report.
	ApproxRows int
	// ApproxSeed selects the sampling stream for approximate runs (0 is a
	// valid seed). Ignored unless ApproxRows > 0.
	ApproxSeed uint64
}

// Characterize runs the full pipeline on table f with selection sel (the
// rows matched by the user's query).
func (e *Engine) Characterize(f *frame.Frame, sel *frame.Bitmap) (*Report, error) {
	return e.CharacterizeOpts(f, sel, Options{})
}

// CharacterizeOpts is Characterize with per-run options. Identical requests
// — same table content, same selection, same options — are served from the
// report-level memo: the first computes (concurrent duplicates wait for it
// rather than recomputing) and the rest are lookups, byte-identical to an
// uncached run except for the cache-hit flags and zeroed timings.
func (e *Engine) CharacterizeOpts(f *frame.Frame, sel *frame.Bitmap, opts Options) (*Report, error) {
	if f == nil {
		return nil, fmt.Errorf("core: nil frame")
	}
	if sel == nil {
		return nil, fmt.Errorf("core: nil selection")
	}
	if sel.Len() != f.NumRows() {
		return nil, fmt.Errorf("core: selection covers %d rows, table has %d", sel.Len(), f.NumRows())
	}
	nIn := sel.Count()
	nOut := f.NumRows() - nIn
	if nIn < e.cfg.MinRows || nOut < e.cfg.MinRows {
		return nil, fmt.Errorf("core: selection has %d rows inside and %d outside; need at least %d on each side",
			nIn, nOut, e.cfg.MinRows)
	}
	if opts.ApproxRows < 0 {
		return nil, fmt.Errorf("core: ApproxRows %d < 0", opts.ApproxRows)
	}
	if opts.SkipReportCache {
		return e.characterize(f, sel, opts, nIn)
	}
	key := newReportKey(f.Fingerprint(), sel, e.cfgHash, opts)
	rep, outcome, err := e.reports.c.Do(key, reportSize, func() (*Report, error) {
		rep, err := e.characterize(f, sel, opts, nIn)
		if err == nil {
			e.reports.hold(key, rep)
		}
		return rep, err
	})
	if err != nil {
		return nil, err
	}
	if outcome == memo.Miss {
		return rep, nil
	}
	return cloneCached(rep), nil
}

// cloneCached hands out a cache-served report: a shallow copy so the flags
// and timings of the cached value stay pristine. Views, components,
// warnings and the stored JSON bytes are shared — reports are immutable by
// convention, like frames.
func cloneCached(rep *Report) *Report {
	clone := *rep
	clone.CacheHit = true
	clone.ReportCacheHit = true
	clone.Timings = Timings{}
	return &clone
}

// CachedReportFingerprint returns the memoized report for the table with
// content fingerprint frameFP, sel and opts without running any part of
// the pipeline; ok is false on a miss. A hit counts toward the report
// cache's hit counter exactly as if CharacterizeOpts had served it. It is
// the distribution layer's pre-admission fast path: a router (or a worker
// answering a characterize RPC for a table it does not hold) can ask "is
// this report already cached?" knowing only the fingerprint — before the
// table has been shipped to the process at all — so a repeat query
// crossing the process boundary is answered from the report cache without
// moving the table a second time, and stays ~µs while the owning shard is
// saturated.
func (e *Engine) CachedReportFingerprint(frameFP uint64, sel *frame.Bitmap, opts Options) (*Report, bool) {
	return e.reports.CachedFingerprint(frameFP, sel, e.cfgHash, opts)
}

// characterize runs the full uncached pipeline; nIn is sel.Count(), already
// computed by the caller's validation.
func (e *Engine) characterize(f *frame.Frame, sel *frame.Bitmap, opts Options, nIn int) (*Report, error) {
	rep := &Report{SelectedRows: nIn, TotalRows: f.NumRows()}

	// ---- Stage 1: preparation -------------------------------------------
	t0 := time.Now()
	prep, hit, err := e.prepare(f)
	if err != nil {
		// The clustering rejected the matrix, or a concurrent preparation
		// leader panicked: an error, never an empty report.
		return nil, fmt.Errorf("core: preparing table: %w", err)
	}
	rep.CacheHit = hit
	// BlinkDB-style approximation: cap the rows feeding the per-query
	// statistics. The dependency structure stays exact (it is computed
	// once per table and cached). This is the engine's only sampling path.
	var consider *frame.Bitmap
	if opts.ApproxRows > 0 {
		// The sampling stream mixes both content fingerprints with the
		// caller's seed, so distinct (table, selection) pairs never share a
		// sample, yet the same request is byte-identical wherever it is
		// computed.
		consider = sample.Stratified(sel, opts.ApproxRows, e.cfg.MinRows,
			approxSampleSeed(f.Fingerprint(), sel.Fingerprint(), opts.ApproxSeed, opts.ApproxRows))
	}
	p := newPartition(f.NumRows(), sel, consider)
	if consider != nil {
		// The provenance block is set even when the cap covers every row
		// (the sample is then the whole table): approximate requested ⇒
		// Approximate non-nil, which keeps the flag trustworthy for
		// clients.
		inside, outside := countRows(p.in, nil), countRows(p.out, nil)
		sampled := inside + outside
		inflation := 1.0
		if sampled > 0 && sampled < f.NumRows() {
			inflation = math.Sqrt(float64(f.NumRows()) / float64(sampled))
		}
		rep.Approximate = &Approximate{
			SampleRows:  sampled,
			CapRows:     opts.ApproxRows,
			Seed:        opts.ApproxSeed,
			InsideRows:  inside,
			OutsideRows: outside,
			SEInflation: inflation,
		}
	}
	cols := e.summarizeColumns(f, prep, &p, rep)
	for _, name := range opts.ExcludeColumns {
		if idx := f.ColIndex(name); idx >= 0 {
			cols[idx].usable = false
		} else {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("excluded column %q does not exist", name))
		}
	}
	rep.Timings.Preparation = time.Since(t0)

	// ---- Stage 2: view search -------------------------------------------
	t1 := time.Now()
	candidates := e.generateCandidates(prep, cols)
	scored := e.scoreCandidates(f, &p, cols, prep.dep, candidates)
	chosen := e.rankDisjoint(scored)
	rep.Timings.Search = time.Since(t1)

	// ---- Stage 3: post-processing ---------------------------------------
	t2 := time.Now()
	for i := range chosen {
		v := &chosen[i]
		sort.SliceStable(v.Components, func(a, b int) bool {
			return v.Components[a].Norm > v.Components[b].Norm
		})
		v.Explanation = explain.View(v.Columns, v.Components, e.cfg.Alpha)
	}
	rep.Views = chosen
	rep.Timings.Post = time.Since(t2)
	return rep, nil
}

// workers returns the effective worker count for this engine's parallel
// stages: Config.Parallelism, with 0 meaning all CPUs.
func (e *Engine) workers() int { return par.Workers(e.cfg.Parallelism) }

// ranked reports whether the engine's per-column components read a
// stats.Ranking (robust or extended mode), and so whether its preparation
// indexes the numeric columns' ranks.
func (e *Engine) ranked() bool { return e.cfg.Robust || e.cfg.Extended }

// prepare returns the cached dependency matrix, dendrogram and (when the
// engine ranks) column rank indexes for f, computing them on first use.
// Concurrent first queries on the same table deduplicate: one computes,
// the rest wait and share the result. The error is the clustering's
// rejection of the matrix, or memo.ErrComputePanicked when a deduplicated
// wait ended because the computing leader panicked; errors are not cached.
func (e *Engine) prepare(f *frame.Frame) (*prepared, bool, error) {
	key := prepKey{frame: f.Fingerprint(), measure: e.cfg.Measure, linkage: e.cfg.Linkage, ranked: e.ranked()}
	p, outcome, err := e.prep.Do(key, preparedSize, func() (*prepared, error) {
		dep := e.dependencies(f)
		dendro, err := cluster.Agglomerate(dep.Distances(), f.NumCols(), e.cfg.Linkage)
		if err != nil {
			return nil, err
		}
		p := &prepared{dep: dep, dendro: dendro}
		if e.ranked() {
			p.ranks = e.columnRanks(f)
		}
		return p, nil
	})
	return p, outcome != memo.Miss, err
}

// columnRanks indexes every numeric column of f once — the table's only
// ranking passes — one column per task with a per-worker radix scratch,
// each inverting its sort order into its share of one int32 slab. Each
// query's two-group Ranking then reads these indexes (stats.RankIndex.Rank)
// instead of sorting its in+out concatenation.
func (e *Engine) columnRanks(f *frame.Frame) []stats.RankIndex {
	ranks := make([]stats.RankIndex, f.NumCols())
	numeric, n := f.NumericColumns(), f.NumRows()
	slab := make([]int32, len(numeric)*n)
	workers := e.workers()
	scratch := make([]stats.RankScratch, workers)
	par.For(workers, len(numeric), func(w, k int) {
		i := numeric[k]
		ranks[i].Pos = slab[k*n : (k+1)*n : (k+1)*n]
		ranks[i].Build(&scratch[w], f.Col(i).Floats())
	})
	return ranks
}

// dependencies builds f's dependency matrix. Under AbsPearson the matrix is
// a left fold over 64-row blocks (depend.FoldMatrix): it resumes from the
// fold state of f's longest chunk prefix found in the prefix tier, probing
// from the last full chunk down, and leaves f's own state at its last full
// chunk boundary for the table f grows into next. An append of r rows thus
// folds at most ChunkRows−1+r rows per numeric pair, and feeds as many to
// each categorical × numeric η cell, instead of the whole table; a
// categorical × categorical pair rescans every row. Because the fold is
// layout-free the matrix is bit-identical to a cold build. Other measures
// rebuild in full: Spearman's ranks are global.
func (e *Engine) dependencies(f *frame.Frame) *depend.Matrix {
	if e.cfg.Measure != depend.AbsPearson {
		return depend.NewMatrixParallel(f, e.cfg.Measure, e.workers())
	}
	commits := prefixCommitments(f)
	var from *depend.FoldState
	for j := len(commits) - 1; j >= 0 && from == nil; j-- {
		from, _ = e.prefixes.Get(commits[j])
	}
	dep, kept := depend.FoldMatrix(f, e.workers(), from, len(commits)*f.ChunkRows())
	if kept != nil && kept != from {
		e.prefixes.Do(commits[len(commits)-1], (*depend.FoldState).Size, func() (*depend.FoldState, error) { return kept, nil })
	}
	return dep
}

// approxSampleSeed derives the stratified-sampling seed of an approximate
// run from the request's full identity. Each input passes through the
// splitmix64 finalizer so nearby fingerprints or seeds land on unrelated
// streams; the result is a pure function of its arguments — the root of
// the approximate-path determinism guarantee.
func approxSampleSeed(frameFP, selFP, userSeed uint64, cap int) uint64 {
	h := uint64(0xa99d0c5a5a1ad0c5)
	for _, v := range [4]uint64{frameFP, selFP, userSeed, uint64(cap)} {
		h ^= v
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// summarizeColumns computes each column's 1D components from the
// partition, fanning the columns out across the engine's workers, each
// with its own ranking scratch. Each task writes only cols[i], so the
// result is identical for every worker count; skip warnings are collected
// in column order afterwards.
func (e *Engine) summarizeColumns(f *frame.Frame, prep *prepared, p *partition, rep *Report) []colData {
	cols := make([]colData, f.NumCols())
	workers := e.workers()
	var scratch []stats.RankingScratch
	if prep.ranks != nil {
		scratch = make([]stats.RankingScratch, workers)
	}
	par.For(workers, f.NumCols(), func(w, i int) {
		var ranks *stats.RankIndex
		var s *stats.RankingScratch
		if prep.ranks != nil {
			ranks, s = &prep.ranks[i], &scratch[w]
		}
		cols[i] = e.summarizeColumn(f, i, p, ranks, s)
	})
	for i := range cols {
		if cols[i].warning != "" {
			rep.Warnings = append(rep.Warnings, cols[i].warning)
		}
	}
	return cols
}

// summarizeColumn computes column i's 1D components by walking the
// partition's sides over the column's non-NULL rows. ranks is the column's
// prepared rank index when the engine ranks, and s the worker's ranking
// scratch.
func (e *Engine) summarizeColumn(f *frame.Frame, i int, p *partition, ranks *stats.RankIndex, s *stats.RankingScratch) colData {
	c := f.Col(i)
	cd := colData{idx: i, name: c.Name(), kind: c.Kind(), valid: f.ColumnValidWords(i)}
	nIn, nOut := countRows(p.in, cd.valid), countRows(p.out, cd.valid)
	if nIn < e.cfg.MinRows || nOut < e.cfg.MinRows {
		cd.warning = fmt.Sprintf("column %q skipped: only %d/%d usable rows inside/outside", c.Name(), nIn, nOut)
		return cd
	}
	cd.usable = true
	switch c.Kind() {
	case frame.Numeric:
		xs := c.Floats()
		in, out := summarizePair(xs, p.in, p.out, cd.valid, nIn, nOut)
		// Sort once per table, rank per query: in robust or extended mode
		// one Rank of the column's prepared index, which visits the
		// smaller side's rows, serves Cliff's delta, its Mann-Whitney bound
		// and both medians (robust), and the quantile and tail order
		// statistics (extended). Nothing is sorted here.
		var r stats.Ranking
		if e.ranked() {
			r = ranks.Rank(s, xs, p.in, p.out, nIn, nOut, e.cfg.Extended)
		}
		if e.cfg.Robust {
			cd.comps = append(cd.comps, effect.CliffDeltaRanked(c.Name(), r))
		} else {
			cd.comps = append(cd.comps, effect.Means(c.Name(), in, out))
		}
		cd.comps = append(cd.comps, effect.StdDevs(c.Name(), in, out))
		if e.cfg.Extended {
			cd.comps = append(cd.comps, effect.Quantiles(c.Name(), r))
			cd.comps = append(cd.comps, effect.Tails(c.Name(), r, in, out))
		}
	case frame.Categorical:
		k := c.Cardinality()
		in, out := tally(c.Codes(), p.in, cd.valid, k), tally(c.Codes(), p.out, cd.valid, k)
		cd.comps = append(cd.comps, effect.Frequencies(c.Name(), in, out, c.Dict()))
		if e.cfg.Extended {
			cd.comps = append(cd.comps, effect.Entropy(c.Name(), in, out, c.Dict()))
		}
	}
	cd.score = effect.Score(cd.comps, e.cfg.Weights)
	return cd
}

// generateCandidates produces tight column groups of size ≤ MaxDim.
func (e *Engine) generateCandidates(prep *prepared, cols []colData) [][]int {
	var groups [][]int
	switch e.cfg.Generator {
	case Cliques:
		dep := prep.dep
		n := dep.Len()
		vals := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vals[i*n+j] = dep.At(i, j)
			}
		}
		g := cluster.GraphFromThreshold(vals, n, e.cfg.MinTight)
		groups = g.MaximalCliques(maxCliques)
	default:
		// Complete-linkage height h groups columns with max pairwise
		// distance ≤ h, i.e. min pairwise dependency ≥ 1-h = MinTight.
		groups = prep.dendro.CutAt(1 - e.cfg.MinTight)
	}

	// A candidate's key is its sorted column indexes as uvarints, a
	// prefix-free code, so equal keys mean equal candidates.
	seen := make(map[string]struct{})
	var out [][]int
	var key []byte
	for _, g := range groups {
		for _, cand := range e.packGroup(g, prep.dep, cols) {
			key = key[:0]
			for _, idx := range cand {
				key = binary.AppendUvarint(key, uint64(idx))
			}
			if _, dup := seen[string(key)]; !dup {
				seen[string(key)] = struct{}{}
				out = append(out, cand)
			}
		}
	}
	return out
}

// packGroup splits a candidate group into views of at most MaxDim columns,
// greedily grouping the highest-scoring columns while re-verifying the
// tightness constraint (subset tightness is guaranteed under complete
// linkage but not under single/average linkage or loose clique packing).
func (e *Engine) packGroup(group []int, dep *depend.Matrix, cols []colData) [][]int {
	usable := make([]int, 0, len(group))
	for _, idx := range group {
		if cols[idx].usable {
			usable = append(usable, idx)
		}
	}
	if len(usable) == 0 {
		return nil
	}
	sort.SliceStable(usable, func(a, b int) bool {
		return cols[usable[a]].score > cols[usable[b]].score
	})

	var views [][]int
	taken := make([]bool, len(usable))
	for s := 0; s < len(usable); s++ {
		if taken[s] {
			continue
		}
		view := []int{usable[s]}
		taken[s] = true
		for t := s + 1; t < len(usable) && len(view) < e.cfg.MaxDim; t++ {
			if taken[t] {
				continue
			}
			ok := true
			for _, m := range view {
				if dep.At(m, usable[t]) < e.cfg.MinTight {
					ok = false
					break
				}
			}
			if ok {
				view = append(view, usable[t])
				taken[t] = true
			}
		}
		sort.Ints(view)
		views = append(views, view)
	}
	return views
}

// scoreCandidates materializes Views (without explanations) for candidate
// index groups, fanning the candidates out across the engine's workers.
// Each task writes only views[i], so the scored views are identical for
// every worker count.
func (e *Engine) scoreCandidates(f *frame.Frame, p *partition, cols []colData, dep *depend.Matrix, candidates [][]int) []View {
	views := make([]View, len(candidates))
	par.For(e.workers(), len(candidates), func(_, i int) {
		views[i] = e.scoreCandidate(f, p, cols, dep, candidates[i])
	})
	return views
}

// scoreCandidate scores one candidate column group, computing the pairwise
// components lazily.
func (e *Engine) scoreCandidate(f *frame.Frame, p *partition, cols []colData, dep *depend.Matrix, cand []int) View {
	// Sized for every 1D component plus one per column pair, so the slice
	// never regrows: a kept view's components are cached with its report,
	// and append's doubling would leave up to half of them as slack.
	n := len(cand) * (len(cand) - 1) / 2
	for _, idx := range cand {
		n += len(cols[idx].comps)
	}
	comps := make([]effect.Component, 0, n)
	for _, idx := range cand {
		comps = append(comps, cols[idx].comps...)
	}
	// Two-dimensional components for column pairs inside the view:
	// correlation differences for numeric pairs (Figure 3) and, in
	// extended mode, separation changes for mixed pairs.
	for a := 0; a < len(cand); a++ {
		for b := a + 1; b < len(cand); b++ {
			ca, cb := cols[cand[a]], cols[cand[b]]
			switch {
			case ca.kind == frame.Numeric && cb.kind == frame.Numeric:
				fa, fb := f.Col(ca.idx).Floats(), f.Col(cb.idx).Floats()
				ri, ni, ro, no := correlatePair(fa, fb, p.in, p.out, ca.valid, cb.valid)
				comps = append(comps, effect.Correlations(ca.name, cb.name, ri, ni, ro, no))
			case e.cfg.Extended && ca.kind == frame.Categorical && cb.kind == frame.Numeric:
				comps = append(comps, mixedSeparation(f, p, ca, cb))
			case e.cfg.Extended && ca.kind == frame.Numeric && cb.kind == frame.Categorical:
				comps = append(comps, mixedSeparation(f, p, cb, ca))
			}
		}
	}

	names := make([]string, len(cand))
	for i, idx := range cand {
		names[i] = cols[idx].name
	}
	ps := make([]float64, 0, len(comps))
	for _, c := range comps {
		ps = append(ps, c.Test.P)
	}
	pv := hypo.Combine(ps, e.cfg.Aggregation)
	return View{
		Columns:     names,
		Score:       effect.Score(comps, e.cfg.Weights),
		Tightness:   dep.MinPairwise(cand),
		Components:  comps,
		PValue:      pv,
		Significant: !math.IsNaN(pv) && pv < e.cfg.Alpha,
	}
}

// mixedSeparation computes the extended DiffSeparation component for a
// categorical × numeric pair from each side's η over its complete cases.
func mixedSeparation(f *frame.Frame, p *partition, cat, num colData) effect.Component {
	cc := f.Col(cat.idx)
	codes, xs, k := cc.Codes(), f.Col(num.idx).Floats(), cc.Cardinality()
	return effect.Separation(cat.name, num.name,
		correlationRatio(codes, xs, k, p.in, cat.valid, num.valid),
		correlationRatio(codes, xs, k, p.out, cat.valid, num.valid))
}

// columnsTextLess reports whether fmt.Sprint(a) < fmt.Sprint(b), comparing
// the texts "[a0 a1 …]" of two column lists in buffers on the stack. Byte
// order of the texts is not element-wise order: "[a b]" sorts before "[a]"
// because ' ' < ']'.
func columnsTextLess(a, b []string) bool {
	var x, y [128]byte
	return bytes.Compare(appendColumnsText(x[:0], a), appendColumnsText(y[:0], b)) < 0
}

// appendColumnsText appends fmt.Sprint's text of a column list.
func appendColumnsText(buf []byte, cols []string) []byte {
	buf = append(buf, '[')
	for i, c := range cols {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, c...)
	}
	return append(buf, ']')
}

// rankDisjoint orders candidates by decreasing score and greedily keeps
// those sharing no column with an already-kept view (Equation 4), stopping
// at MaxViews.
func (e *Engine) rankDisjoint(views []View) []View {
	sort.SliceStable(views, func(i, j int) bool {
		if views[i].Score != views[j].Score {
			return views[i].Score > views[j].Score
		}
		// Deterministic tie-break on column names.
		return columnsTextLess(views[i].Columns, views[j].Columns)
	})
	used := make(map[string]bool)
	var out []View
	for _, v := range views {
		if len(out) >= e.cfg.MaxViews {
			break
		}
		if e.cfg.RequireSignificant && !v.Significant {
			continue
		}
		overlap := false
		for _, c := range v.Columns {
			if used[c] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, c := range v.Columns {
			used[c] = true
		}
		out = append(out, v)
	}
	return out
}
