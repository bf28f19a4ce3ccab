package core

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/depend"
	"repro/internal/effect"
	"repro/internal/frame"
	"repro/internal/memo"
)

// This file wires the engine to the content-addressed memoization substrate
// (internal/memo). Two tiers serve the hot path:
//
//   - the prepared-cache keys the query-independent preparation products
//     (dependency matrix + dendrogram, plus the numeric columns' rank
//     indexes on robust or extended engines) by (frame fingerprint, measure,
//     linkage, ranked), replacing the old unbounded pointer-keyed map;
//   - the report-cache memoizes entire characterization reports by (frame
//     fingerprint, selection fingerprint, config hash, options hash), so a
//     repeated identical query is a lookup and concurrent identical queries
//     compute once (singleflight).
//
// Both tiers are LRU-bounded by Config.CacheEntries / CacheBytes. Beside the
// prepared tier sits a third, internal one: the dependency fold's state at
// each prepared table's last full-chunk boundary, keyed by a prefix
// commitment alone (only the Pearson matrix resumes), from which a grown
// table's matrix resumes (see
// Engine.dependencies).

// prepKey addresses one table's preparation products. The measure and
// linkage are part of the key rather than assumed constant so a future
// shared (cross-engine) cache cannot mix configurations, and ranked
// separates a preparation that indexed the numeric columns' ranks (robust
// or extended engines) from one that did not.
type prepKey struct {
	frame   uint64
	measure depend.Measure
	linkage cluster.Linkage
	ranked  bool
}

// prefixCommitments returns one commitment per full chunk of f: commitment
// j hashes the column count, the rows through chunk j, and every column's
// index, name and chunk-j fingerprint — a hash-chain snapshot committing to
// each cell through that chunk. Equal commitments therefore mean equal
// cells through the same row, whatever either frame's chunk capacity.
func prefixCommitments(f *frame.Frame) []uint64 {
	full, cols := f.FullChunks(), f.NumCols()
	if full == 0 {
		return nil
	}
	fps := make([][]uint64, cols)
	for i := range fps {
		fps[i] = f.ChunkFingerprints(i)
	}
	out := make([]uint64, full)
	for j := range out {
		h := memo.NewHasher()
		h.Int(cols)
		h.Int((j + 1) * f.ChunkRows())
		for i, c := range f.Columns() {
			h.Int(i)
			h.String(c.Name())
			h.Uint64(fps[i][j])
		}
		out[j] = h.Sum()
	}
	return out
}

// reportKey addresses one full characterization.
type reportKey struct {
	frame, sel, cfg, opts uint64
}

// newReportKey builds the report key of one request; cfgHash is
// ConfigHash of the configuration that answers it.
func newReportKey(frameFP uint64, sel *frame.Bitmap, cfgHash uint64, opts Options) reportKey {
	return reportKey{frame: frameFP, sel: sel.Fingerprint(), cfg: cfgHash, opts: hashOptions(opts)}
}

// ConfigHash returns the configuration component of the report key: the
// hash an engine built from cfg keys its reports under. A caller that
// reads or fills a ReportCache by fingerprint (CachedFingerprint,
// StoreFingerprint) computes it once and passes it with every request.
func ConfigHash(cfg Config) uint64 { return hashConfig(effectiveConfig(cfg)) }

// hashConfig folds every output-affecting Config field into a key
// component. Parallelism is deliberately excluded: reports are bit-for-bit
// identical for every worker count (TestParallelDeterminism) and for every
// backend topology (TestShardedDeterminism), so a cached report is valid
// regardless of how many workers or engines would have recomputed it — and
// a shared cache serves routers of different topologies interchangeably.
// The serving-layer fields (CacheEntries, CacheBytes, ApproxUnderPressure)
// never shape a report, and the deprecated Shards is at most 1.
func hashConfig(c Config) uint64 {
	h := memo.NewHasher()
	h.Float(c.MinTight)
	h.Int(c.MaxDim)
	h.Int(c.MaxViews)
	kinds := make([]int, 0, len(c.Weights))
	for k := range c.Weights {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	h.Int(len(kinds))
	for _, k := range kinds {
		h.Int(k)
		h.Float(c.Weights[effect.Kind(k)])
	}
	h.Int(int(c.Measure))
	h.Int(int(c.Linkage))
	h.Int(int(c.Generator))
	h.Float(c.Alpha)
	h.Int(int(c.Aggregation))
	h.Bool(c.Robust)
	h.Bool(c.RequireSignificant)
	h.Int(c.MinRows)
	h.Bool(c.Extended)
	return h.Sum()
}

// hashOptions folds the per-run options into a key component. The exclusion
// list is hashed in order because warnings about unknown excluded columns
// are emitted in list order, and cached reports must be byte-identical to
// uncached ones. ApproxRows and ApproxSeed are part of the key — an
// approximate report memoizes separately from the exact one, and from
// approximate reports under any other (cap, seed) — so a degraded answer
// can never masquerade as the full-precision one on a repeat, and the
// follow-up exact request refines through its own (cold) key.
func hashOptions(o Options) uint64 {
	h := memo.NewHasher()
	h.Int(len(o.ExcludeColumns))
	for _, c := range o.ExcludeColumns {
		h.String(c)
	}
	h.Int(o.ApproxRows)
	h.Uint64(o.ApproxSeed)
	return h.Sum()
}

// preparedSize estimates the resident bytes of one prepared entry: the n×n
// dependency matrix, the distance copy and dendrogram nodes (O(n) each),
// the column blocks (a column index each, a slice header per block), and
// the rank indexes: their positions' slab at 4 bytes per numeric cell,
// NULL rows included, and 8 bytes per tie-group slot.
func preparedSize(p *prepared) int64 {
	if p == nil || p.dep == nil {
		return 128
	}
	n := int64(p.dep.Len())
	size := 128 + n*n*8 + n*96 + n*8 + 24*int64(len(p.blocks))
	for _, x := range p.ranks {
		size += 4*int64(len(x.Pos)) + 8*int64(cap(x.Ties))
	}
	return size
}

// reportSize estimates the resident bytes of one cached report by walking
// its views, components and strings. The JSON bytes a hit stores are
// charged to the entry when they are encoded (storedJSON).
func reportSize(r *Report) int64 {
	size := int64(256)
	for i := range r.Views {
		v := &r.Views[i]
		size += 160 + int64(len(v.Explanation))
		for _, c := range v.Columns {
			size += int64(len(c)) + 16
		}
		for _, comp := range v.Components {
			size += 128 + int64(len(comp.Detail))
			for _, c := range comp.Columns {
				size += int64(len(c)) + 16
			}
		}
	}
	for _, w := range r.Warnings {
		size += int64(len(w)) + 16
	}
	return size
}

// ReportCache is the content-addressed report memo: full characterization
// reports keyed by (frame fingerprint, selection fingerprint, config hash,
// options hash). Because every key component is derived from content — never
// from object identity or from which engine computes the value — one
// ReportCache is safe to share across engines: a shard router
// (internal/shard) over several local backends runs one ReportCache behind
// all of them, and sessions sharing one (ziggy.WithSharedCache) serve each
// other's repeat queries. The wrapper keeps the key type private so callers cannot insert
// entries that bypass the engine's hashing discipline.
type ReportCache struct {
	c *memo.Cache[reportKey, *Report]
}

// NewReportCache builds a report cache bounded to entries LRU entries and
// approximately bytes resident bytes. Zero applies the engine defaults
// (DefaultCacheEntries / DefaultCacheBytes); negative bounds are invalid at
// the Config layer and treated as unbounded here.
func NewReportCache(entries int, bytes int64) *ReportCache {
	entries, bytes = Config{CacheEntries: entries, CacheBytes: bytes}.EffectiveCacheBounds()
	return &ReportCache{c: memo.New[reportKey, *Report](entries, bytes)}
}

// Snapshot returns the cache's counters and occupancy.
func (rc *ReportCache) Snapshot() memo.Snapshot { return rc.c.Snapshot() }

// Purge drops every cached report; in-flight computations are unaffected.
func (rc *ReportCache) Purge() { rc.c.Purge() }

// Len returns the number of cached reports.
func (rc *ReportCache) Len() int { return rc.c.Len() }

// CachedFingerprint returns the report cached for the table with content
// fingerprint frameFP, sel, the configuration hashed by cfgHash
// (ConfigHash) and opts, without running anything; ok is false on a miss,
// on a nil selection and under SkipReportCache. A hit counts as a served
// request and comes back flagged as a report-cache hit with zeroed
// timings; a miss counts nothing, because the caller's next tier accounts
// the request.
func (rc *ReportCache) CachedFingerprint(frameFP uint64, sel *frame.Bitmap, cfgHash uint64, opts Options) (*Report, bool) {
	if sel == nil || opts.SkipReportCache {
		return nil, false
	}
	rep, ok := rc.c.Lookup(newReportKey(frameFP, sel, cfgHash, opts))
	if !ok {
		return nil, false
	}
	return cloneCached(rep), true
}

// StoreFingerprint caches a shallow copy of rep under the same key
// CachedFingerprint reads, counting neither a hit nor a miss: rep was
// served, and counted, by the tier it came from. The shard router fills
// its front tier this way from the hits of backends whose caches live in
// another process. A nil selection or SkipReportCache stores nothing.
func (rc *ReportCache) StoreFingerprint(frameFP uint64, sel *frame.Bitmap, cfgHash uint64, opts Options, rep *Report) {
	if sel == nil || opts.SkipReportCache {
		return
	}
	key := newReportKey(frameFP, sel, cfgHash, opts)
	held := *rep
	rc.hold(key, &held)
	rc.c.Put(key, &held, reportSize(&held))
}

// hold attaches to rep, about to enter the cache under key, the holder of
// its stored JSON bytes (WriteReportJSON). The holder stays empty until a
// hit is written, and then charges its bytes to the entry, so evicting the
// report frees them.
func (rc *ReportCache) hold(key reportKey, rep *Report) {
	rep.stored = &storedJSON{cache: rc, key: key}
}

// CacheStats is a point-in-time view of the engine's two memo tiers; the
// server's /api/stats endpoint serializes it directly. Within each tier,
// Hits + Misses equals the number of requests and Misses - Deduped the
// number of computations actually executed.
type CacheStats struct {
	// Prepared covers the query-independent preparation products.
	Prepared memo.Snapshot `json:"prepared"`
	// Reports covers full memoized characterization reports.
	Reports memo.Snapshot `json:"reports"`
}

// CacheStats returns the engine's cache counters and occupancy. When the
// engine shares its report cache (NewShared), the Reports tier reflects the
// shared cache, i.e. traffic from every engine attached to it.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Prepared: e.prep.Snapshot(), Reports: e.reports.Snapshot()}
}

// Reports returns the engine's report cache: its own, or the one it shares
// (NewShared).
func (e *Engine) Reports() *ReportCache { return e.reports }

// AddSnapshots sums two snapshots' counters and occupancy; the shard router
// uses it to aggregate the per-shard prepared tiers into one view.
func AddSnapshots(a, b memo.Snapshot) memo.Snapshot {
	return memo.Snapshot{
		Hits:      a.Hits + b.Hits,
		Misses:    a.Misses + b.Misses,
		Evictions: a.Evictions + b.Evictions,
		Deduped:   a.Deduped + b.Deduped,
		Inflight:  a.Inflight + b.Inflight,
		Entries:   a.Entries + b.Entries,
		Bytes:     a.Bytes + b.Bytes,
	}
}
