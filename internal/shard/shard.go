// Package shard implements the horizontally partitioned serving layer: N
// independent backends — in-process engines, remote workers, or a mix —
// behind one router.
//
// Each loaded table is assigned to exactly one backend by its content
// fingerprint (frame.Frame.Fingerprint) using rendezvous (highest-random-
// weight) hashing, so
//
//   - assignment is a pure function of (fingerprint, backend count): it is
//     stable across restarts and across routers, a reloaded identical table
//     lands on the same shard with its prepared structures already cached,
//     and a front process and its workers agree on ownership without any
//     coordination;
//   - changing the backend count rehashes minimally: growing from N to N+1
//     moves only the keys whose new highest score belongs to the new backend
//     (≈ 1/(N+1) of them), and every moved key moves to the new one.
//
// The router talks to its shards only through the Backend interface
// (backend.go): register a table by content (ships across the process
// boundary at most once), probe the report cache by fingerprint, then
// characterize. EngineBackend is the in-process implementation — an engine
// plus an admission queue that sheds load with ErrSaturated and a
// Retry-After hint instead of head-of-line blocking. internal/remote.Client
// is the HTTP implementation backed by a `ziggyd -worker` process; when a
// remote backend is unreachable the router fails over to the next backend
// in rendezvous order (reports are byte-identical wherever they compute, so
// failover never changes the answer).
//
// A process runs one in-process engine: New builds a router over a single
// EngineBackend that holds the whole cache budget. Several local engines
// are a topology like any other, built with NewEngineBackend and handed to
// NewWithBackends.
//
// The report-level memo is NOT per backend: in-process backends share one
// core.ReportCache keyed by (frame fp, selection fp, config hash, options
// hash), so a repeat query hits in ~µs no matter which shard, engine
// instance, or reloaded copy of the table serves it, and the same cache can
// be shared across routers (ziggy.WithSharedCache). Remote backends extend
// the same probe across the process boundary: the front asks the owning
// worker by fingerprint before shipping anything, so a repeat hits the
// worker's cache without the table crossing the wire again. The report the
// worker answers that probe with then lands in the router's own cache, the
// front tier, under the same key, and every later repeat is answered there
// with no RPC at all. In front mode the router's Stats.Reports snapshot
// therefore counts front-tier hits, and the workers' tiers count the rest.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/memo"
)

// Defaults for the per-shard admission queue.
const (
	// DefaultConcurrency is the number of characterizations one shard
	// executes at once; admitted requests beyond it wait in the queue.
	DefaultConcurrency = 2
	// DefaultQueueDepth is the number of admitted-but-waiting requests one
	// shard holds before the router starts shedding load with ErrSaturated.
	DefaultQueueDepth = 32
)

// Backend kinds reported in ShardSnapshot.Kind.
const (
	// KindLocal marks an in-process EngineBackend.
	KindLocal = "local"
	// KindRemote marks a backend served by a worker process over RPC.
	KindRemote = "remote"
)

// ErrSaturated is returned (wrapped, with the shard index) when a shard's
// admission queue is full: the request is shed immediately instead of
// queueing without bound behind a slow characterization. Callers can retry
// with backoff — errors.As against *SaturatedError recovers the suggested
// Retry-After — and errors.Is(err, ErrSaturated) identifies the condition.
var ErrSaturated = errors.New("shard: admission queue saturated")

// Params tunes the per-shard admission queues. The zero value means the
// package defaults; negative values are invalid.
type Params struct {
	// Concurrency is the number of characterizations one shard runs at once
	// (0 = DefaultConcurrency).
	Concurrency int
	// QueueDepth is the number of admitted requests that may wait for a run
	// slot on one shard (0 = DefaultQueueDepth).
	QueueDepth int
}

// Router fans characterization requests out to its backends by table
// content fingerprint. It is safe for concurrent use.
type Router struct {
	cfg core.Config
	// cfgHash keys the front tier the way the engines key the shared
	// cache (core.ConfigHash).
	cfgHash  uint64
	reports  *core.ReportCache
	backends []Backend
}

// New builds a router over one in-process engine backend and a fresh
// report cache, each bounded by cfg.CacheEntries / cfg.CacheBytes.
func New(cfg core.Config) (*Router, error) {
	return NewWithParams(cfg, nil, Params{})
}

// NewWithParams is New with an externally owned report cache, so several
// routers (e.g. sessions) can serve each other's repeat queries (nil builds
// a private cache), and explicit admission-queue tuning. The engine gets
// the full configured cache budget.
func NewWithParams(cfg core.Config, reports *core.ReportCache, p Params) (*Router, error) {
	if reports == nil {
		reports = core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	b, err := NewEngineBackend(cfg, reports, p)
	if err != nil {
		return nil, err
	}
	return NewWithBackends(cfg, reports, []Backend{b})
}

// NewWithBackends builds a router over explicit backends — remote clients
// (internal/remote.Client), in-process engines (NewEngineBackend), or a mix.
// The backend order is the shard numbering: rendezvous assignment depends
// only on (fingerprint, position), so a front process and its workers stay
// in agreement as long as the list order is stable. reports is the router's
// pre-admission shared cache (nil = a fresh one). In-process backends
// (those whose Engine is non-nil) read their engine's cache themselves;
// build them on this cache (NewEngineBackend) to share it. For every other
// backend, whose report cache lives in another process, it is the front
// tier: a repeat the backend's cache answered once is answered here
// afterwards, with no RPC.
func NewWithBackends(cfg core.Config, reports *core.ReportCache, backends []Backend) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: no backends")
	}
	for i, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("shard: backend %d is nil", i)
		}
	}
	if reports == nil {
		reports = core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	return &Router{cfg: cfg, cfgHash: core.ConfigHash(cfg), reports: reports, backends: backends}, nil
}

// Assign returns the shard a table fingerprint maps to among shards shards,
// by rendezvous hashing: the shard whose mixed (fingerprint, shard) score is
// highest wins. Pure, stable, and minimally disruptive under shard-count
// changes — see the package comment.
func Assign(fp uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	best, bestScore := 0, mixFingerprint(fp, 0)
	for i := 1; i < shards; i++ {
		if s := mixFingerprint(fp, uint64(i)); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Rank returns all shard indices ordered by decreasing rendezvous score for
// the fingerprint: Rank(fp, n)[0] == Assign(fp, n), and the rest is the
// failover order — when the owner is unreachable the router tries the
// runner-up, which is exactly the shard the table would rendezvous to if
// the owner left the topology.
func Rank(fp uint64, shards int) []int {
	if shards <= 0 {
		return nil
	}
	order := make([]int, shards)
	scores := make([]uint64, shards)
	for i := range order {
		order[i] = i
		scores[i] = mixFingerprint(fp, uint64(i))
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	return order
}

// mixFingerprint combines a table fingerprint and a shard index into one
// well-distributed 64-bit score (a splitmix64 finalizer over their blend).
func mixFingerprint(fp, shard uint64) uint64 {
	x := fp ^ (shard+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ShardFor returns the index of the shard serving the given table
// fingerprint.
func (r *Router) ShardFor(fp uint64) int { return Assign(fp, len(r.backends)) }

// NumShards returns the number of backends behind the router.
func (r *Router) NumShards() int { return len(r.backends) }

// Config returns the configuration the router was built with.
func (r *Router) Config() core.Config { return r.cfg }

// Engine returns shard i's engine when the backend is in-process, nil when
// it lives behind RPC — remote engines are not reachable as objects.
func (r *Router) Engine(i int) *core.Engine { return r.backends[i].Engine() }

// Characterize routes the request to the backend owning f and runs the full
// pipeline there (or serves it from a report cache).
func (r *Router) Characterize(f *frame.Frame, sel *frame.Bitmap) (*core.Report, error) {
	return r.CharacterizeOpts(f, sel, core.Options{})
}

// CharacterizeOpts is Characterize with per-run options. The owning backend
// is probed for a cached report first — a ~µs lookup that never touches the
// admission queue, so cached traffic cannot be shed, stuck behind slow
// characterizations, or force a table to re-ship. When the owner is remote
// the router's front tier answers a repeat it has seen hit before, and only
// a front-tier miss costs the probe RPC. A miss registers the table
// (content-addressed: at most one shipment per backend) and characterizes,
// shedding with ErrSaturated when the owner already has Concurrency running
// plus QueueDepth waiting requests. If the owner is unreachable (a worker
// that is down), the request fails over along the rendezvous ranking;
// reports are byte-identical wherever they compute, so failover changes
// latency, never bytes.
func (r *Router) CharacterizeOpts(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	if f == nil {
		// The engine validates too, but routing needs the fingerprint first.
		return nil, fmt.Errorf("shard: nil frame")
	}
	fp := f.Fingerprint()
	// The owner serves the request on the zero-allocation fast path; the
	// full rendezvous ranking is only materialized when the owner is
	// unreachable (never in all-local topologies).
	rep, err := r.serveOn(Assign(fp, len(r.backends)), f, fp, sel, opts)
	if err == nil || !errors.Is(err, ErrBackendUnavailable) {
		return rep, err
	}
	firstErr := err
	for _, i := range Rank(fp, len(r.backends))[1:] {
		rep, err := r.serveOn(i, f, fp, sel, opts)
		if err == nil {
			return rep, nil
		}
		if !errors.Is(err, ErrBackendUnavailable) {
			return nil, err
		}
	}
	return nil, firstErr
}

// serveOn runs the probe → register → characterize sequence on one backend.
func (r *Router) serveOn(i int, f *frame.Frame, fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	b := r.backends[i]
	if rep, ok := r.cached(b, fp, sel, opts); ok {
		return rep, nil
	}
	if err := b.RegisterTable(f); err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	rep, err := b.Characterize(f, sel, opts)
	if err != nil {
		// Transport and admission conditions carry the shard index; the
		// engine's own validation errors pass through unchanged (they are
		// part of the serving wire format).
		if errors.Is(err, ErrSaturated) || errors.Is(err, ErrBackendUnavailable) {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		return nil, err
	}
	return rep, nil
}

// cached probes backend b's report cache. An in-process backend (non-nil
// Engine, also through a wrapper that embeds it) probes its engine's cache,
// the router's own when they share it, so its probe is the whole lookup.
// Any other backend keeps its cache in another process: the router's cache
// is its front tier, read first and filled only from the backend's hits.
// Characterize results never enter it, so a query asked once costs no
// front memory, and a report degraded under pressure (which the backend
// memoizes under its own approximate key) never lands under an exact one.
// A front-tier miss counts nothing and the stored hit was counted by the
// backend, so each request is counted once across the tiers.
func (r *Router) cached(b Backend, fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	if b.Engine() != nil {
		return b.CachedReport(fp, sel, opts)
	}
	if rep, ok := r.reports.CachedFingerprint(fp, sel, r.cfgHash, opts); ok {
		return rep, true
	}
	rep, ok := b.CachedReport(fp, sel, opts)
	if ok {
		r.reports.StoreFingerprint(fp, sel, r.cfgHash, opts, rep)
	}
	return rep, ok
}

// CachedReportFingerprint probes the owning backend's report cache (through
// the front tier when it is remote) without running anything; it is the
// surface a worker exposes over RPC so repeat queries can be answered
// before their table was ever shipped.
func (r *Router) CachedReportFingerprint(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	return r.cached(r.backends[Assign(fp, len(r.backends))], fp, sel, opts)
}

// InvalidateFrame drops the cache entries of the single frame with the
// given content fingerprint: its reports in the shared cache and its
// prepared structures on every local backend. The table lifecycle calls
// this on unregister and append so one table's turnover never costs other
// tables their warm entries. Remote backends forward the call to their
// worker (remote.Client posts it to /api/worker/invalidate), which drops
// the fingerprint's derived reports and prepared structures but keeps the
// stored table as the delta base for the successor version.
func (r *Router) InvalidateFrame(fp uint64) {
	for _, b := range r.backends {
		b.InvalidateFrame(fp)
	}
	r.reports.InvalidateFrame(fp)
}

// Close releases the backends' transport resources (idle RPC connections);
// in-process backends are unaffected.
func (r *Router) Close() error {
	var first error
	for _, b := range r.backends {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardSnapshot is one backend's point-in-time traffic counters and cache
// tiers.
type ShardSnapshot struct {
	// Shard is the shard index the snapshot describes.
	Shard int `json:"shard"`
	// Kind is KindLocal or KindRemote; Addr is the worker address of a
	// remote backend.
	Kind string `json:"kind"`
	Addr string `json:"addr,omitempty"`
	// Healthy reports reachability: always true for in-process backends,
	// the last transport outcome for remote ones.
	Healthy bool `json:"healthy"`
	// Requests counts served characterizations: admitted ones plus repeat
	// queries answered by the pre-admission cache probe. A remote entry
	// carries the worker's counts, so repeats the router's front tier
	// answered are not among them.
	Requests int64 `json:"requests"`
	// Rejected counts requests shed with ErrSaturated.
	Rejected int64 `json:"rejected"`
	// ApproxServed counts successfully served approximate reports —
	// requests degraded under pressure (Config.ApproxUnderPressure) and
	// explicitly requested sample-based answers alike.
	ApproxServed int64 `json:"approxServed"`
	// Inflight is the number of characterizations executing right now;
	// Queued the number admitted but waiting for a run slot.
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	// RetryAfterMillis is the current backoff hint — queue occupancy over
	// observed service rate — that saturated requests carry in their
	// SaturatedError (and ziggyd in its Retry-After header). Zero when
	// idle.
	RetryAfterMillis int64 `json:"retryAfterMillis"`
	// Completed counts executed (non-cached) characterizations, and
	// MeanServiceMillis their observed mean wall time — the service-rate
	// estimate behind RetryAfterMillis, surfaced so callers can tell what
	// the shard actually executed from what it served from memo.
	Completed         int64   `json:"completed"`
	MeanServiceMillis float64 `json:"meanServiceMillis,omitempty"`
	// TablesShipped counts table payloads actually sent to a remote worker
	// (re-registrations that matched by fingerprint are not shipments).
	// Always zero for local backends.
	TablesShipped int64 `json:"tablesShipped,omitempty"`
	// ChunksShipped and BytesShipped meter the chunk-granular transport:
	// how many chunk frames, and how many registration wire bytes (manifests
	// plus chunk streams), this backend actually sent. An append to a
	// registered table moves these by the delta, not the table size. Always
	// zero for local backends.
	ChunksShipped int64 `json:"chunksShipped,omitempty"`
	BytesShipped  int64 `json:"bytesShipped,omitempty"`
	// Prepared is the backend's prepared-structure memo tier.
	Prepared memo.Snapshot `json:"prepared"`
	// Reports is a remote worker's own shared report tier, or a local
	// backend's private one. Local backends built on a shared cache leave
	// it zero — the router reports its cache once as Stats.Reports.
	Reports memo.Snapshot `json:"reports"`
}

// Stats is the aggregated snapshot of a sharded serving layer: one entry per
// backend plus the router's shared report cache. It is the ShardStats shape
// surfaced through /api/stats, ziggy.Session.ShardStats and zigsh \stats.
type Stats struct {
	Shards []ShardSnapshot `json:"shards"`
	// Reports is the router's shared report cache; its counters cover every
	// in-process backend built on it (and every router sharing the cache)
	// and, for remote backends, the front tier's hits. Remote workers' own
	// report tiers, and local backends' private ones, appear on their shard
	// entries.
	Reports memo.Snapshot `json:"reports"`
}

// Stats returns a point-in-time snapshot of every backend and the shared
// report cache. Inflight/Queued are instantaneous occupancies and may be
// transiently inconsistent with each other under concurrent traffic; remote
// entries reflect the worker's last reachable state. Backend snapshots are
// gathered concurrently, so a topology of unreachable workers costs one
// probe timeout, not one per worker.
func (r *Router) Stats() Stats {
	s := Stats{Shards: make([]ShardSnapshot, len(r.backends)), Reports: r.reports.Snapshot()}
	var wg sync.WaitGroup
	for i, b := range r.backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			snap := b.Snapshot()
			snap.Shard = i
			s.Shards[i] = snap
		}(i, b)
	}
	wg.Wait()
	return s
}

// Totals folds the snapshot into the two-tier core.CacheStats shape: the
// per-backend prepared tiers summed, plus the report tier — the router's
// shared cache and any backend's own report tier combined. It keeps
// Session.CacheStats and the /api/stats prepared/reports fields meaningful
// under sharding, local or distributed.
func (s Stats) Totals() core.CacheStats {
	var prep memo.Snapshot
	reports := s.Reports
	for _, sh := range s.Shards {
		prep = core.AddSnapshots(prep, sh.Prepared)
		reports = core.AddSnapshots(reports, sh.Reports)
	}
	return core.CacheStats{Prepared: prep, Reports: reports}
}
