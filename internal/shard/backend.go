package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
)

// Backend is one shard of the serving layer behind the router — the
// transport-agnostic boundary that lets shards live in this process
// (EngineBackend) or behind RPC in another one (internal/remote.Client)
// without the router, the cache keys, or the rendezvous routing changing.
//
// Everything is addressed by content: a remote backend names a table by
// its frame fingerprint and ships it only when its worker does not hold it,
// and reports come back byte-identical no matter which backend computes
// them. A request that no cache in the router's process answers costs one
// Characterize call.
type Backend interface {
	// RegisterTable makes f available to the backend. It is content
	// addressed and idempotent.
	//
	// Deprecated: the router never calls it; a remote backend registers a
	// table inside Characterize when its worker does not hold it. It stays
	// only because the serving benchmark (benchmark/trace.go) overrides it;
	// the benchmark-only change of ROADMAP.md item 7 drops that override,
	// and then this method.
	RegisterTable(f *frame.Frame) error
	// Characterize runs the full pipeline, or serves the backend's report
	// cache; a remote reply sets ReportCacheHit when the worker's cache
	// answered it. Saturated backends shed with a *SaturatedError;
	// unreachable remote backends report ErrBackendUnavailable so the
	// router can fail over.
	Characterize(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error)
	// CachedReport looks the report up in a cache in this process by table
	// fingerprint, with no RPC and no admission — the pre-admission fast
	// path that keeps repeat queries at ~µs even when an in-process backend
	// is saturated. A remote backend holds no such cache and always misses.
	CachedReport(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool)
	// Snapshot returns the backend's traffic counters and cache tiers; the
	// router stamps the shard index and, for an in-process backend, its
	// engine's report tier (Router.Stats counts each cache once).
	Snapshot() ShardSnapshot
	// Engine returns the backend's in-process engine, or nil when the engine
	// lives in another process. The router asks it to tell a backend that
	// probes an engine's cache here from one whose repeats its front tier
	// answers, and to count that engine's report cache in Stats; a wrapper
	// that embeds a Backend forwards it.
	Engine() *core.Engine
	// InvalidateFrame once dropped the cache entries of one content
	// fingerprint when its table was appended to or unregistered.
	//
	// Deprecated: the router never calls it; every cache keys on content
	// fingerprints, so a superseded version's entries are unreachable and
	// age out of their LRU tiers. It stays only because the serving
	// benchmark (benchmark/trace.go) overrides it; the benchmark-only
	// change of ROADMAP.md item 7 drops that override, and then this
	// method.
	InvalidateFrame(fp uint64)
	// Close releases transport resources; in-process backends no-op.
	Close() error
}

// ErrBackendUnavailable is wrapped by backends whose transport failed (a
// worker that is down or unreachable). The router treats it as "try the
// next backend in rendezvous order" rather than a request failure; every
// other error propagates as-is.
var ErrBackendUnavailable = errors.New("shard: backend unavailable")

// SaturatedError is the load-shedding error: the owning backend already has
// its full complement of running plus queued characterizations.
// errors.Is(err, ErrSaturated) identifies the condition; errors.As
// recovers the backoff hint, which ziggyd surfaces as a Retry-After header.
type SaturatedError struct {
	// RetryAfter estimates when a retry will find a free slot: current
	// queue occupancy divided by the backend's observed service rate.
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", ErrSaturated, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap ties the typed error to the ErrSaturated sentinel.
func (e *SaturatedError) Unwrap() error { return ErrSaturated }

// defaultServiceEstimate seeds the service-rate estimate before a backend
// has completed its first characterization — and re-seeds it whenever the
// observed estimate degenerates (see retryAfter).
const defaultServiceEstimate = 500 * time.Millisecond

// retryAfterMin and retryAfterMax clamp the Retry-After hint handed to a
// shed caller. The floor keeps a queue of sub-millisecond cache-adjacent
// characterizations from telling clients to hammer the shard in a busy
// loop; the ceiling keeps a backlog of pathologically slow runs (or a
// corrupted service estimate) from parking clients for minutes.
const (
	retryAfterMin = 25 * time.Millisecond
	retryAfterMax = 30 * time.Second
)

// EngineBackend is the in-process Backend: one core.Engine plus the shard's
// admission queue and traffic counters, behind the same interface as a
// remote worker.
type EngineBackend struct {
	engine      *core.Engine
	concurrency int

	// admit bounds running + waiting requests (capacity concurrency +
	// queue depth); a failed non-blocking send is a shed request. run
	// bounds concurrently executing requests (capacity concurrency).
	admit chan struct{}
	run   chan struct{}

	// Degrade-not-shed (Config.ApproxUnderPressure): a request the
	// admission queue would shed is instead answered approximately on a
	// deterministic sample of ≤ core.DefaultApproxRows rows. approxRun is
	// a separate blocking lane (capacity concurrency) — approximate runs
	// are capped-cheap, so briefly waiting in line beats handing the
	// explorer a 503, and the exact queue's occupancy still drives
	// Retry-After for clients that opt out of degradation.
	approxUnderPressure bool
	approxRun           chan struct{}

	requests atomic.Int64
	rejected atomic.Int64
	// approxServed counts successfully served approximate reports —
	// pressure-degraded and explicitly requested alike.
	approxServed atomic.Int64
	// completed and serviceNanos track executed (non-cached)
	// characterizations and their cumulative wall time; their ratio is the
	// observed service time feeding the Retry-After hint.
	completed    atomic.Int64
	serviceNanos atomic.Int64
}

// NewEngineBackend builds an in-process backend with its own engine sharing
// the given report cache (nil = private) and admission parameters (zero
// values = package defaults). Topologies of several local engines, or of
// local and remote ones, hand these to NewWithBackends. Passing the router
// the same report cache keeps one cache for the engines and the front tier
// instead of two; Router.Stats counts each distinct cache once either way.
func NewEngineBackend(cfg core.Config, reports *core.ReportCache, p Params) (*EngineBackend, error) {
	if p.Concurrency < 0 || p.QueueDepth < 0 {
		return nil, fmt.Errorf("shard: negative admission params %+v", p)
	}
	if p.Concurrency == 0 {
		p.Concurrency = DefaultConcurrency
	}
	if p.QueueDepth == 0 {
		p.QueueDepth = DefaultQueueDepth
	}
	e, err := core.NewShared(cfg, reports)
	if err != nil {
		return nil, err
	}
	return &EngineBackend{
		engine:              e,
		concurrency:         p.Concurrency,
		admit:               make(chan struct{}, p.Concurrency+p.QueueDepth),
		run:                 make(chan struct{}, p.Concurrency),
		approxUnderPressure: cfg.ApproxUnderPressure,
		approxRun:           make(chan struct{}, p.Concurrency),
	}, nil
}

// Engine exposes the backend's engine for cache control and inspection.
func (b *EngineBackend) Engine() *core.Engine { return b.engine }

// RegisterTable is a no-op: an in-process backend reads the frame directly,
// so registration is implicit.
//
// Deprecated: see Backend.RegisterTable.
func (b *EngineBackend) RegisterTable(*frame.Frame) error { return nil }

// Characterize admits the request through the shard's queue and runs the
// engine. When the backend already has Concurrency running plus QueueDepth
// waiting requests it sheds with a *SaturatedError — unless approximation
// under pressure is enabled, in which case the request degrades to a
// flagged deterministic sample-based answer instead.
func (b *EngineBackend) Characterize(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	select {
	case b.admit <- struct{}{}:
	default:
		if b.approxUnderPressure {
			return b.characterizeDegraded(f, sel, opts)
		}
		b.rejected.Add(1)
		return nil, &SaturatedError{RetryAfter: b.retryAfter()}
	}
	defer func() { <-b.admit }()
	b.run <- struct{}{}
	defer func() { <-b.run }()
	b.requests.Add(1)
	start := time.Now()
	rep, err := b.engine.CharacterizeOpts(f, sel, opts)
	if err == nil && !rep.ReportCacheHit {
		// Only executed pipelines feed the service-rate estimate; a ~µs
		// cache hit would make the Retry-After hint wildly optimistic.
		b.completed.Add(1)
		b.serviceNanos.Add(time.Since(start).Nanoseconds())
	}
	if err == nil && rep.Approximate != nil {
		b.approxServed.Add(1)
	}
	return rep, err
}

// characterizeDegraded serves a request the admission queue rejected: the
// existing pipeline on a deterministic stratified sample capped at the
// configured approximate row budget. The send on approxRun blocks rather
// than sheds — a sampled characterization is bounded-cheap and its repeats
// are report-memo hits, so a short wait in the degrade lane always beats a
// 503 — which is what makes sheds structurally zero under pressure. A
// follow-up request at normal admission refines through the exact report's
// own (cold) cache key.
func (b *EngineBackend) characterizeDegraded(f *frame.Frame, sel *frame.Bitmap, opts core.Options) (*core.Report, error) {
	if opts.ApproxRows == 0 {
		opts.ApproxRows = core.DefaultApproxRows
	}
	b.approxRun <- struct{}{}
	defer func() { <-b.approxRun }()
	b.requests.Add(1)
	// Degraded completions deliberately do not feed the service-rate
	// estimate: sampled runs are much faster than exact ones, and mixing
	// them in would make Retry-After hints wildly optimistic for clients
	// that need the exact answer.
	rep, err := b.engine.CharacterizeOpts(f, sel, opts)
	if err == nil {
		b.approxServed.Add(1)
	}
	return rep, err
}

// CachedReport probes the shared report cache by fingerprint; a hit counts
// as a served request, exactly like an admitted one.
func (b *EngineBackend) CachedReport(fp uint64, sel *frame.Bitmap, opts core.Options) (*core.Report, bool) {
	rep, ok := b.engine.CachedReportFingerprint(fp, sel, opts)
	if ok {
		b.requests.Add(1)
		if rep.Approximate != nil {
			b.approxServed.Add(1)
		}
	}
	return rep, ok
}

// retryAfter estimates how long a shed caller should back off: the queue
// occupancy divided by the observed service rate (concurrency slots each
// retiring one characterization per observed mean service time). An idle
// backend hints zero; a busy one hints within [retryAfterMin,
// retryAfterMax]. The observed mean is only trusted when positive — after
// a long idle stretch of timer-resolution-fast runs (or a clock anomaly)
// the cumulative service time can be zero or negative, which would
// otherwise collapse the hint to "retry immediately" exactly when the
// queue is full — and the final clamp bounds the degenerate extremes a
// decayed or corrupted estimate can still produce.
func (b *EngineBackend) retryAfter() time.Duration {
	occupancy := len(b.admit)
	if occupancy == 0 {
		return 0
	}
	avg := float64(defaultServiceEstimate)
	if n := b.completed.Load(); n > 0 {
		if observed := float64(b.serviceNanos.Load()) / float64(n); observed > 0 {
			avg = observed
		}
	}
	d := time.Duration(avg * float64(occupancy) / float64(b.concurrency))
	if d < retryAfterMin {
		return retryAfterMin
	}
	if d > retryAfterMax {
		return retryAfterMax
	}
	return d
}

// Snapshot returns the backend's point-in-time counters and prepared tier;
// Router.Stats adds the report tier. Inflight and Queued are instantaneous
// channel occupancies and may be transiently inconsistent with each other
// under concurrent traffic.
func (b *EngineBackend) Snapshot() ShardSnapshot {
	queued := int64(len(b.admit)) - int64(len(b.run))
	if queued < 0 {
		queued = 0
	}
	completed := b.completed.Load()
	meanService := 0.0
	if completed > 0 {
		meanService = float64(b.serviceNanos.Load()) / float64(completed) / 1e6
	}
	return ShardSnapshot{
		Kind:              KindLocal,
		Healthy:           true,
		Requests:          b.requests.Load(),
		Rejected:          b.rejected.Load(),
		ApproxServed:      b.approxServed.Load(),
		Inflight:          int64(len(b.run)),
		Queued:            queued,
		RetryAfterMillis:  b.retryAfter().Milliseconds(),
		Completed:         completed,
		MeanServiceMillis: meanService,
		Prepared:          b.engine.CacheStats().Prepared,
	}
}

// InvalidateFrame is a no-op.
//
// Deprecated: see Backend.InvalidateFrame.
func (b *EngineBackend) InvalidateFrame(uint64) {}

// Close is a no-op for in-process backends.
func (b *EngineBackend) Close() error { return nil }
