// Package ziggy is the public API of the Ziggy reproduction: a library that
// characterizes query results for data explorers.
//
// Given a table and a selection query, Ziggy finds characteristic views —
// small, coherent sets of columns on which the selected tuples differ most
// from the rest of the data — scores them with an explainable composite of
// effect sizes (the Zig-Dissimilarity), verifies them with asymptotic
// hypothesis tests, and describes each view in plain language.
//
// The package follows the paper's architecture: an embedded columnar store
// with a SQL subset plays MonetDB's role, the engine implements the
// three-stage pipeline (preparation, view search, post-processing), and the
// companion cmd/ziggyd binary serves the interactive demo UI.
//
// Quick start:
//
//	session, err := ziggy.New(ziggy.DefaultConfig())
//	...
//	session.Register(ziggy.USCrimeData(42))
//	report, err := session.Characterize(
//	    "SELECT * FROM uscrime WHERE crime_violent_rate >= 1300")
//	for _, view := range report.Views {
//	    fmt.Println(view.Columns, view.Score, view.Explanation)
//	}
package ziggy

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/csvio"
	"repro/internal/db"
	"repro/internal/effect"
	"repro/internal/frame"
	"repro/internal/memo"
	"repro/internal/plot"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/synth"
)

// Re-exported engine types. The aliases keep the public surface in one
// import while the implementation lives in internal packages.
type (
	// Config parameterizes the engine; see DefaultConfig.
	Config = core.Config
	// Engine is the characterization pipeline.
	Engine = core.Engine
	// Options tunes one characterization run.
	Options = core.Options
	// Report is the outcome of a characterization.
	Report = core.Report
	// View is one characteristic view.
	View = core.View
	// Timings is the per-stage wall-time breakdown.
	Timings = core.Timings
	// Approximate is the provenance block of a sample-based approximate
	// report (Options.ApproxRows > 0, or a shard that degraded under
	// pressure instead of shedding): which deterministic sample the pipeline
	// ran on and the resulting standard-error inflation. Report.Approximate
	// is non-nil exactly on approximate reports.
	Approximate = core.Approximate

	// Frame is an immutable column-oriented table.
	Frame = frame.Frame
	// Column is one named, typed column of a Frame.
	Column = frame.Column
	// Bitmap is a row-selection vector over a Frame.
	Bitmap = frame.Bitmap

	// CacheStats reports the counters of the engine's two memo tiers
	// (prepared structures and full reports); see Session.CacheStats.
	CacheStats = core.CacheStats
	// CacheSnapshot is one memo tier's counters: hits, misses, evictions,
	// singleflight-deduplicated requests, and current occupancy. Within a
	// tier, Hits + Misses equals the number of requests.
	CacheSnapshot = memo.Snapshot

	// ReportCache is the shared content-addressed report memo. One cache
	// serves every in-process backend of a session's router, and
	// WithSharedCache attaches several sessions to the same cache so they
	// serve each other's repeat queries.
	ReportCache = core.ReportCache
	// Router is the serving layer: one or more backends behind a
	// consistent-hash router with per-backend admission queues.
	Router = shard.Router
	// Backend is one shard behind the router: an in-process engine or a
	// remote worker process — the transport-agnostic boundary the router
	// fans out over. See WithPeers and WithBackends.
	Backend = shard.Backend
	// ShardStats is the aggregated snapshot of a sharded serving layer:
	// per-shard traffic and prepared-cache counters plus the shared report
	// cache; see Session.ShardStats.
	ShardStats = shard.Stats
	// ShardSnapshot is one shard's entry in ShardStats.
	ShardSnapshot = shard.ShardSnapshot
	// SaturatedError is the typed load-shedding error; errors.As recovers
	// it from a characterization error to read the RetryAfter backoff hint.
	SaturatedError = shard.SaturatedError
)

// DefaultApproxRows is the sample cap the serving layer uses for an
// approximate answer that names no cap of its own.
const DefaultApproxRows = core.DefaultApproxRows

// ErrSaturated identifies requests shed because the owning shard's admission
// queue was full; test with errors.Is.
var ErrSaturated = shard.ErrSaturated

// ErrBackendUnavailable identifies requests that failed because every
// candidate worker was unreachable (only possible with remote backends);
// test with errors.Is.
var ErrBackendUnavailable = shard.ErrBackendUnavailable

// NewReportCache builds a report cache bounded to entries LRU entries and
// approximately bytes resident bytes (0 = the engine defaults) for use with
// WithSharedCache.
func NewReportCache(entries int, bytes int64) *ReportCache {
	return core.NewReportCache(entries, bytes)
}

// Component is one Zig-Component: a verifiable indicator of how the
// selection differs from the rest of the data on specific columns.
type Component = effect.Component

// ComponentKind identifies a Zig-Component family.
type ComponentKind = effect.Kind

// Weights maps component kinds to user preferences for the
// Zig-Dissimilarity (paper §2.2).
type Weights = effect.Weights

// Zig-Component families for use in Weights.
const (
	// DiffMeans is the standardized difference between means (Hedges' g).
	DiffMeans = effect.DiffMeans
	// DiffStdDevs is the log ratio between standard deviations.
	DiffStdDevs = effect.DiffStdDevs
	// DiffCorrelations is the Fisher-z difference between the correlation
	// coefficients of a column pair.
	DiffCorrelations = effect.DiffCorrelations
	// DiffFrequencies is the total variation distance between categorical
	// frequency vectors.
	DiffFrequencies = effect.DiffFrequencies
	// DiffLocationsRobust is Cliff's delta, the rank-based location shift.
	DiffLocationsRobust = effect.DiffLocationsRobust
)

// DefaultWeights weighs every component family equally.
func DefaultWeights() Weights { return effect.DefaultWeights() }

// CandidateGen selects the view-search candidate generator.
type CandidateGen = core.CandidateGen

// Candidate generators for Config.Generator.
const (
	// Clustering partitions the dependency graph with hierarchical
	// clustering (the paper's choice).
	Clustering = core.Clustering
	// Cliques enumerates maximal cliques of the thresholded dependency
	// graph.
	Cliques = core.Cliques
)

// DefaultConfig returns the engine configuration used in the paper's demo
// scenarios.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewEngine builds a standalone engine for callers that manage their own
// frames and selections.
func NewEngine(cfg Config) (*Engine, error) { return core.New(cfg) }

// CSVOptions configures CSV loading.
type CSVOptions struct {
	// Comma is the field delimiter; ',' when zero.
	Comma rune
	// MaxInferRows bounds how many data rows the type-inference pass
	// examines. For LoadCSVOpts, 0 means all rows; for OpenCSV — which
	// buffers only the inference window — 0 means csvio's DefaultInferRows
	// (4096).
	MaxInferRows int
	// ForceCategorical lists column names that must be categorical even if
	// all their values parse as numbers (e.g. zip codes).
	ForceCategorical []string
	// ChunkRows is the chunk capacity of the loaded frame, rounded up to a
	// multiple of 64; 0 means the default capacity (4096 rows).
	ChunkRows int
}

func (o CSVOptions) internal() csvio.Options {
	return csvio.Options{
		Comma:            o.Comma,
		MaxInferRows:     o.MaxInferRows,
		ForceCategorical: o.ForceCategorical,
		ChunkRows:        o.ChunkRows,
	}
}

// LoadCSV reads a CSV file with a header row into a Frame, inferring
// numeric vs categorical column types.
func LoadCSV(path string) (*Frame, error) {
	return csvio.ReadFile(path, csvio.Options{})
}

// LoadCSVOpts is LoadCSV with options. It buffers the whole file, so the
// inference pass may examine every row; use OpenCSV for bounded-memory
// loading.
func LoadCSVOpts(path string, opts CSVOptions) (*Frame, error) {
	return csvio.ReadFile(path, opts.internal())
}

// OpenCSV streams a CSV file into a Frame: only the type-inference window
// (opts.MaxInferRows rows) is buffered, and the rest of the file is parsed
// record by record. The frame seals its chunks on first use, like any
// other, and grows incrementally under Session.Append.
func OpenCSV(path string, opts CSVOptions) (*Frame, error) {
	return csvio.ReadFileStream(path, opts.internal())
}

// WriteCSV writes a Frame to a CSV file.
func WriteCSV(path string, f *Frame) error {
	return csvio.WriteFile(path, f)
}

// USCrimeData generates the synthetic twin of the UCI Communities & Crime
// dataset (1994 rows × 128 columns) used by the paper's running example.
func USCrimeData(seed uint64) *Frame { return synth.USCrime(seed) }

// BoxOfficeData generates the synthetic twin of the Hollywood Box Office
// dataset (900 rows × 12 columns).
func BoxOfficeData(seed uint64) *Frame { return synth.BoxOffice(seed) }

// InnovationData generates the synthetic twin of the OECD Countries &
// Innovation dataset (6,823 rows × 519 columns).
func InnovationData(seed uint64) *Frame { return synth.Innovation(seed) }

// Quantile returns the q-th quantile of a numeric column; handy for
// building threshold queries ("above the 90th percentile").
func Quantile(f *Frame, column string, q float64) (float64, error) {
	return synth.QuantileOf(f, column, q)
}

// PlotView renders a characteristic view as text: an ASCII scatter for two
// numeric columns ('+' selection, '·' rest, as in paper Figure 1),
// histograms or frequency bars otherwise.
func PlotView(f *Frame, sel *Bitmap, columns []string, width, height int) (string, error) {
	return plot.View(f, sel, columns, width, height)
}

// Session couples the embedded SQL layer with a characterization serving
// layer: the "tuple description engine distributed as a library" the
// paper's conclusion announces. By default one in-process engine serves it;
// WithPeers and WithBackends spread its tables over several backends behind
// a consistent-hash router.
type Session struct {
	// mu serializes the catalog's writers, so Append's read-grow-register
	// cannot interleave with another Append or Unregister of the same table.
	mu      sync.Mutex
	catalog *db.Catalog
	router  *shard.Router
}

// Option configures New. Options compose: WithPeers and WithBackends
// accumulate backends in call order, WithSharedCache attaches an external
// report cache to whichever topology results.
type Option func(*sessionConfig)

type sessionConfig struct {
	reports  *ReportCache
	backends []Backend
}

// WithSharedCache attaches an externally owned report cache. Sessions
// attached to the same cache serve each other's repeat queries — an
// identical query answered by any of them becomes a ~µs lookup for all, and
// concurrent identical queries across them compute exactly once. nil is the
// default (a private cache).
func WithSharedCache(reports *ReportCache) Option {
	return func(sc *sessionConfig) { sc.reports = reports }
}

// WithPeers adds one remote worker backend (`ziggyd -worker`) per address,
// routed by the same rendezvous hash over table content fingerprints the
// in-process router uses. Tables ship to their owning worker once
// (content-addressed), a repeat query is served from the worker's report
// cache without re-shipping and from then on from the session's own report
// cache without an RPC, and unreachable workers fail over along the
// rendezvous ranking.
func WithPeers(addrs ...string) Option {
	return func(sc *sessionConfig) {
		for _, addr := range addrs {
			sc.backends = append(sc.backends, remote.NewClient(addr))
		}
	}
}

// WithBackends adds explicit backends — remote workers (NewWorkerBackend),
// in-process engines (NewEngineBackend), or a mix.
func WithBackends(backends ...Backend) Option {
	return func(sc *sessionConfig) { sc.backends = append(sc.backends, backends...) }
}

// New validates cfg and creates an empty session. With no options it runs
// one in-process engine with a private report cache, both on the full
// configured cache budget; WithPeers / WithBackends replace it with an
// explicit topology, and WithSharedCache swaps in an externally owned
// report cache.
func New(cfg Config, opts ...Option) (*Session, error) {
	var sc sessionConfig
	for _, opt := range opts {
		opt(&sc)
	}
	var (
		r   *shard.Router
		err error
	)
	if len(sc.backends) > 0 {
		r, err = shard.NewWithBackends(cfg, sc.reports, sc.backends)
	} else {
		r, err = shard.NewWithParams(cfg, sc.reports, shard.Params{})
	}
	if err != nil {
		return nil, err
	}
	return &Session{catalog: db.NewCatalog(), router: r}, nil
}

// NewWorkerBackend returns a Backend that fronts the worker process at addr
// ("host:port" or an http:// URL), for WithBackends topologies.
func NewWorkerBackend(addr string) Backend { return remote.NewClient(addr) }

// NewEngineBackend returns an in-process Backend sharing the given report
// cache (nil = private), for WithBackends topologies of several local
// engines or of local and remote ones. Pass the same cache to
// WithSharedCache so the session counts the engines' repeats once.
func NewEngineBackend(cfg Config, reports *ReportCache) (Backend, error) {
	return shard.NewEngineBackend(cfg, reports, shard.Params{})
}

// Register adds a table to the session under the frame's name.
func (s *Session) Register(f *Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catalog.Register(f)
}

// RegisterCSV loads a CSV file and registers it; the table is named after
// the file's base name.
func (s *Session) RegisterCSV(path string) (*Frame, error) {
	f, err := LoadCSV(path)
	if err != nil {
		return nil, err
	}
	if err := s.Register(f); err != nil {
		return nil, err
	}
	return f, nil
}

// Append grows the named table with rows' rows. The schemas must match
// exactly (column count, names, kinds, and order) or the append is rejected
// loudly; an empty rows frame is a no-op. The grown table replaces the old
// one under the same name, cached reports keyed to the old content are
// dropped (other tables' entries are untouched), and — because the chunked
// representation reuses the old table's sealed chunks — the next
// characterization rescans only the rows past the last full chunk boundary.
func (s *Session) Append(table string, rows *Frame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	base, ok := s.catalog.Table(table)
	if !ok {
		return fmt.Errorf("ziggy: append to unknown table %q", table)
	}
	grown, err := base.Append(rows)
	if err != nil {
		return fmt.Errorf("ziggy: %w", err)
	}
	if grown == base {
		return nil // empty append: content unchanged, caches stay valid
	}
	if err := s.catalog.Register(grown); err != nil {
		return err
	}
	s.router.InvalidateFrame(base.Fingerprint())
	return nil
}

// Unregister drops the named table and purges the serving layer's cached
// reports for its content (entries for other tables are untouched). It
// reports whether the table was registered.
func (s *Session) Unregister(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.catalog.Table(name)
	if !ok {
		return false
	}
	s.catalog.Unregister(name)
	s.router.InvalidateFrame(f.Fingerprint())
	return true
}

// Close releases the serving layer's transport resources (idle RPC
// connections to remote workers); in-process engines need no teardown. The
// session must not be used after Close.
func (s *Session) Close() error { return s.router.Close() }

// Tables lists registered table names.
func (s *Session) Tables() []string { return s.catalog.TableNames() }

// Table returns a registered frame.
func (s *Session) Table(name string) (*Frame, bool) { return s.catalog.Table(name) }

// Engine exposes the engine of the session's first backend: the only one
// of a default session, nil when that backend is a remote worker
// (WithPeers) — remote engines are not reachable as objects. Over several
// backends it is NOT the whole serving layer: its InvalidateCache purges
// its report cache (shared by every session attached via WithSharedCache)
// but only backend 0's prepared tier and fold prefixes.
func (s *Session) Engine() *Engine { return s.router.Engine(0) }

// Router exposes the sharded serving layer behind the session.
func (s *Session) Router() *Router { return s.router }

// Shards returns the number of backends serving the session: 1 by
// default, one per WithPeers address and WithBackends backend otherwise.
func (s *Session) Shards() int { return s.router.NumShards() }

// CacheStats returns the session's cache counters folded into the two-tier
// shape: the backends' prepared-structure tiers summed, plus the report
// tiers — how often repeated queries were served from memo, how many
// entries were evicted under the configured bounds, and how many concurrent
// identical requests were deduplicated onto one computation.
func (s *Session) CacheStats() CacheStats { return s.router.Stats().Totals() }

// ShardStats returns the full snapshot: per-backend admission/traffic
// counters and cache tiers, plus the router's report cache.
func (s *Session) ShardStats() ShardStats { return s.router.Stats() }

// QueryReport couples a characterization report with the query that
// produced the selection.
type QueryReport struct {
	*Report
	// SQL is the characterized query.
	SQL string
	// Mask is the selection over the base table.
	Mask *Bitmap
	// Base is the queried table.
	Base *Frame

	res *db.Result
}

// Rows gathers the query's result rows: projection, order and limit
// applied. Characterization reads only the selection, so the rows are
// copied only here.
func (q *QueryReport) Rows() (*Frame, error) { return q.res.Rows() }

// Characterize executes the SQL query and characterizes its selection.
func (s *Session) Characterize(sql string) (*QueryReport, error) {
	return s.CharacterizeOpts(sql, Options{})
}

// CharacterizeOpts is Characterize with per-run options. Columns referenced
// by the query's WHERE clause are usually worth excluding via
// opts.ExcludeColumns; PredicateColumns computes them.
func (s *Session) CharacterizeOpts(sql string, opts Options) (*QueryReport, error) {
	res, err := s.catalog.Query(sql)
	if err != nil {
		return nil, err
	}
	rep, err := s.router.CharacterizeOpts(res.Base, res.Mask, opts)
	if err != nil {
		return nil, fmt.Errorf("characterizing %q: %w", sql, err)
	}
	return &QueryReport{Report: rep, SQL: sql, Mask: res.Mask, Base: res.Base, res: res}, nil
}

// Query executes SQL without characterization, returning the result rows
// and the selection mask over the base table.
func (s *Session) Query(sql string) (*Frame, *Bitmap, error) {
	res, err := s.catalog.Query(sql)
	if err != nil {
		return nil, nil, err
	}
	rows, err := res.Rows()
	if err != nil {
		return nil, nil, err
	}
	return rows, res.Mask, nil
}

// PredicateColumns parses a query and returns the column names referenced
// in its WHERE clause — the natural candidates for Options.ExcludeColumns.
func PredicateColumns(sql string) ([]string, error) {
	stmt, err := db.Parse(sql)
	if err != nil {
		return nil, err
	}
	return stmt.PredicateColumns(), nil
}
