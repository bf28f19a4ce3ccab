// Package server implements the interactive demo of paper §4 / Figure 5: a
// web front-end where users type a query, see the ranked characteristic
// views on the left and the explanations with per-view detail on the right.
//
// The original demo stacked MonetDB + R/Shiny + HTML/JS; here a single
// net/http server exposes a JSON API over the embedded engine and serves a
// self-contained HTML page. Endpoints:
//
//	GET  /                    the single-page UI
//	GET  /api/tables          registered tables with schema summaries
//	POST /api/characterize    {"sql": ..., "excludePredicate": bool}
//	GET  /api/dendrogram      ?table=name — text dendrogram for MIN_tight
//	GET  /api/stats           cache + shard counters (also /stats)
//
// A characterize request runs its SQL through db.Catalog.Query, which
// resolves the statement and evaluates WHERE into the selection mask; the
// engine reads only that mask, so no result row is ever copied. The answer
// is the report's one JSON document, core.WriteReportJSON, which the ziggy
// CLI's -json prints too.
//
// Requests are served through a router (internal/shard) over one or more
// backends: the process's in-process engine, or the remote worker
// processes ziggyd routes to with -peers, each table owned by one backend
// chosen by content fingerprint. In-process backends share the router's
// report cache. A remote repeat is answered once by the owning worker's
// cache over the wire, and after that by the router's own report cache,
// the front tier, with no RPC. Characterization responses report two cache
// signals: cacheHit (the owning backend reused the query-independent
// dependency structure) and reportCacheHit (the entire report
// was served from a content-addressed report memo — the serving hot path
// for repeated identical queries). Shed requests (HTTP 503) carry a
// Retry-After header computed from the owning backend's queue depth and
// observed service rate. /api/stats exposes the aggregated prepared/reports
// tiers plus a per-backend breakdown (kind, address and health of the
// backend, admitted/rejected/in-flight/queued requests, the backoff hint,
// shipped tables, cache tiers); within each tier hits + misses equals the
// number of requests. In front mode the top-level reports tier sums the
// front tier's counters and the workers', and each request is counted in
// exactly one of them.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/depend"
	"repro/internal/memo"
	"repro/internal/plot"
	"repro/internal/remote"
	"repro/internal/shard"
)

// maxRequestBytes bounds a characterize request body. A query request is a
// few hundred bytes; larger bodies are answered 413.
const maxRequestBytes = 1 << 20

// Server is the demo web server.
type Server struct {
	catalog *db.Catalog
	router  *shard.Router
	mux     *http.ServeMux
	logger  *log.Logger
}

// New builds a server over an existing catalog and sharded router. logger
// may be nil for silence.
func New(catalog *db.Catalog, router *shard.Router, logger *log.Logger) *Server {
	s := &Server{catalog: catalog, router: router, logger: logger}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/api/tables", s.handleTables)
	mux.HandleFunc("/api/characterize", s.handleCharacterize)
	mux.HandleFunc("/api/dendrogram", s.handleDendrogram)
	mux.HandleFunc("/api/stats", s.handleStats)
	mux.HandleFunc("/stats", s.handleStats)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	if s.logger != nil {
		s.logger.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start))
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil && s.logger != nil {
		s.logger.Printf("encoding response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// tableInfo summarizes one registered table for the UI.
type tableInfo struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Columns []columnInfo `json:"columns"`
}

type columnInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	var infos []tableInfo
	for _, name := range s.catalog.TableNames() {
		f, _ := s.catalog.Table(name)
		info := tableInfo{Name: name, Rows: f.NumRows()}
		for _, c := range f.Columns() {
			info.Columns = append(info.Columns, columnInfo{Name: c.Name(), Kind: c.Kind().String()})
		}
		infos = append(infos, info)
	}
	s.writeJSON(w, http.StatusOK, infos)
}

// characterizeRequest is the POST body of /api/characterize.
type characterizeRequest struct {
	SQL string `json:"sql"`
	// ExcludePredicate, when true, keeps the query's WHERE columns out of
	// the views.
	ExcludePredicate bool `json:"excludePredicate"`
	// ExcludeColumns adds explicit exclusions.
	ExcludeColumns []string `json:"excludeColumns"`
	// IncludePlots attaches an ASCII chart to every view.
	IncludePlots bool `json:"includePlots"`
	// SkipReportCache bypasses the report-level memo for this request,
	// forcing the full pipeline — the cache-hostile switch a load generator
	// uses to measure uncached serving latency.
	SkipReportCache bool `json:"skipReportCache"`
	// Approximate requests a sample-based answer: the pipeline runs on a
	// deterministic stratified sample capped at core.DefaultApproxRows
	// rows, and the response carries an "approximate" provenance block.
	Approximate bool `json:"approximate"`
	// ApproxRows overrides the sample cap for this request (implies
	// Approximate); zero means core.DefaultApproxRows.
	ApproxRows int `json:"approxRows"`
	// ApproxSeed selects the sampling stream; zero is a valid seed. Ignored
	// unless the request is approximate.
	ApproxSeed uint64 `json:"approxSeed"`
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req characterizeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeError(w, status, fmt.Errorf("invalid JSON body: %w", err))
		return
	}
	if req.SQL == "" {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("missing sql"))
		return
	}
	res, err := s.catalog.Query(req.SQL)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := core.Options{ExcludeColumns: req.ExcludeColumns, SkipReportCache: req.SkipReportCache}
	if req.ExcludePredicate {
		opts.ExcludeColumns = append(opts.ExcludeColumns, res.Stmt.PredicateColumns()...)
	}
	if req.Approximate || req.ApproxRows > 0 {
		opts.ApproxRows = req.ApproxRows
		if opts.ApproxRows == 0 {
			opts.ApproxRows = core.DefaultApproxRows
		}
		opts.ApproxSeed = req.ApproxSeed
	}
	rep, err := s.router.CharacterizeOpts(res.Base, res.Mask, opts)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, shard.ErrSaturated) {
			status = http.StatusServiceUnavailable
			// Shed responses carry the shard's backoff hint (queue depth ÷
			// observed service rate) so clients can retry intelligently.
			var sat *shard.SaturatedError
			if errors.As(err, &sat) {
				remote.SetRetryAfter(w, sat.RetryAfter)
			}
		}
		s.writeError(w, status, err)
		return
	}

	var plotView func(columns []string) string
	if req.IncludePlots {
		plotView = func(columns []string) string {
			// A view that cannot be drawn goes without a chart.
			chart, _ := plot.View(res.Base, res.Mask, columns, 56, 14)
			return chart
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := core.WriteReportJSON(w, req.SQL, rep, plotView); err != nil && s.logger != nil {
		s.logger.Printf("encoding response: %v", err)
	}
}

// statsResponse is the wire form of /api/stats. Prepared aggregates the
// per-backend prepared tiers; Reports is the router's report cache plus
// every backend's own report tier (in front mode, the front tier plus every
// worker's); Shards breaks traffic and cache counters down per backend.
type statsResponse struct {
	// Prepared and Reports are the two memo tiers; within each,
	// hits + misses = requests and misses - deduped = computations.
	Prepared memo.Snapshot `json:"prepared"`
	Reports  memo.Snapshot `json:"reports"`
	// ShardCount is the number of backends behind the router.
	ShardCount int `json:"shardCount"`
	// Shards is the per-backend breakdown.
	Shards []shard.ShardSnapshot `json:"shards"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	stats := s.router.Stats()
	totals := stats.Totals()
	s.writeJSON(w, http.StatusOK, statsResponse{
		Prepared:   totals.Prepared,
		Reports:    totals.Reports,
		ShardCount: s.router.NumShards(),
		Shards:     stats.Shards,
	})
}

func (s *Server) handleDendrogram(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	name := r.URL.Query().Get("table")
	f, ok := s.catalog.Table(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown table %q", name))
		return
	}
	// The dendrogram is the visual support the paper recommends for
	// picking MIN_tight; recompute with the engine's configured measure.
	dep := depend.NewMatrix(f, s.router.Config().Measure)
	dendro, err := cluster.Agglomerate(dep.Distances(), f.NumCols(), s.router.Config().Linkage)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, dendro.Render(f.ColumnNames()))
}
