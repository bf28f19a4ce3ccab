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
// Requests are served by a sharded layer (internal/shard): each table is
// owned by one backend shard — an in-process engine, or a remote worker
// process when ziggyd runs with -peers — chosen by content fingerprint, and
// in-process shards share one report cache while remote repeats hit the
// owning worker's cache over the wire. Characterization responses report
// two cache signals: cacheHit (the owning shard reused the query-
// independent dependency structure) and reportCacheHit (the entire report
// was served from a content-addressed report memo — the serving hot path
// for repeated identical queries). Shed requests (HTTP 503) carry a
// Retry-After header computed from the owning shard's queue depth and
// observed service rate. /api/stats exposes the aggregated prepared/reports
// tiers plus a per-shard breakdown (kind, address and health of the
// backend, admitted/rejected/in-flight/queued requests, the backoff hint,
// shipped tables, cache tiers); within each tier hits + misses equals the
// number of requests.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
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
	// deterministic stratified sample capped at the server's configured
	// approximate row budget, and the response carries an "approximate"
	// provenance block.
	Approximate bool `json:"approximate"`
	// ApproxRows overrides the sample cap for this request (implies
	// Approximate); zero defers to the server configuration.
	ApproxRows int `json:"approxRows"`
	// ApproxSeed selects the sampling stream; zero is a valid seed. Ignored
	// unless the request is approximate.
	ApproxSeed uint64 `json:"approxSeed"`
}

// viewJSON is the wire form of a characteristic view.
type viewJSON struct {
	Columns     []string        `json:"columns"`
	Score       float64         `json:"score"`
	Tightness   float64         `json:"tightness"`
	PValue      *float64        `json:"pValue"` // null when untestable
	Significant bool            `json:"significant"`
	Explanation string          `json:"explanation"`
	Components  []componentJSON `json:"components"`
	// Plot is the ASCII chart of the view, present when requested.
	Plot string `json:"plot,omitempty"`
}

type componentJSON struct {
	Kind    string   `json:"kind"`
	Columns []string `json:"columns"`
	Raw     float64  `json:"raw"`
	Norm    float64  `json:"norm"`
	Inside  float64  `json:"inside"`
	Outside float64  `json:"outside"`
	PValue  *float64 `json:"pValue"`
	Detail  string   `json:"detail,omitempty"`
}

// characterizeResponse is the wire form of a report.
type characterizeResponse struct {
	SQL          string  `json:"sql"`
	SelectedRows int     `json:"selectedRows"`
	TotalRows    int     `json:"totalRows"`
	PrepMillis   float64 `json:"prepMillis"`
	SearchMillis float64 `json:"searchMillis"`
	PostMillis   float64 `json:"postMillis"`
	// CacheHit reports reuse of the prepared dependency structure;
	// ReportCacheHit reports that the entire report came from the
	// report-level memo.
	CacheHit       bool       `json:"cacheHit"`
	ReportCacheHit bool       `json:"reportCacheHit"`
	Warnings       []string   `json:"warnings,omitempty"`
	Views          []viewJSON `json:"views"`
	// Approximate is the provenance block of a sample-based answer — present
	// exactly when the report ran on a deterministic sample, whether the
	// client asked for it or a saturated shard degraded to it instead of
	// shedding. Absent on full-precision responses.
	Approximate *approximateJSON `json:"approximate,omitempty"`
}

// approximateJSON is the wire form of core.Approximate.
type approximateJSON struct {
	SampleRows  int     `json:"sampleRows"`
	CapRows     int     `json:"capRows"`
	Seed        uint64  `json:"seed"`
	InsideRows  int     `json:"insideRows"`
	OutsideRows int     `json:"outsideRows"`
	SEInflation float64 `json:"seInflation"`
}

func optFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
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
			opts.ApproxRows = s.router.Config().EffectiveApproxRows()
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

	resp := characterizeResponse{
		SQL:            req.SQL,
		SelectedRows:   rep.SelectedRows,
		TotalRows:      rep.TotalRows,
		PrepMillis:     float64(rep.Timings.Preparation.Microseconds()) / 1000,
		SearchMillis:   float64(rep.Timings.Search.Microseconds()) / 1000,
		PostMillis:     float64(rep.Timings.Post.Microseconds()) / 1000,
		CacheHit:       rep.CacheHit,
		ReportCacheHit: rep.ReportCacheHit,
		Warnings:       rep.Warnings,
	}
	if a := rep.Approximate; a != nil {
		resp.Approximate = &approximateJSON{
			SampleRows:  a.SampleRows,
			CapRows:     a.CapRows,
			Seed:        a.Seed,
			InsideRows:  a.InsideRows,
			OutsideRows: a.OutsideRows,
			SEInflation: a.SEInflation,
		}
	}
	for _, v := range rep.Views {
		vj := viewJSON{
			Columns:     v.Columns,
			Score:       v.Score,
			Tightness:   v.Tightness,
			PValue:      optFloat(v.PValue),
			Significant: v.Significant,
			Explanation: v.Explanation,
		}
		if req.IncludePlots {
			if chart, err := plot.View(res.Base, res.Mask, v.Columns, 56, 14); err == nil {
				vj.Plot = chart
			}
		}
		for _, c := range v.Components {
			if !c.Valid() {
				continue
			}
			vj.Components = append(vj.Components, componentJSON{
				Kind:    c.Kind.String(),
				Columns: c.Columns,
				Raw:     c.Raw,
				Norm:    c.Norm,
				Inside:  c.Inside,
				Outside: c.Outside,
				PValue:  optFloat(c.Test.P),
				Detail:  c.Detail,
			})
		}
		resp.Views = append(resp.Views, vj)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the wire form of /api/stats. Prepared aggregates the
// per-shard prepared tiers; Reports is the shared cross-shard report cache;
// Shards breaks traffic and prepared counters down per shard.
type statsResponse struct {
	// Prepared and Reports are the two memo tiers; within each,
	// hits + misses = requests and misses - deduped = computations.
	Prepared tierJSON `json:"prepared"`
	Reports  tierJSON `json:"reports"`
	// ShardCount is the number of engine shards behind the router.
	ShardCount int `json:"shardCount"`
	// Shards is the per-shard breakdown.
	Shards []shardJSON `json:"shards"`
}

// shardJSON is one backend's traffic and cache-tier counters. Kind is
// "local" or "remote"; remote entries carry the worker address, its
// reachability, and how many table payloads were actually shipped to it.
type shardJSON struct {
	Shard    int    `json:"shard"`
	Kind     string `json:"kind"`
	Addr     string `json:"addr,omitempty"`
	Healthy  bool   `json:"healthy"`
	Requests int64  `json:"requests"`
	Rejected int64  `json:"rejected"`
	// ApproxServed counts served approximate reports — pressure-degraded
	// and explicitly requested alike.
	ApproxServed int64 `json:"approxServed"`
	Inflight     int64 `json:"inflight"`
	Queued       int64 `json:"queued"`
	// RetryAfterMillis is the shard's current backoff hint; shed requests
	// carry the same figure in their Retry-After header.
	RetryAfterMillis int64 `json:"retryAfterMillis"`
	// Completed counts executed (non-cached) characterizations;
	// MeanServiceMillis is their observed mean wall time — the service-rate
	// estimate behind the backoff hint.
	Completed         int64    `json:"completed"`
	MeanServiceMillis float64  `json:"meanServiceMillis,omitempty"`
	TablesShipped     int64    `json:"tablesShipped,omitempty"`
	ChunksShipped     int64    `json:"chunksShipped,omitempty"`
	BytesShipped      int64    `json:"bytesShipped,omitempty"`
	Prepared          tierJSON `json:"prepared"`
	// Reports is a remote worker's own report tier; local shards share the
	// router cache reported in the top-level reports field.
	Reports tierJSON `json:"reports"`
}

type tierJSON struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Requests  int64 `json:"requests"`
	Evictions int64 `json:"evictions"`
	Deduped   int64 `json:"deduped"`
	Inflight  int64 `json:"inflight"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

func tierFrom(s memo.Snapshot) tierJSON {
	return tierJSON{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Requests:  s.Requests(),
		Evictions: s.Evictions,
		Deduped:   s.Deduped,
		Inflight:  s.Inflight,
		Entries:   s.Entries,
		Bytes:     s.Bytes,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	stats := s.router.Stats()
	totals := stats.Totals()
	resp := statsResponse{
		Prepared:   tierFrom(totals.Prepared),
		Reports:    tierFrom(totals.Reports),
		ShardCount: s.router.NumShards(),
	}
	for _, sh := range stats.Shards {
		resp.Shards = append(resp.Shards, shardJSON{
			Shard:             sh.Shard,
			Kind:              sh.Kind,
			Addr:              sh.Addr,
			Healthy:           sh.Healthy,
			Requests:          sh.Requests,
			Rejected:          sh.Rejected,
			ApproxServed:      sh.ApproxServed,
			Inflight:          sh.Inflight,
			Queued:            sh.Queued,
			RetryAfterMillis:  sh.RetryAfterMillis,
			Completed:         sh.Completed,
			MeanServiceMillis: sh.MeanServiceMillis,
			TablesShipped:     sh.TablesShipped,
			ChunksShipped:     sh.ChunksShipped,
			BytesShipped:      sh.BytesShipped,
			Prepared:          tierFrom(sh.Prepared),
			Reports:           tierFrom(sh.Reports),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
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
