package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/memo"
	"repro/internal/shard"
)

// Worker endpoint paths, mounted by ziggyd -worker (and by tests directly).
const (
	PathHealth       = "/api/worker/health"
	PathStats        = "/api/worker/stats"
	PathManifest     = "/api/worker/manifest"
	PathChunks       = "/api/worker/chunks"
	PathCharacterize = "/api/worker/characterize"
)

// PathCached named the report-cache probe endpoint, which characterize
// replaced: it answers a repeat from the worker's cache itself.
//
// Deprecated: no worker serves it. It stays only because the serving
// benchmark (benchmark/trace.go) reads it; the benchmark-only change of
// ROADMAP.md item 7 drops that use, and then this constant.
const PathCached = "/api/worker/cached"

// RetryAfterMillisHeader carries the saturation backoff hint at millisecond
// fidelity next to the standard integer-seconds Retry-After header.
const RetryAfterMillisHeader = "Retry-After-Millis"

// maxBodyBytes bounds request bodies (a shipped table dominates).
const maxBodyBytes = 1 << 30

// Worker serves the shard.Backend operations over HTTP for one process: a
// content-addressed table store feeding the process's own shard.Router.
// A table arrives in two requests that share no worker state. A manifest
// asks what the worker already holds and is answered "registered" or with
// the one chunk prefix a resident table can lend. A self-describing chunk
// stream then carries the manifest, that offer and the missing cells, and
// the worker rebuilds and verifies the table from the stream and its named
// base alone — so streams may arrive in any order, from any number of
// fronts, late or twice. Characterize requests address tables by
// fingerprint, and admission control is the router's — a saturated worker
// sheds with 503 and a Retry-After hint exactly like an in-process shard
// sheds with ErrSaturated.
//
// The table store is LRU-bounded by the router's configured cache budget,
// like every other tier in the system: a long-running worker fed many
// distinct tables evicts the coldest instead of growing without bound.
// Evicting a table that a front still uses is safe — the next characterize
// answers unknown-fingerprint and the client re-ships it once; evicting an
// offered base between the two requests answers the stream 409 and the
// client asks again.
type Worker struct {
	router *shard.Router
	mux    *http.ServeMux
	tables *memo.Cache[uint64, *frame.Frame]
}

// NewWorker wraps a router (typically shard.New's: one in-process engine)
// in the worker HTTP API.
func NewWorker(router *shard.Router) *Worker {
	entries, bytes := router.Config().EffectiveCacheBounds()
	w := &Worker{
		router: router,
		tables: memo.New[uint64, *frame.Frame](entries, bytes),
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealth, w.handleHealth)
	mux.HandleFunc(PathStats, w.handleStats)
	mux.HandleFunc(PathManifest, w.handleManifest)
	mux.HandleFunc(PathChunks, w.handleChunks)
	mux.HandleFunc(PathCharacterize, w.handleCharacterize)
	w.mux = mux
	return w
}

// Router exposes the worker's serving layer, mainly for stats and tests.
func (w *Worker) Router() *shard.Router { return w.router }

// NumTables returns the number of registered tables.
func (w *Worker) NumTables() int { return w.tables.Len() }

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

func (w *Worker) table(fp uint64) (*frame.Frame, bool) {
	return w.tables.Get(fp)
}

// frameSize estimates a registered table's resident bytes for the store's
// LRU byte bound.
func frameSize(f *frame.Frame) int64 {
	size := int64(256)
	for _, c := range f.Columns() {
		switch c.Kind() {
		case frame.Numeric:
			size += int64(c.Len()) * 8
		case frame.Categorical:
			size += int64(c.Len()) * 4
			for _, s := range c.Dict() {
				size += int64(len(s)) + 16
			}
		}
	}
	return size
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, err error) {
	writeJSON(rw, status, map[string]string{"error": err.Error()})
}

func readBody(rw http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, maxBodyBytes))
	if err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return nil, false
	}
	return body, true
}

// HealthResponse is the health endpoint body.
type HealthResponse struct {
	OK     bool `json:"ok"`
	Shards int  `json:"shards"`
	Tables int  `json:"tables"`
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, HealthResponse{OK: true, Shards: w.router.NumShards(), Tables: w.NumTables()})
}

// StatsResponse is the stats endpoint body: the worker's full sharded
// snapshot plus its table count. The front's remote backend folds it into
// one ShardSnapshot.
type StatsResponse struct {
	Tables int         `json:"tables"`
	Stats  shard.Stats `json:"stats"`
}

func (w *Worker) handleStats(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, StatsResponse{Tables: w.NumTables(), Stats: w.router.Stats()})
}

// longestPrefix finds the resident table sharing the longest chunk prefix
// with the manifest's table (typically its pre-append version, still
// resident under the old fingerprint) and returns that prefix length and
// the table's fingerprint; 0 and 0 when none shares a full chunk.
func (w *Worker) longestPrefix(m Manifest) (prefix int, base uint64) {
	// Collect under the store lock, match outside it: matching walks every
	// column's chunk chain.
	cands := make([]*frame.Frame, 0, w.tables.Len())
	w.tables.Each(func(_ uint64, f *frame.Frame) bool {
		cands = append(cands, f)
		return true
	})
	var best *frame.Frame
	for _, f := range cands {
		if k := matchPrefix(m, f); k > prefix {
			prefix, best = k, f
		}
	}
	if best == nil {
		return 0, 0
	}
	return prefix, best.Fingerprint()
}

// handleManifest answers phase one of a registration as a pure question:
// the worker holds the table already, or here is the one prefix it can
// adopt. Nothing is recorded; the chunk stream will carry the offer back.
func (w *Worker) handleManifest(rw http.ResponseWriter, r *http.Request) {
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	m, err := DecodeManifest(body)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if _, ok := w.table(m.Fingerprint); ok {
		writeJSON(rw, http.StatusOK, ManifestResponse{Registered: true})
		return
	}
	prefix, base := w.longestPrefix(m)
	writeJSON(rw, http.StatusOK, ManifestResponse{PrefixChunks: prefix, Base: base})
}

// handleChunks completes phase two from the stream alone: decode it,
// splice the streamed cells onto the prefix of the base it names, and
// register the frame once AssembleFrame has verified it against the
// manifest's chains (which also re-checks the prefix).
// A stream for a fingerprint already stored succeeds and replaces nothing;
// a base that is no longer resident answers 409 so the front asks again; a
// stream that fails any integrity check answers 400.
func (w *Worker) handleChunks(rw http.ResponseWriter, r *http.Request) {
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	s, err := DecodeStream(body)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	fp := s.Manifest.Fingerprint
	if _, ok := w.table(fp); ok {
		rw.WriteHeader(http.StatusOK)
		return
	}
	var base *frame.Frame
	if s.Prefix > 0 {
		if base, ok = w.table(s.Base); !ok {
			writeError(rw, http.StatusConflict, fmt.Errorf("prefix base %#x for table %#x is no longer resident; ask again", s.Base, fp))
			return
		}
	}
	f, err := AssembleFrame(s, base)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	w.tables.Do(fp, frameSize, func() (*frame.Frame, error) { return f, nil })
	rw.WriteHeader(http.StatusOK)
}

// SetRetryAfter writes the standard integer-seconds Retry-After header
// (rounded up, at least 1) plus the millisecond-fidelity twin. The worker
// and the demo server both stamp shed responses with it.
func SetRetryAfter(rw http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	rw.Header().Set("Retry-After", strconv.Itoa(secs))
	rw.Header().Set(RetryAfterMillisHeader, strconv.FormatInt(d.Milliseconds(), 10))
}

func (w *Worker) handleCharacterize(rw http.ResponseWriter, r *http.Request) {
	body, ok := readBody(rw, r)
	if !ok {
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	f, ok := w.table(req.Fingerprint)
	if !ok {
		// The report cache is keyed by fingerprints, so a repeat is
		// answered even for a table this worker never received (or
		// evicted); only a miss asks the front to ship it.
		if rep, ok := w.router.CachedReportFingerprint(req.Fingerprint, req.Sel, req.Opts); ok {
			writeReport(rw, rep)
			return
		}
		writeError(rw, http.StatusNotFound, fmt.Errorf("unknown table fingerprint %#x", req.Fingerprint))
		return
	}
	rep, err := w.router.CharacterizeOpts(f, req.Sel, req.Opts)
	if err != nil {
		var sat *shard.SaturatedError
		switch {
		case errors.As(err, &sat):
			SetRetryAfter(rw, sat.RetryAfter)
			writeError(rw, http.StatusServiceUnavailable, err)
		case errors.Is(err, shard.ErrSaturated):
			writeError(rw, http.StatusServiceUnavailable, err)
		default:
			writeError(rw, http.StatusUnprocessableEntity, err)
		}
		return
	}
	writeReport(rw, rep)
}

// writeReport answers with the report's wire encoding. The explicit
// Content-Length lets the client read the reply into one buffer of the
// right size.
func writeReport(rw http.ResponseWriter, rep *core.Report) {
	data := core.EncodeReport(rep)
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(len(data)))
	rw.Write(data)
}
