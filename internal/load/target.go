package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/shard"
)

// ShedError reports that the target shed the request (admission queue
// full / HTTP 503) with the backoff hint it carried. The driver honors
// RetryAfter before re-attempting.
type ShedError struct {
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("load: request shed (retry after %v)", e.RetryAfter)
}

// Outcome is one successfully served request.
type Outcome struct {
	// Bytes is the canonical normalized report encoding — volatile fields
	// (timings, cache flags) removed, so two servings of the same request
	// must be byte-identical no matter which shard, process or cache tier
	// answered.
	Bytes []byte
	// ReportCacheHit reports the request was served from the report memo.
	ReportCacheHit bool
	// ApproxKey identifies the approximate configuration that served the
	// request — "cap=<rows>,seed=<seed>" from the report's provenance
	// block, empty for a full-precision answer. The driver buckets byte
	// identity per (request, ApproxKey): an exact answer and a sampled one
	// legitimately differ, but two servings under the same approximate
	// configuration must still be byte-identical.
	ApproxKey string
}

// approxKey renders the identity of an approximate report's configuration.
func approxKey(a *core.Approximate) string {
	if a == nil {
		return ""
	}
	return fmt.Sprintf("cap=%d,seed=%d", a.CapRows, a.Seed)
}

// Target abstracts what the driver replays against.
type Target interface {
	// Name labels the target in results ("router", "http").
	Name() string
	// Do executes one request. Shed requests return *ShedError.
	Do(req *Request) (*Outcome, error)
	Close() error
}

// RouterTarget drives in-process shard routers: one per engine mode the
// spec uses (robust/extended change engine construction), all sharing one
// report cache — the ziggy.WithSharedCache topology, with explicit admission
// Params so tests can provoke saturation.
type RouterTarget struct {
	catalog *db.Catalog
	routers map[Mode]*shard.Router
	// approxCap is the sample cap approximate requests resolve to — the
	// same edge resolution ziggyd applies server-side.
	approxCap int
}

// NewRouterTarget registers the schedule's tables and builds the routers.
// cfg.Shards picks the shard count; params tunes the admission queues
// (zero = package defaults).
func NewRouterTarget(cfg core.Config, sched *Schedule, params shard.Params) (*RouterTarget, error) {
	t := &RouterTarget{
		catalog:   db.NewCatalog(),
		routers:   map[Mode]*shard.Router{},
		approxCap: cfg.EffectiveApproxRows(),
	}
	for _, tbl := range sched.Tables {
		if err := t.catalog.Register(tbl.Frame); err != nil {
			return nil, err
		}
	}
	// One report cache across all modes: entries are keyed by config hash,
	// so modes never serve each other's reports but share the budget.
	reports := core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	for _, m := range sched.Spec.Modes() {
		mcfg := cfg
		mcfg.Robust = m.Robust
		mcfg.Extended = m.Extended
		r, err := shard.NewWithParams(mcfg, reports, params)
		if err != nil {
			return nil, fmt.Errorf("load: building %s router: %w", m, err)
		}
		t.routers[m] = r
	}
	return t, nil
}

// Name implements Target.
func (t *RouterTarget) Name() string { return "router" }

// Do implements Target: execute the query and characterize the selection
// on the mode's router, mirroring ziggyd's request handling (including the
// server-side excludePredicate expansion).
func (t *RouterTarget) Do(req *Request) (*Outcome, error) {
	router, ok := t.routers[req.Mode]
	if !ok {
		return nil, fmt.Errorf("load: no router for mode %s", req.Mode)
	}
	res, err := t.catalog.Query(req.SQL)
	if err != nil {
		return nil, err
	}
	opts := core.Options{SkipReportCache: req.SkipCache}
	if req.Exclude {
		opts.ExcludeColumns = req.PredCols
	}
	if req.Approx {
		opts.ApproxRows = t.approxCap
	}
	rep, err := router.CharacterizeOpts(res.Base, res.Mask, opts)
	if err != nil {
		var sat *shard.SaturatedError
		if errors.As(err, &sat) {
			return nil, &ShedError{RetryAfter: sat.RetryAfter}
		}
		return nil, err
	}
	return &Outcome{
		Bytes:          normalizeReport(rep),
		ReportCacheHit: rep.ReportCacheHit,
		ApproxKey:      approxKey(rep.Approximate),
	}, nil
}

// Stats folds every mode router's shard snapshots — the server-side
// counters (rejections, requests) tests assert against.
func (t *RouterTarget) Stats() []shard.Stats {
	var out []shard.Stats
	for _, m := range modeOrder {
		if r, ok := t.routers[m]; ok {
			out = append(out, r.Stats())
		}
	}
	return out
}

// Close implements Target.
func (t *RouterTarget) Close() error {
	var first error
	for _, r := range t.routers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// normalizeReport strips the fields that legitimately differ between
// servings of the same request — timings and cache provenance — and
// encodes the rest canonically. Byte equality of the result is the
// cross-shard determinism contract.
func normalizeReport(rep *core.Report) []byte {
	norm := *rep
	norm.Timings = core.Timings{}
	norm.CacheHit = false
	norm.ReportCacheHit = false
	return core.EncodeReport(&norm)
}

// HTTPTarget drives a real ziggyd front over its public JSON API — the
// same POST /api/characterize interactive users hit.
type HTTPTarget struct {
	base   string
	client *http.Client
	// ModesCollapsed counts requests whose scheduled non-default engine
	// mode was collapsed to the deployment's configuration: a deployment
	// runs one config, so robust/extended mixes only differentiate
	// in-process targets. Recorded in the result rather than hidden.
	ModesCollapsed atomic.Int64
}

// NewHTTPTarget points the driver at a ziggyd front. addr is host:port or
// an http:// URL. The deployment must have the schedule's tables
// registered under the same names with identical content (same dataset
// seeds).
func NewHTTPTarget(addr string) *HTTPTarget {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &HTTPTarget{
		base:   strings.TrimRight(addr, "/"),
		client: &http.Client{Timeout: 120 * time.Second},
	}
}

// Name implements Target.
func (t *HTTPTarget) Name() string { return "http" }

// characterizeBody mirrors the server's characterizeRequest wire shape.
type characterizeBody struct {
	SQL              string `json:"sql"`
	ExcludePredicate bool   `json:"excludePredicate"`
	SkipReportCache  bool   `json:"skipReportCache"`
	Approximate      bool   `json:"approximate"`
}

// volatileResponseFields differ between servings of one request and are
// stripped before the byte-identity comparison, matching what
// normalizeReport removes from the binary encoding.
var volatileResponseFields = []string{
	"prepMillis", "searchMillis", "postMillis", "cacheHit", "reportCacheHit",
}

// Do implements Target.
func (t *HTTPTarget) Do(req *Request) (*Outcome, error) {
	if req.Mode != (Mode{}) {
		t.ModesCollapsed.Add(1)
	}
	body, err := json.Marshal(characterizeBody{
		SQL:              req.SQL,
		ExcludePredicate: req.Exclude,
		SkipReportCache:  req.SkipCache,
		Approximate:      req.Approx,
	})
	if err != nil {
		return nil, err
	}
	resp, err := t.client.Post(t.base+"/api/characterize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return nil, &ShedError{RetryAfter: retryAfterFrom(resp)}
	default:
		return nil, fmt.Errorf("load: %s: HTTP %d: %s", req.SQL, resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	var decoded map[string]any
	if err := json.Unmarshal(payload, &decoded); err != nil {
		return nil, fmt.Errorf("load: decoding response: %w", err)
	}
	hit, _ := decoded["reportCacheHit"].(bool)
	for _, f := range volatileResponseFields {
		delete(decoded, f)
	}
	// The approximate provenance block is NOT volatile: it identifies the
	// sampled configuration that answered, and byte identity is asserted
	// per (request, approximate configuration).
	key := ""
	if a, ok := decoded["approximate"].(map[string]any); ok {
		cap, _ := a["capRows"].(float64)
		seed, _ := a["seed"].(float64)
		key = fmt.Sprintf("cap=%d,seed=%d", int64(cap), uint64(seed))
	}
	// json.Marshal sorts map keys, so the re-encoding is canonical.
	canon, err := json.Marshal(decoded)
	if err != nil {
		return nil, err
	}
	return &Outcome{Bytes: canon, ReportCacheHit: hit, ApproxKey: key}, nil
}

// retryAfterFrom reads the backoff hint ziggyd attaches to 503 responses:
// the millisecond-precision header first, the standard seconds one as a
// fallback, the router's minimum clamp when neither parses.
func retryAfterFrom(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After-Millis"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms >= 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if sec, err := strconv.ParseInt(v, 10, 64); err == nil && sec >= 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 25 * time.Millisecond
}

// Close implements Target.
func (t *HTTPTarget) Close() error {
	t.client.CloseIdleConnections()
	return nil
}
