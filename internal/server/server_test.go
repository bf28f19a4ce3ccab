package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/frame"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/synth"
)

// testServer serves boxoffice from two local backends, so the routed path
// is exercised.
func testServer(t *testing.T) *Server { return localServer(t, 2) }

// localServer serves boxoffice from k in-process backends sharing one
// report cache with the router.
func localServer(t *testing.T, k int) *Server { return configServer(t, k, core.DefaultConfig()) }

// configServer is localServer with an engine configuration.
func configServer(t *testing.T, k int, cfg core.Config) *Server {
	t.Helper()
	cat := db.NewCatalog()
	if err := cat.Register(synth.BoxOffice(1)); err != nil {
		t.Fatal(err)
	}
	reports := core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	backends := make([]shard.Backend, k)
	for i := range backends {
		b, err := shard.NewEngineBackend(cfg, reports, shard.Params{})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
	}
	router, err := shard.NewWithBackends(cfg, reports, backends)
	if err != nil {
		t.Fatal(err)
	}
	return New(cat, router, nil)
}

func TestIndexServesUI(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Ziggy", "Characterize", "/api/characterize", "Serving stats", "/api/stats"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Unknown path 404s.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", rec.Code)
	}
}

func TestTablesEndpoint(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/tables", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var infos []tableInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "boxoffice" || infos[0].Rows != synth.BoxOfficeRows {
		t.Fatalf("infos = %+v", infos)
	}
	if len(infos[0].Columns) != synth.BoxOfficeCols {
		t.Fatalf("columns = %d", len(infos[0].Columns))
	}
	// Wrong method rejected.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/tables", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d", rec.Code)
	}
}

// characterizeResponse decodes the fields of the report document
// (core.WriteReportJSON) that these tests read.
type characterizeResponse struct {
	SelectedRows   int     `json:"selectedRows"`
	TotalRows      int     `json:"totalRows"`
	PrepMillis     float64 `json:"prepMillis"`
	SearchMillis   float64 `json:"searchMillis"`
	PostMillis     float64 `json:"postMillis"`
	CacheHit       bool    `json:"cacheHit"`
	ReportCacheHit bool    `json:"reportCacheHit"`
	Views          []struct {
		Columns     []string          `json:"columns"`
		Explanation string            `json:"explanation"`
		Components  []json.RawMessage `json:"components"`
	} `json:"views"`
}

func characterize(t *testing.T, s *Server, body string) (*httptest.ResponseRecorder, characterizeResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/characterize", bytes.NewBufferString(body))
	req.Header.Set("Content-Type", "application/json")
	s.ServeHTTP(rec, req)
	var resp characterizeResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding %q: %v", rec.Body.String(), err)
		}
	}
	return rec, resp
}

func TestCharacterizeEndpoint(t *testing.T) {
	s := testServer(t)
	rec, resp := characterize(t, s,
		`{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100", "excludePredicate": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Views) == 0 {
		t.Fatal("no views in response")
	}
	if resp.SelectedRows == 0 || resp.TotalRows != synth.BoxOfficeRows {
		t.Fatalf("row counts %d/%d", resp.SelectedRows, resp.TotalRows)
	}
	for _, v := range resp.Views {
		if v.Explanation == "" {
			t.Error("view lacks explanation")
		}
		for _, c := range v.Columns {
			if c == "gross_musd" {
				t.Error("predicate column not excluded")
			}
		}
		if len(v.Components) == 0 {
			t.Error("view lacks components")
		}
	}
}

func TestCharacterizeValidation(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		body string
		code int
	}{
		{"not json", http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"sql": "SELECT * FROM nope"}`, http.StatusBadRequest},
		{`{"sql": "SELECT * FROM boxoffice WHERE gross_musd > 1e15"}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		rec, _ := characterize(t, s, c.body)
		if rec.Code != c.code {
			t.Errorf("body %q: status %d, want %d (%s)", c.body, rec.Code, c.code, rec.Body.String())
		}
	}
	// GET is rejected.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/characterize", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", rec.Code)
	}
}

// TestCharacterizeBodyLimit pins the request-body bound: a body past
// maxRequestBytes is answered 413, and an ordinary query still succeeds.
func TestCharacterizeBodyLimit(t *testing.T) {
	s := testServer(t)
	huge := `{"sql": "` + strings.Repeat("x", 2<<20) + `"}`
	if rec, _ := characterize(t, s, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: status %d, want 413 (%.200s)", rec.Code, rec.Body.String())
	}
	rec, _ := characterize(t, s, `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100"}`)
	if rec.Code != http.StatusOK {
		t.Errorf("normal query: status %d (%s)", rec.Code, rec.Body.String())
	}
}

func TestCharacterizeExplicitExclusions(t *testing.T) {
	s := testServer(t)
	rec, resp := characterize(t, s,
		`{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100",
		  "excludeColumns": ["budget_musd", "opening_weekend_musd"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	for _, v := range resp.Views {
		for _, c := range v.Columns {
			if c == "budget_musd" || c == "opening_weekend_musd" {
				t.Errorf("explicitly excluded column %q present", c)
			}
		}
	}
}

// saturatedBackend is a shard.Backend stub that always sheds with a fixed
// Retry-After hint, so the server's 503 wire format is testable
// deterministically.
type saturatedBackend struct{ shard.Backend }

func (saturatedBackend) RegisterTable(*frame.Frame) error { return nil }
func (saturatedBackend) Characterize(*frame.Frame, *frame.Bitmap, core.Options) (*core.Report, error) {
	return nil, &shard.SaturatedError{RetryAfter: 1500 * time.Millisecond}
}
func (saturatedBackend) CachedReport(uint64, *frame.Bitmap, core.Options) (*core.Report, bool) {
	return nil, false
}
func (saturatedBackend) Snapshot() shard.ShardSnapshot { return shard.ShardSnapshot{Kind: "local"} }
func (saturatedBackend) Engine() *core.Engine          { return nil }
func (saturatedBackend) Close() error                  { return nil }

// TestSaturationSetsRetryAfter pins the backoff satellite at the demo
// server's wire: a shed characterization returns 503 with both the
// integer-seconds Retry-After header (rounded up) and the millisecond twin.
func TestSaturationSetsRetryAfter(t *testing.T) {
	cat := db.NewCatalog()
	if err := cat.Register(synth.BoxOffice(1)); err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewWithBackends(core.DefaultConfig(), nil, []shard.Backend{saturatedBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(cat, router, nil)
	rec, _ := characterize(t, s, `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (1.5s rounded up)", got)
	}
	if got := rec.Header().Get(remote.RetryAfterMillisHeader); got != "1500" {
		t.Errorf("%s = %q, want \"1500\"", remote.RetryAfterMillisHeader, got)
	}
}

func TestDendrogramEndpoint(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/dendrogram?table=boxoffice", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "budget_musd") || !strings.Contains(body, "h=") {
		t.Errorf("dendrogram output unexpected: %q", body[:120])
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/dendrogram?table=nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown table status %d", rec.Code)
	}
}

func TestCacheHitReportedOnSecondQuery(t *testing.T) {
	s := testServer(t)
	_, first := characterize(t, s, `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100"}`)
	if first.CacheHit {
		t.Error("first query reported a cache hit")
	}
	_, second := characterize(t, s, `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 50"}`)
	if !second.CacheHit {
		t.Error("second query missed the cache")
	}
}

// TestStatsEndpointAndReportCache drives the serving hot path end to end:
// the first characterization computes, the identical repeat is served from
// the report memo (reportCacheHit), and /api/stats counters reconcile
// (hits + misses = requests per tier), over k = 1, 2 and 4 local backends.
func TestStatsEndpointAndReportCache(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { checkStats(t, localServer(t, k), k) })
	}

	// Wrong method rejected.
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/stats", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/stats status %d", rec.Code)
	}
}

// checkStats runs a query and its repeat on s, served by k local backends,
// and checks what /api/stats reports.
func checkStats(t *testing.T, s *Server, k int) {
	body := `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100"}`
	_, first := characterize(t, s, body)
	if first.ReportCacheHit {
		t.Error("first query reported a report-cache hit")
	}
	_, second := characterize(t, s, body)
	if !second.ReportCacheHit || !second.CacheHit {
		t.Errorf("identical repeat not served from the report cache: %+v", second)
	}
	if second.PrepMillis != 0 || second.SearchMillis != 0 || second.PostMillis != 0 {
		t.Error("cached response reports nonzero stage timings")
	}

	for _, path := range []string{"/api/stats", "/stats"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, rec.Code, rec.Body.String())
		}
		var stats statsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		if stats.Reports.Hits != 1 || stats.Reports.Misses != 1 {
			t.Errorf("%s reports tier = %+v, want 1 hit / 1 miss", path, stats.Reports)
		}
		if stats.Prepared.Misses != 1 {
			t.Errorf("%s prepared tier = %+v, want 1 miss", path, stats.Prepared)
		}
		var tiers map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &tiers); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"prepared", "reports"} {
			var tier map[string]int64
			if err := json.Unmarshal(tiers[name], &tier); err != nil {
				t.Fatal(err)
			}
			if tier["hits"]+tier["misses"] != tier["requests"] {
				t.Errorf("%s %s tier does not reconcile: %v", path, name, tier)
			}
		}
		// The per-backend breakdown: the two admitted requests on the single
		// owning backend, idle backends cold.
		if stats.ShardCount != k || len(stats.Shards) != k {
			t.Fatalf("%s shard breakdown = count %d, %d entries; want %d", path, stats.ShardCount, len(stats.Shards), k)
		}
		var requests, entries int64
		for _, sh := range stats.Shards {
			requests += sh.Requests
			entries += int64(sh.Prepared.Entries)
			if sh.Rejected != 0 || sh.Inflight != 0 || sh.Queued != 0 || sh.RetryAfterMillis != 0 {
				t.Errorf("%s shard %d reports phantom load: %+v", path, sh.Shard, sh)
			}
			if sh.Kind != "local" || !sh.Healthy || sh.Addr != "" || sh.TablesShipped != 0 {
				t.Errorf("%s shard %d backend metadata = %+v, want healthy local", path, sh.Shard, sh)
			}
		}
		if requests != 2 || entries != 1 {
			t.Errorf("%s shards sum to %d requests / %d prepared entries, want 2 / 1", path, requests, entries)
		}
	}

}

// post answers one /api/characterize body on s and returns the response
// bytes.
func post(t *testing.T, s *Server, body string) []byte {
	t.Helper()
	rec, _ := characterize(t, s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// reportBytes returns the report tier's charged bytes from /api/stats.
func reportBytes(t *testing.T, s *Server) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/stats", nil))
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	return stats.Reports.Bytes
}

// withSQL swaps the sql value at the head of a report document.
func withSQL(t *testing.T, doc []byte, from, to string) []byte {
	t.Helper()
	old, _ := json.Marshal(from)
	repl, _ := json.Marshal(to)
	prefix := append([]byte(`{"sql":`), old...)
	if !bytes.HasPrefix(doc, prefix) {
		t.Fatalf("document does not open with sql %s: %.80s", old, doc)
	}
	return append(append([]byte(`{"sql":`), repl...), doc[len(prefix):]...)
}

// TestStoredDocumentSharedAcrossSQL pins the stored-bytes path from the
// HTTP side: two SQL texts selecting the same rows hit one cached report
// and share its stored bytes, yet each response carries its own sql, and
// the response equals the one encoding/json would write.
func TestStoredDocumentSharedAcrossSQL(t *testing.T) {
	s := testServer(t)
	const sqlA = "SELECT * FROM boxoffice WHERE gross_musd >= 100"
	const sqlB = "SELECT * FROM boxoffice WHERE gross_musd >= 100.0 AND genre <> '<&>'"
	bodyA := `{"sql": "` + sqlA + `"}`
	bodyB := `{"sql": "` + sqlB + `"}`
	post(t, s, bodyA)
	empty := reportBytes(t, s)
	hitA := post(t, s, bodyA)
	filled := reportBytes(t, s)
	if filled <= empty {
		t.Fatalf("the first hit stored nothing: %d bytes before, %d after", empty, filled)
	}
	hitB := post(t, s, bodyB)
	if got := reportBytes(t, s); got != filled {
		t.Fatalf("the second SQL text stored a second document: %d bytes, want %d", got, filled)
	}
	if !bytes.Equal(hitB, withSQL(t, hitA, sqlA, sqlB)) {
		t.Fatalf("responses differ beyond sql:\n%s\n%s", hitA, hitB)
	}
	if !bytes.Contains(hitB, []byte(`\u003c\u0026\u003e`)) {
		t.Fatalf("sql not HTML-escaped as encoding/json escapes it: %.200s", hitB)
	}
}

// TestStoredDocumentBypassedByPlots pins that a repeat with includePlots
// is written by the full encoder with its charts, and stores nothing.
func TestStoredDocumentBypassedByPlots(t *testing.T) {
	s := testServer(t)
	const sql = "SELECT * FROM boxoffice WHERE gross_musd >= 100"
	post(t, s, `{"sql": "`+sql+`"}`)
	before := reportBytes(t, s)
	plotted := post(t, s, `{"sql": "`+sql+`", "includePlots": true}`)
	if !bytes.Contains(plotted, []byte(`"plot":`)) || !bytes.Contains(plotted, []byte(`"reportCacheHit":true`)) {
		t.Fatalf("plotted repeat is not a hit with charts: %.300s", plotted)
	}
	if got := reportBytes(t, s); got != before {
		t.Fatalf("a repeat with plots stored bytes: %d, want %d", got, before)
	}
	plain := post(t, s, `{"sql": "`+sql+`"}`)
	if bytes.Contains(plain, []byte(`"plot":`)) {
		t.Fatal("a repeat without plots carries charts")
	}
	if got := reportBytes(t, s); got <= before {
		t.Fatal("a repeat without plots stored nothing")
	}
}

// TestStoredDocumentRebuiltAfterEviction pins that an evicted report's
// stored bytes go with it: cached again, it rebuilds them, and the
// responses are unchanged.
func TestStoredDocumentRebuiltAfterEviction(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CacheEntries = 1
	s := configServer(t, 1, cfg)
	bodyA := `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100"}`
	bodyB := `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 50"}`
	post(t, s, bodyA)
	first := post(t, s, bodyA)
	filled := reportBytes(t, s)
	post(t, s, bodyB) // evicts A
	if got := reportBytes(t, s); got >= filled {
		t.Fatalf("eviction kept the stored bytes: %d charged, %d before", got, filled)
	}
	post(t, s, bodyA) // computes A again, evicting B
	unfilled := reportBytes(t, s)
	again := post(t, s, bodyA)
	if got := reportBytes(t, s); got != filled || unfilled >= filled {
		t.Fatalf("re-cached report charged %d then %d bytes, want fewer then %d", unfilled, got, filled)
	}
	if !bytes.Equal(again, first) {
		t.Fatalf("rebuilt document differs:\n%s\n%s", first, again)
	}
}
