package server

import (
	"bytes"
	"encoding/json"
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

func testServer(t *testing.T) *Server {
	t.Helper()
	cat := db.NewCatalog()
	if err := cat.Register(synth.BoxOffice(1)); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Shards = 2 // exercise the sharded path with a pinned count
	router, err := shard.New(cfg)
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
func (saturatedBackend) Healthy() error                { return nil }
func (saturatedBackend) InvalidateCaches()             {}
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
// (hits + misses = requests per tier).
func TestStatsEndpointAndReportCache(t *testing.T) {
	s := testServer(t)
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
		for name, tier := range map[string]tierJSON{"prepared": stats.Prepared, "reports": stats.Reports} {
			if tier.Hits+tier.Misses != tier.Requests {
				t.Errorf("%s %s tier does not reconcile: %+v", path, name, tier)
			}
		}
		// The sharded breakdown: a pinned two-shard router, the two admitted
		// requests on the single owning shard, idle shards cold.
		if stats.ShardCount != 2 || len(stats.Shards) != 2 {
			t.Fatalf("%s shard breakdown = count %d, %d entries; want 2/2", path, stats.ShardCount, len(stats.Shards))
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

	// Wrong method rejected.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/stats", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/stats status %d", rec.Code)
	}
}
