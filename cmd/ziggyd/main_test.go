package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden files from the current responses:
//
//	go test ./cmd/ziggyd -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenServer builds the exact serving stack main assembles, on the small
// deterministic boxoffice dataset so golden responses are stable and fast.
// Parallelism 1 pins the sequential path and shards 2 pins the router
// topology (output is identical for every worker and shard count, so both
// are belt and braces, not a requirement — but the per-shard stats counters
// depend on the shard count, so the golden /api/stats shape needs it fixed).
func goldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	return shardedServer(t, 2)
}

// shardedServer is goldenServer with an explicit shard count.
func shardedServer(t *testing.T, shards int) *httptest.Server {
	t.Helper()
	srv, err := buildServer(options{
		datasets:    "boxoffice",
		seed:        1,
		minTight:    0.4,
		maxViews:    8,
		parallelism: 1,
		shards:      shards,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// scrub zeroes the volatile fields of a decoded response in place: stage
// wall times (they vary run to run), cache byte estimates (they track the
// size heuristic, not the semantics under test), and the retry-after hint
// (it tracks observed service times).
func scrub(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "prepMillis", "searchMillis", "postMillis", "bytes", "retryAfterMillis", "meanServiceMillis":
				x[k] = 0
			default:
				scrub(val)
			}
		}
	case []any:
		for _, val := range x {
			scrub(val)
		}
	}
}

// canonicalize decodes the body, scrubs volatile fields, and re-encodes it
// with sorted keys and indentation, so responses can be byte-compared.
func canonicalize(t *testing.T, name string, body []byte) []byte {
	t.Helper()
	var decoded any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("%s: response is not JSON: %v\n%s", name, err, body)
	}
	scrub(decoded)
	canon, err := json.MarshalIndent(decoded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(canon, '\n')
}

// checkGolden canonicalizes the body and compares it against the checked-in
// golden file, rewriting it under -update.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	canon := canonicalize(t, name, body)
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, canon, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run `go test ./cmd/ziggyd -update` to create golden files)", name, err)
	}
	if !bytes.Equal(canon, want) {
		t.Errorf("%s: response diverged from golden file\n--- want\n%s\n--- got\n%s", name, want, canon)
	}
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestGoldenCharacterizeTwiceAndStats is the end-to-end golden path of the
// serving daemon: the same characterization twice over real HTTP — the
// second response must assert cacheHit/reportCacheHit true and otherwise be
// byte-identical to the first — followed by /api/stats with reconciling
// counters. All three responses are pinned against checked-in golden JSON.
func TestGoldenCharacterizeTwiceAndStats(t *testing.T) {
	ts := goldenServer(t)
	const query = `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100", "excludePredicate": true}`

	code, first := post(t, ts, "/api/characterize", query)
	if code != http.StatusOK {
		t.Fatalf("first characterize status %d: %s", code, first)
	}
	checkGolden(t, "characterize_cold.json", first)

	code, second := post(t, ts, "/api/characterize", query)
	if code != http.StatusOK {
		t.Fatalf("second characterize status %d: %s", code, second)
	}
	var rep struct {
		CacheHit       bool `json:"cacheHit"`
		ReportCacheHit bool `json:"reportCacheHit"`
	}
	if err := json.Unmarshal(second, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHit || !rep.ReportCacheHit {
		t.Errorf("second identical query not served from the report cache: %s", second)
	}
	checkGolden(t, "characterize_cached.json", second)

	code, stats := get(t, ts, "/api/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d: %s", code, stats)
	}
	var sr struct {
		Prepared, Reports struct {
			Hits, Misses, Requests int64
		}
	}
	if err := json.Unmarshal(stats, &sr); err != nil {
		t.Fatal(err)
	}
	for name, tier := range map[string]struct{ Hits, Misses, Requests int64 }{
		"prepared": sr.Prepared, "reports": sr.Reports,
	} {
		if tier.Hits+tier.Misses != tier.Requests {
			t.Errorf("%s tier does not reconcile: %+v", name, tier)
		}
	}
	if sr.Reports.Hits != 1 || sr.Reports.Misses != 1 {
		t.Errorf("reports tier = %+v, want 1 hit / 1 miss", sr.Reports)
	}
	checkGolden(t, "stats.json", stats)
}

// TestGoldenErrorPaths pins the error wire format: malformed JSON, a
// missing query, an unknown table, an uncharacterizable selection, and a
// method mismatch.
func TestGoldenErrorPaths(t *testing.T) {
	ts := goldenServer(t)
	cases := []struct {
		name   string
		body   string
		status int
		golden string
	}{
		{"bad-json", "{not json", http.StatusBadRequest, "error_bad_json.json"},
		{"missing-sql", `{}`, http.StatusBadRequest, "error_missing_sql.json"},
		{"unknown-table", `{"sql": "SELECT * FROM nope"}`, http.StatusBadRequest, "error_unknown_table.json"},
		{"tiny-selection", `{"sql": "SELECT * FROM boxoffice WHERE gross_musd > 1e15"}`,
			http.StatusUnprocessableEntity, "error_tiny_selection.json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := post(t, ts, "/api/characterize", c.body)
			if code != c.status {
				t.Fatalf("status %d, want %d: %s", code, c.status, body)
			}
			checkGolden(t, c.golden, body)
		})
	}
	t.Run("method-not-allowed", func(t *testing.T) {
		code, body := get(t, ts, "/api/characterize")
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /api/characterize status %d", code)
		}
		checkGolden(t, "error_method.json", body)
	})
}

// TestBuildServerValidation covers the daemon's option errors: unknown
// datasets, missing tables, bad CSV paths and invalid cache bounds fail
// construction instead of serving a broken daemon.
func TestBuildServerValidation(t *testing.T) {
	cases := []options{
		{datasets: "nope", minTight: 0.4, maxViews: 8},
		{datasets: "", minTight: 0.4, maxViews: 8},
		{datasets: "boxoffice", csvs: []string{"/does/not/exist.csv"}, minTight: 0.4, maxViews: 8},
		{datasets: "boxoffice", minTight: 0.4, maxViews: 8, shards: -1},
		{datasets: "boxoffice", minTight: 0.4, maxViews: 8, cacheEntries: -1},
		{datasets: "boxoffice", minTight: 0.4, maxViews: 8, cacheBytes: -1},
		{datasets: "boxoffice", minTight: 0.4, maxViews: 8, worker: true, peers: "127.0.0.1:1"},
		{datasets: "boxoffice", minTight: 0.4, maxViews: 8, peers: " , "},
		{minTight: 0.4, maxViews: 8, worker: true, shards: -1},
	}
	for i, opts := range cases {
		if _, err := buildHandler(opts, nil); err == nil {
			t.Errorf("case %d: buildHandler accepted invalid options %+v", i, opts)
		}
	}
	// Worker mode needs no datasets at all.
	if _, err := buildHandler(options{minTight: 0.4, maxViews: 8, worker: true, shards: 1}, nil); err != nil {
		t.Errorf("worker mode without datasets: %v", err)
	}
	// Custom cache bounds flow through to the engine.
	srv, err := buildServer(options{
		datasets: "boxoffice", seed: 1, minTight: 0.4, maxViews: 8,
		cacheEntries: 3, cacheBytes: 1 << 20,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = srv
}

// scrubCacheFlags zeroes the two cache signals in place, so cached
// responses can be byte-compared against cold ones.
func scrubCacheFlags(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "cacheHit", "reportCacheHit":
				x[k] = false
			default:
				scrubCacheFlags(val)
			}
		}
	case []any:
		for _, val := range x {
			scrubCacheFlags(val)
		}
	}
}

// TestGoldenShardCountsAgree pins the determinism contract of the sharded
// daemon at the wire level: the same query answered by 1-, 2- and 4-shard
// servers produces byte-identical cold responses, every shard count serves
// the identical repeat from the shared report cache, and the cached body is
// byte-identical to the cold one except for the two cache flags. The
// 1-shard cold body is also pinned against the checked-in golden file, so
// all shard counts agree with the golden wire format.
func TestGoldenShardCountsAgree(t *testing.T) {
	const query = `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100", "excludePredicate": true}`
	type run struct {
		shards       int
		cold, cached []byte
	}
	var runs []run
	for _, n := range []int{1, 2, 4} {
		ts := shardedServer(t, n)
		code, cold := post(t, ts, "/api/characterize", query)
		if code != http.StatusOK {
			t.Fatalf("shards=%d: cold status %d: %s", n, code, cold)
		}
		code, cached := post(t, ts, "/api/characterize", query)
		if code != http.StatusOK {
			t.Fatalf("shards=%d: cached status %d: %s", n, code, cached)
		}
		var rep struct {
			CacheHit       bool `json:"cacheHit"`
			ReportCacheHit bool `json:"reportCacheHit"`
		}
		if err := json.Unmarshal(cached, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.CacheHit || !rep.ReportCacheHit {
			t.Errorf("shards=%d: repeat not served from the shared report cache", n)
		}
		runs = append(runs, run{
			shards: n,
			cold:   canonicalize(t, fmt.Sprintf("shards=%d cold", n), cold),
			cached: canonicalize(t, fmt.Sprintf("shards=%d cached", n), cached),
		})
	}
	for _, r := range runs[1:] {
		if !bytes.Equal(r.cold, runs[0].cold) {
			t.Errorf("cold response differs between shards=%d and shards=%d\n--- shards=%d\n%s\n--- shards=%d\n%s",
				runs[0].shards, r.shards, runs[0].shards, runs[0].cold, r.shards, r.cold)
		}
		if !bytes.Equal(r.cached, runs[0].cached) {
			t.Errorf("cached response differs between shards=%d and shards=%d", runs[0].shards, r.shards)
		}
	}
	// Cached == cold once the cache flags are neutralized.
	for _, r := range runs {
		var cold, cached any
		if err := json.Unmarshal(r.cold, &cold); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(r.cached, &cached); err != nil {
			t.Fatal(err)
		}
		scrubCacheFlags(cold)
		scrubCacheFlags(cached)
		c1, _ := json.MarshalIndent(cold, "", "  ")
		c2, _ := json.MarshalIndent(cached, "", "  ")
		if !bytes.Equal(c1, c2) {
			t.Errorf("shards=%d: cached response differs from cold beyond the cache flags\n--- cold\n%s\n--- cached\n%s", r.shards, c1, c2)
		}
	}
	// And the shard-count-independent body matches the checked-in golden
	// (written by TestGoldenCharacterizeTwiceAndStats under -update).
	if !*update {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", "characterize_cold.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(runs[0].cold, want) {
			t.Error("sharded cold response diverged from the checked-in golden file")
		}
	}
}

// TestGoldenApproximateCharacterize pins the approximate request surface:
// an "approximate": true query resolves the default sample cap, returns a
// flagged report whose provenance block is part of the pinned golden body,
// is byte-identical across shard counts 1, 2 and 4, and memoizes under its
// own cache key — the repeat is a report-cache hit with the same bytes, and
// an exact query for the same selection is NOT served from the approximate
// entry.
func TestGoldenApproximateCharacterize(t *testing.T) {
	const query = `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100", "excludePredicate": true, "approximate": true, "approxSeed": 7}`
	const exactQuery = `{"sql": "SELECT * FROM boxoffice WHERE gross_musd >= 100", "excludePredicate": true}`

	var bodies [][]byte
	for _, n := range []int{1, 2, 4} {
		ts := shardedServer(t, n)
		code, cold := post(t, ts, "/api/characterize", query)
		if code != http.StatusOK {
			t.Fatalf("shards=%d: approximate status %d: %s", n, code, cold)
		}
		var rep struct {
			Approximate *struct {
				SampleRows  int     `json:"sampleRows"`
				CapRows     int     `json:"capRows"`
				Seed        uint64  `json:"seed"`
				SEInflation float64 `json:"seInflation"`
			} `json:"approximate"`
		}
		if err := json.Unmarshal(cold, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Approximate == nil {
			t.Fatalf("shards=%d: approximate response carries no provenance block: %s", n, cold)
		}
		if rep.Approximate.CapRows != 512 || rep.Approximate.Seed != 7 {
			t.Fatalf("shards=%d: provenance %+v, want the default cap 512 at seed 7", n, rep.Approximate)
		}
		if rep.Approximate.SampleRows > rep.Approximate.CapRows || rep.Approximate.SEInflation < 1 {
			t.Fatalf("shards=%d: provenance does not reconcile: %+v", n, rep.Approximate)
		}

		// The repeat under the identical approximate configuration is a
		// report-cache hit, byte-identical beyond the cache flags.
		code, cached := post(t, ts, "/api/characterize", query)
		if code != http.StatusOK {
			t.Fatalf("shards=%d: approximate repeat status %d: %s", n, code, cached)
		}
		var flags struct {
			ReportCacheHit bool `json:"reportCacheHit"`
		}
		if err := json.Unmarshal(cached, &flags); err != nil {
			t.Fatal(err)
		}
		if !flags.ReportCacheHit {
			t.Errorf("shards=%d: approximate repeat missed the report cache", n)
		}
		var c1, c2 any
		json.Unmarshal(canonicalize(t, "cold", cold), &c1)
		json.Unmarshal(canonicalize(t, "cached", cached), &c2)
		scrubCacheFlags(c1)
		scrubCacheFlags(c2)
		b1, _ := json.MarshalIndent(c1, "", "  ")
		b2, _ := json.MarshalIndent(c2, "", "  ")
		if !bytes.Equal(b1, b2) {
			t.Errorf("shards=%d: cached approximate response differs from cold beyond the cache flags", n)
		}

		// The exact query must not be conflated with the approximate entry:
		// it computes cold (no report-cache hit) and carries no provenance.
		code, exact := post(t, ts, "/api/characterize", exactQuery)
		if code != http.StatusOK {
			t.Fatalf("shards=%d: exact status %d: %s", n, code, exact)
		}
		var exactRep struct {
			ReportCacheHit bool            `json:"reportCacheHit"`
			Approximate    json.RawMessage `json:"approximate"`
		}
		if err := json.Unmarshal(exact, &exactRep); err != nil {
			t.Fatal(err)
		}
		if exactRep.ReportCacheHit {
			t.Errorf("shards=%d: exact query was served from the approximate cache entry", n)
		}
		if len(exactRep.Approximate) != 0 {
			t.Errorf("shards=%d: exact response carries an approximate block: %s", n, exactRep.Approximate)
		}

		bodies = append(bodies, canonicalize(t, fmt.Sprintf("shards=%d approx", n), cold))
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("approximate response differs between shards=1 and shards=%d\n--- shards=1\n%s\n--- other\n%s",
				[]int{1, 2, 4}[i], bodies[0], bodies[i])
		}
	}
	checkGolden(t, "characterize_approx.json", bodies[0])
}

// TestPressureDegradeOverHTTP arms the degrade path on a one-slot server
// and fires a concurrent cache-bypassing burst: nothing may shed (no 503s),
// at least one response must come back flagged approximate, every degraded
// body must be byte-identical to an explicitly requested approximate answer
// under the same configuration (default cap, seed 0), and /api/stats must
// account for the approximate servings per shard.
func TestPressureDegradeOverHTTP(t *testing.T) {
	// uscrime characterizations are slow enough (several ms of CPU) that
	// concurrent requests overlap in the one-slot queue; boxoffice answers
	// retire too fast to ever build pressure.
	srv, err := buildServer(options{
		datasets:      "uscrime",
		seed:          3,
		minTight:      0.4,
		maxViews:      8,
		parallelism:   1,
		shards:        1,
		concurrency:   1,
		queueDepth:    1,
		approxDegrade: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The burst hits a cold prepared tier on purpose: the first request
	// pays the dependency-graph prep while holding the only slot, so the
	// rest pile up behind the 1-deep queue and must degrade. (Warming the
	// cache first would let each request finish faster than the burst
	// goroutines can even start, defusing the pressure.)
	const query = `{"sql": "SELECT * FROM uscrime WHERE crime_violent_rate >= 1200", "excludePredicate": true, "skipReportCache": true}`
	const approxQuery = `{"sql": "SELECT * FROM uscrime WHERE crime_violent_rate >= 1200", "excludePredicate": true, "approximate": true, "skipReportCache": true}`

	const burst = 16
	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, burst)
	for i := 0; i < burst; i++ {
		go func() {
			code, body := post(t, ts, "/api/characterize", query)
			replies <- reply{code, body}
		}()
	}
	var degradedBodies [][]byte
	for i := 0; i < burst; i++ {
		r := <-replies
		if r.code == http.StatusServiceUnavailable {
			t.Fatalf("degrade mode shed a request: %s", r.body)
		}
		if r.code != http.StatusOK {
			t.Fatalf("burst request status %d: %s", r.code, r.body)
		}
		var rep struct {
			Approximate json.RawMessage `json:"approximate"`
		}
		if err := json.Unmarshal(r.body, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Approximate) == 0 {
			continue // admitted and served exactly
		}
		degradedBodies = append(degradedBodies, r.body)
	}
	degraded := len(degradedBodies)
	if degraded == 0 {
		t.Fatal("16-way burst against a one-slot queue degraded nothing")
	}

	// The reference: the same answer requested approximately on purpose.
	// The degrade path resolves the same default cap at seed 0, so every
	// degraded body must match this one beyond the cache flags.
	code, reference := post(t, ts, "/api/characterize", approxQuery)
	if code != http.StatusOK {
		t.Fatalf("reference approximate status %d: %s", code, reference)
	}
	refCanon := degradeCanon(t, reference)
	for _, body := range degradedBodies {
		if got := degradeCanon(t, body); !bytes.Equal(got, refCanon) {
			t.Errorf("degraded response differs from the explicit approximate answer\n--- explicit\n%s\n--- degraded\n%s",
				refCanon, got)
		}
	}

	// The per-shard stats account for every approximate serving (the burst's
	// degrades plus the explicit reference request).
	code, stats := get(t, ts, "/api/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d: %s", code, stats)
	}
	var sr struct {
		Shards []struct {
			ApproxServed int64 `json:"approxServed"`
			Rejected     int64 `json:"rejected"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(stats, &sr); err != nil {
		t.Fatal(err)
	}
	var approxServed, rejected int64
	for _, sh := range sr.Shards {
		approxServed += sh.ApproxServed
		rejected += sh.Rejected
	}
	if want := int64(degraded + 1); approxServed != want {
		t.Errorf("stats count %d approximate servings, want %d", approxServed, want)
	}
	if rejected != 0 {
		t.Errorf("stats count %d rejections despite degrade mode", rejected)
	}
}

// degradeCanon canonicalizes a characterize body and neutralizes the cache
// flags, for comparing degraded responses against explicit approximate ones.
func degradeCanon(t *testing.T, body []byte) []byte {
	t.Helper()
	var decoded any
	if err := json.Unmarshal(canonicalize(t, "degrade", body), &decoded); err != nil {
		t.Fatal(err)
	}
	scrubCacheFlags(decoded)
	canon, _ := json.MarshalIndent(decoded, "", "  ")
	return canon
}
