package remote

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/randx"
	"repro/internal/shard"
)

// testTable builds a small deterministic table (6 numeric columns plus one
// categorical with NULLs, 72 rows) and a selection with a planted shift,
// parameterized by seed so distinct seeds produce distinct fingerprints.
func testTable(t testing.TB, seed uint64) (*frame.Frame, *frame.Bitmap) {
	t.Helper()
	const rows = 72
	rng := randx.New(seed)
	sel := frame.NewBitmap(rows)
	for i := 0; i < rows/3; i++ {
		sel.Set(i)
	}
	cols := make([]*frame.Column, 0, 7)
	for c := 0; c < 6; c++ {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			if sel.Get(i) && c < 3 {
				vals[i] += 2.5
			}
		}
		cols = append(cols, frame.NewNumericColumn(fmt.Sprintf("c%d", c), vals))
	}
	labels := make([]string, rows)
	for i := range labels {
		labels[i] = fmt.Sprintf("g%d", i%3)
	}
	cat := frame.NewCategoricalColumn("grp", labels)
	cols = append(cols, cat)
	f, err := frame.New(fmt.Sprintf("t%d", seed), cols)
	if err != nil {
		t.Fatal(err)
	}
	return f, sel
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	return cfg
}

// localRouter builds a router over k in-process backends sharing one report
// cache with the router: how several local engines are expressed.
func localRouter(t testing.TB, k int) *shard.Router {
	t.Helper()
	cfg := testConfig()
	reports := core.NewReportCache(cfg.CacheEntries, cfg.CacheBytes)
	backends := make([]shard.Backend, k)
	for i := range backends {
		b, err := shard.NewEngineBackend(cfg, reports, shard.Params{})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = b
	}
	r, err := shard.NewWithBackends(cfg, reports, backends)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newWorker starts a worker process stand-in: a router over k local
// backends behind the worker HTTP API on an httptest server.
func newWorker(t testing.TB, k int) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(localRouter(t, k))
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	return w, ts
}

// canonical encodes a report with its volatile fields (timings, cache
// flags) neutralized, so reports can be byte-compared across topologies and
// cache states.
func canonical(rep *core.Report) []byte {
	c := *rep
	c.Timings = core.Timings{}
	c.CacheHit = false
	c.ReportCacheHit = false
	return core.EncodeReport(&c)
}

// topologies builds the three serving topologies the determinism pins
// compare at k local backends: "local" (k in-process backends), "remote" (a
// front over one worker running k) and "mixed" (a front over an in-process
// engine and such a worker).
func topologies(t testing.TB, k int) map[string]*shard.Router {
	t.Helper()
	front := func(backends ...shard.Backend) *shard.Router {
		r, err := shard.NewWithBackends(testConfig(), nil, backends)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	_, ts := newWorker(t, k)
	eng, err := shard.NewEngineBackend(testConfig(), nil, shard.Params{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newWorker(t, k)
	return map[string]*shard.Router{
		"local":  localRouter(t, k),
		"remote": front(NewClient(ts.URL)),
		"mixed":  front(eng, NewClient(ts2.URL)),
	}
}

// TestRemoteDeterminism is the acceptance pin of the distribution layer:
// for k = 1, 2 and 4 local backends, the same queries answered by an
// in-process router, by a front routing to a remote worker over HTTP, and
// by a mixed local/remote topology produce byte-identical reports
// (canonical wire encoding, volatile fields neutralized).
func TestRemoteDeterminism(t *testing.T) {
	type table struct {
		f   *frame.Frame
		sel *frame.Bitmap
	}
	var tables []table
	for seed := uint64(1); seed <= 3; seed++ {
		f, sel := testTable(t, seed)
		tables = append(tables, table{f, sel})
	}

	// The reference: a plain one-engine router.
	reference := make([][]byte, len(tables))
	refRouter, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range tables {
		rep, err := refRouter.Characterize(tb.f, tb.sel)
		if err != nil {
			t.Fatal(err)
		}
		reference[i] = canonical(rep)
	}

	for _, k := range []int{1, 2, 4} {
		for name, router := range topologies(t, k) {
			for i, tb := range tables {
				rep, err := router.Characterize(tb.f, tb.sel)
				if err != nil {
					t.Fatalf("k=%d %s table %d: %v", k, name, i, err)
				}
				if !bytes.Equal(canonical(rep), reference[i]) {
					t.Errorf("k=%d %s: table %d report diverged from the in-process reference", k, name, i)
				}
				// The repeat must be served from a report cache wherever it
				// lives, still byte-identical.
				again, err := router.Characterize(tb.f, tb.sel)
				if err != nil {
					t.Fatalf("k=%d %s table %d repeat: %v", k, name, i, err)
				}
				if !again.ReportCacheHit {
					t.Errorf("k=%d %s: table %d repeat missed every report cache", k, name, i)
				}
				if !bytes.Equal(canonical(again), reference[i]) {
					t.Errorf("k=%d %s: cached table %d report diverged", k, name, i)
				}
			}
			router.Close()
		}
	}
}

// TestRemoteApproximateDeterminism extends the determinism pin to the
// approximate path: for a matrix of (sample cap, seed) configurations, the
// version-2 partial-report frame produced in process, over HTTP to a remote
// worker, and over a mixed local/remote topology is byte-identical per
// configuration across k = 1, 2 and 4 local backends — and distinct
// configurations produce distinct reports, so a cache can never conflate
// them.
func TestRemoteApproximateDeterminism(t *testing.T) {
	f, sel := testTable(t, 1)
	configs := []core.Options{
		{ApproxRows: 36, ApproxSeed: 1},
		{ApproxRows: 36, ApproxSeed: 7},
		{ApproxRows: 48, ApproxSeed: 1},
	}

	// References: in-process single-shard, one per configuration.
	refRouter, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reference := make([][]byte, len(configs))
	for ci, opts := range configs {
		rep, err := refRouter.CharacterizeOpts(f, sel, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Approximate == nil {
			t.Fatalf("config %d: report carries no approximate block", ci)
		}
		if got := rep.Approximate; got.CapRows != opts.ApproxRows || got.Seed != opts.ApproxSeed {
			t.Fatalf("config %d: provenance %+v does not echo the request", ci, got)
		}
		reference[ci] = canonical(rep)
	}
	for ci := range configs {
		for cj := ci + 1; cj < len(configs); cj++ {
			if bytes.Equal(reference[ci], reference[cj]) {
				t.Errorf("configs %d and %d produced identical reports", ci, cj)
			}
		}
	}

	for _, k := range []int{1, 2, 4} {
		for name, router := range topologies(t, k) {
			for ci, opts := range configs {
				rep, err := router.CharacterizeOpts(f, sel, opts)
				if err != nil {
					t.Fatalf("k=%d %s config %d: %v", k, name, ci, err)
				}
				if !bytes.Equal(canonical(rep), reference[ci]) {
					t.Errorf("k=%d %s: config %d approximate report diverged from the in-process reference",
						k, name, ci)
				}
				// Approximate reports memoize per configuration: the repeat
				// is a report-cache hit with the same bytes.
				again, err := router.CharacterizeOpts(f, sel, opts)
				if err != nil {
					t.Fatalf("k=%d %s config %d repeat: %v", k, name, ci, err)
				}
				if !again.ReportCacheHit {
					t.Errorf("k=%d %s: config %d repeat missed every report cache", k, name, ci)
				}
				if !bytes.Equal(canonical(again), reference[ci]) {
					t.Errorf("k=%d %s: cached config %d report diverged", k, name, ci)
				}
			}
			router.Close()
		}
	}
}

// twoWorkerFront builds a front over two worker processes and returns
// tables owned by worker 0 and worker 1 respectively.
func twoWorkerFront(t *testing.T) (*shard.Router, []*Client, []*Worker, [2]struct {
	f   *frame.Frame
	sel *frame.Bitmap
}) {
	t.Helper()
	w0, ts0 := newWorker(t, 1)
	w1, ts1 := newWorker(t, 1)
	clients := []*Client{NewClient(ts0.URL), NewClient(ts1.URL)}
	front, err := shard.NewWithBackends(testConfig(), nil, []shard.Backend{clients[0], clients[1]})
	if err != nil {
		t.Fatal(err)
	}
	var owned [2]struct {
		f   *frame.Frame
		sel *frame.Bitmap
	}
	found := [2]bool{}
	for seed := uint64(1); !(found[0] && found[1]); seed++ {
		f, sel := testTable(t, seed)
		owner := shard.Assign(f.Fingerprint(), 2)
		if !found[owner] {
			owned[owner] = struct {
				f   *frame.Frame
				sel *frame.Bitmap
			}{f, sel}
			found[owner] = true
		}
	}
	return front, clients, []*Worker{w0, w1}, owned
}

// TestCrossProcessCacheCoherence pins the second acceptance criterion: a
// repeat query against a two-worker deployment is served from the owning
// worker's report cache without the table shipping again — even by a brand
// new front that never shipped it — and the cache-hit accounting reconciles
// across both workers (misses − deduped == distinct computations).
func TestCrossProcessCacheCoherence(t *testing.T) {
	front, clients, workers, owned := twoWorkerFront(t)
	for _, tb := range owned {
		cold, err := front.Characterize(tb.f, tb.sel)
		if err != nil {
			t.Fatal(err)
		}
		if cold.ReportCacheHit {
			t.Fatal("first query reported a cache hit")
		}
	}
	for i, c := range clients {
		if got := c.Snapshot().TablesShipped; got != 1 {
			t.Errorf("worker %d received %d table shipments, want 1", i, got)
		}
	}
	// Repeats: served from the workers' report caches, no new shipments.
	for _, tb := range owned {
		warm, err := front.Characterize(tb.f, tb.sel)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.ReportCacheHit {
			t.Error("repeat query missed the worker's report cache")
		}
	}
	for i, c := range clients {
		if got := c.Snapshot().TablesShipped; got != 1 {
			t.Errorf("worker %d received %d shipments after repeats, want still 1", i, got)
		}
	}

	// A second front (fresh clients — think: a restarted or additional
	// front process) gets repeat queries served from the workers' caches
	// without shipping anything at all.
	fresh := []*Client{NewClient(clients[0].Addr()), NewClient(clients[1].Addr())}
	front2, err := shard.NewWithBackends(testConfig(), nil, []shard.Backend{fresh[0], fresh[1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range owned {
		rep, err := front2.Characterize(tb.f, tb.sel)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.ReportCacheHit {
			t.Error("second front's repeat missed the worker's report cache")
		}
	}
	for i, c := range fresh {
		if got := c.Snapshot().TablesShipped; got != 0 {
			t.Errorf("second front shipped %d tables to worker %d, want 0", got, i)
		}
	}

	// Accounting across both workers: 2 distinct computations, 4 hits
	// (one repeat per front per table), misses − deduped reconciles.
	var hits, misses, deduped int64
	for _, w := range workers {
		snap := w.Router().Stats().Reports
		hits += snap.Hits
		misses += snap.Misses
		deduped += snap.Deduped
	}
	if misses-deduped != 2 {
		t.Errorf("misses−deduped = %d across workers, want 2 distinct computations", misses-deduped)
	}
	if hits != 4 {
		t.Errorf("hits = %d across workers, want 4 cached repeats", hits)
	}
	// The front's aggregated stats surface the same tiers.
	totals := front.Stats().Totals()
	if totals.Reports.Hits < 2 || totals.Reports.Misses < 2 {
		t.Errorf("front totals reports tier = %+v", totals.Reports)
	}
}

// TestWorkerDownFailover pins the error path and the rendezvous failover:
// with the owning worker down, the request is served by the runner-up
// backend (byte-identically); with every worker down the request fails with
// ErrBackendUnavailable; stats mark the dead worker unhealthy.
func TestWorkerDownFailover(t *testing.T) {
	w0, ts0 := newWorker(t, 1)
	_, ts1 := newWorker(t, 1)
	_ = w0
	front, err := shard.NewWithBackends(testConfig(), nil,
		[]shard.Backend{NewClient(ts0.URL), NewClient(ts1.URL)})
	if err != nil {
		t.Fatal(err)
	}
	f, sel := testTable(t, 5)
	owner := shard.Assign(f.Fingerprint(), 2)
	ref, err := front.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the owner; a fresh query (different options, so no cache) must
	// fail over to the surviving worker.
	owned := []*httptest.Server{ts0, ts1}
	owned[owner].Close()
	opts := core.Options{ExcludeColumns: []string{"c5"}}
	rep, err := front.CharacterizeOpts(f, sel, opts)
	if err != nil {
		t.Fatalf("failover characterize: %v", err)
	}
	if len(rep.Views) == 0 {
		t.Error("failover report is empty")
	}
	// And the original request still answers (recomputed on the survivor),
	// byte-identical to the pre-failure report.
	rep2, err := front.Characterize(f, sel)
	if err != nil {
		t.Fatalf("failover repeat: %v", err)
	}
	if !bytes.Equal(canonical(rep2), canonical(ref)) {
		t.Error("failover changed the report bytes")
	}

	stats := front.Stats()
	if stats.Shards[owner].Healthy {
		t.Error("dead worker still reported healthy")
	}
	if !stats.Shards[1-owner].Healthy {
		t.Error("surviving worker reported unhealthy")
	}

	// Both down: the error names the condition.
	owned[1-owner].Close()
	f2, sel2 := testTable(t, 6)
	if _, err := front.Characterize(f2, sel2); !errors.Is(err, shard.ErrBackendUnavailable) {
		t.Errorf("all-workers-down error = %v, want ErrBackendUnavailable", err)
	}
}

// TestWorkerRestartReships pins the self-healing path: a worker that lost
// its table store (restart) answers with unknown-fingerprint, and the
// client re-ships the table exactly once and retries transparently.
func TestWorkerRestartReships(t *testing.T) {
	router1, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	current := NewWorker(router1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := current
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	client := NewClient(ts.URL)
	front, err := shard.NewWithBackends(testConfig(), nil, []shard.Backend{client})
	if err != nil {
		t.Fatal(err)
	}
	f, sel := testTable(t, 7)
	ref, err := front.Characterize(f, sel)
	if err != nil {
		t.Fatal(err)
	}

	// "Restart" the worker: a fresh router and an empty table store behind
	// the same address.
	router2, err := shard.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	current = NewWorker(router2)
	mu.Unlock()

	rep, err := front.Characterize(f, sel)
	if err != nil {
		t.Fatalf("characterize after worker restart: %v", err)
	}
	if !bytes.Equal(canonical(rep), canonical(ref)) {
		t.Error("report after re-ship diverged")
	}
	if got := client.Snapshot().TablesShipped; got != 2 {
		t.Errorf("tables shipped = %d, want 2 (initial + one re-ship)", got)
	}
}

// TestRemoteSaturationMapsRetryAfter pins the backoff plumbing end to end
// at the client: a worker 503 with Retry-After headers becomes a
// *shard.SaturatedError carrying the millisecond hint, and the router does
// NOT fail over a saturated (reachable) backend.
func TestRemoteSaturationMapsRetryAfter(t *testing.T) {
	var secondBackendHit bool
	sat := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, PathCached) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if strings.HasSuffix(r.URL.Path, PathManifest) {
			writeJSON(w, http.StatusOK, ManifestResponse{Registered: true})
			return
		}
		w.Header().Set("Retry-After", "2")
		w.Header().Set(RetryAfterMillisHeader, "1500")
		writeError(w, http.StatusServiceUnavailable, shard.ErrSaturated)
	}))
	t.Cleanup(sat.Close)
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		secondBackendHit = true
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(other.Close)

	f, sel := testTable(t, 8)
	satIdx := shard.Assign(f.Fingerprint(), 2)
	backends := make([]shard.Backend, 2)
	backends[satIdx] = NewClient(sat.URL)
	backends[1-satIdx] = NewClient(other.URL)
	front, err := shard.NewWithBackends(testConfig(), nil, backends)
	if err != nil {
		t.Fatal(err)
	}
	_, err = front.Characterize(f, sel)
	var satErr *shard.SaturatedError
	if !errors.As(err, &satErr) {
		t.Fatalf("saturated worker error = %v, want *shard.SaturatedError", err)
	}
	if satErr.RetryAfter != 1500*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 1.5s from the millis header", satErr.RetryAfter)
	}
	if !errors.Is(err, shard.ErrSaturated) {
		t.Error("saturated error does not match the sentinel")
	}
	if secondBackendHit {
		t.Error("router failed over a saturated (reachable) backend")
	}
}

// TestWorkerEndpointValidation covers the worker's HTTP error paths: wrong
// methods, undecodable bodies, unknown fingerprints, and the empty-cache
// probe — plus the one stream that is no error: an orphan.
func TestWorkerEndpointValidation(t *testing.T) {
	w, ts := newWorker(t, 1)
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp, err := http.Get(ts.URL + PathCharacterize); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET characterize status %v %v", resp.StatusCode, err)
	}
	if resp := post(PathManifest, []byte("garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage manifest status %d", resp.StatusCode)
	}
	if resp := post(PathChunks, []byte("garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage chunks status %d", resp.StatusCode)
	}
	if resp := post(PathInvalidate, []byte("garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage invalidate status %d", resp.StatusCode)
	}
	// A well-formed chunk stream needs no negotiation before it: the stream
	// carries its own manifest, so an orphan registers its table.
	orphan, _ := testTable(t, 41)
	if resp := post(PathChunks, streamFor(orphan, 0, 0)); resp.StatusCode != http.StatusOK {
		t.Errorf("orphan chunk stream status %d, want 200", resp.StatusCode)
	}
	if _, ok := w.table(orphan.Fingerprint()); !ok {
		t.Error("orphan chunk stream did not register its table")
	}
	if resp := post(PathCharacterize, []byte("garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage characterize status %d", resp.StatusCode)
	}
	f, sel := testTable(t, 9)
	req := EncodeRequest(Request{Fingerprint: f.Fingerprint(), Sel: sel})
	if resp := post(PathCharacterize, req); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown-table characterize status %d", resp.StatusCode)
	}
	if resp := post(PathCached, req); resp.StatusCode != http.StatusNoContent {
		t.Errorf("cold cache probe status %d", resp.StatusCode)
	}
	// Health reports shape.
	resp, err := http.Get(ts.URL + PathHealth)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("health: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestClientAgainstDeadWorker covers the client-side transport error paths:
// probes degrade to misses, registration and characterization report
// ErrBackendUnavailable, and stats mark the backend unhealthy.
func TestClientAgainstDeadWorker(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // immediately dead
	c := NewClient(ts.URL)
	f, sel := testTable(t, 10)
	if _, ok := c.CachedReport(f.Fingerprint(), sel, core.Options{}); ok {
		t.Error("probe against a dead worker reported a hit")
	}
	if err := c.RegisterTable(f); !errors.Is(err, shard.ErrBackendUnavailable) {
		t.Errorf("register error = %v, want ErrBackendUnavailable", err)
	}
	if _, err := c.Characterize(f, sel, core.Options{}); !errors.Is(err, shard.ErrBackendUnavailable) {
		t.Errorf("characterize error = %v, want ErrBackendUnavailable", err)
	}
	snap := c.Snapshot()
	if snap.Healthy || snap.Kind != shard.KindRemote || snap.Addr != strings.TrimRight(ts.URL, "/") {
		t.Errorf("dead worker snapshot = %+v", snap)
	}
}

// TestSnapshotFailingWorkerUnhealthy pins the stats status check: a worker
// that answers /api/worker/stats with a 500 and a JSON error body is
// reported unhealthy, not as a healthy worker with zero counters.
func TestSnapshotFailingWorkerUnhealthy(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"boom"}`))
	}))
	t.Cleanup(ts.Close)
	if snap := NewClient(ts.URL).Snapshot(); snap.Healthy {
		t.Errorf("worker answering 500 reported healthy: %+v", snap)
	}
}
